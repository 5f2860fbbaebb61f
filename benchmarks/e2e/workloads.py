"""The end-to-end benchmark's workloads, their inputs and their checks.

Every input comes from ``numpy.random.default_rng`` seeded with the run's
seed, the workload and the operation (or set-up) index -- never from
``repro.data.synthetic`` -- so no change under ``src/`` can change what
the benchmark feeds the system, and every operation gets fresh inputs.
Each workload is one closed loop with one client; the only worker
threads are the ones the system itself starts (the parallel schedule's
two workers, the socket event loops).

A workload function drives a ``Recorder`` (see ``run.py``): it times
operations and set-ups through it and queues correctness checks with
``Recorder.check``, which run after the last operation.  A check holds
only the outputs of the operation it checks; it regenerates the inputs
from the seed and builds its reference when it runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.apps.cluster import ClusterSupervisor, unix_addresses
from repro.apps.service import ClusteringService
from repro.baselines.centralized import centralized_pipeline
from repro.clustering import kmedoids, quality
from repro.clustering.linkage import agglomerative
from repro.clustering.quality import average_square_distance
from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.results import result_from_labels
from repro.core.session import ClusteringSession
from repro.data.alphabet import DNA_ALPHABET
from repro.data.matrix import AttributeSpec, DataMatrix, Schema
from repro.distance.dissimilarity import DissimilarityMatrix
from repro.network.channel import Eavesdropper
from repro.parties import runner
from repro.types import AttributeType, LinkageMethod

import trace as tr  # the sibling tracer module, not the standard library's

#: Scratch space for shard files, sockets and supervisor work dirs.  A
#: relative path keeps unix-socket paths short whatever the checkout's
#: location; the runner starts every workload from the repository root.
OUT = Path(".bench_out")
#: Put first on a party process's ``PYTHONPATH``, this directory's
#: ``sitecustomize`` meters the process from inside.
PARTY_METER = Path(__file__).resolve().parent / "party_meter"

REGIONS = ("north", "south", "east", "west", "coast", "inland")
TP = "TP"


def _rng(seed: int, workload: int, i: int, setup: bool = False) -> np.random.Generator:
    """Inputs of operation (or, with ``setup``, set-up) ``i`` of a workload."""
    return np.random.default_rng([seed, workload, int(setup), i])


def _master_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 31))


def _dna(rng: np.random.Generator, n: int, length: int) -> list[str]:
    letters = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, (n, length))]
    return [row.tobytes().decode("ascii") for row in letters]


# -- schemas and rows ------------------------------------------------------------

MIXED = Schema(
    [
        AttributeSpec("dose", AttributeType.NUMERIC, precision=2),
        AttributeSpec("age", AttributeType.NUMERIC),
        AttributeSpec("strain", AttributeType.ALPHANUMERIC, alphabet=DNA_ALPHABET),
        AttributeSpec("region", AttributeType.CATEGORICAL),
    ]
)
NARROW = Schema(
    [
        AttributeSpec("dose", AttributeType.NUMERIC, precision=2),
        AttributeSpec("region", AttributeType.CATEGORICAL),
    ]
)
STREAM = Schema(
    [
        AttributeSpec("dose", AttributeType.NUMERIC, precision=2),
        AttributeSpec("strain", AttributeType.ALPHANUMERIC, alphabet=DNA_ALPHABET),
        AttributeSpec("region", AttributeType.CATEGORICAL),
    ]
)


def rows(schema: Schema, rng: np.random.Generator, n: int, dna_length: int = 0) -> list[tuple]:
    """``n`` random rows of ``schema`` (one of the three above)."""
    columns: dict[str, list] = {
        "dose": [float(v) for v in np.round(rng.normal(50.0, 15.0, n), 2)],
        "age": [int(v) for v in rng.integers(18, 90, n)],
        "region": [REGIONS[v] for v in rng.integers(0, len(REGIONS), n)],
    }
    if dna_length:
        columns["strain"] = _dna(rng, n, dna_length)
    return list(zip(*(columns[name] for name in schema.names)))


def clustered_rows(rng: np.random.Generator, n: int) -> list[tuple]:
    """``n`` rows of ``NARROW`` drawn from eight well-separated groups.

    Clear structure keeps the number of k-medoids swaps, and with it the
    analysis cost, about the same from seed to seed.
    """
    group = rng.integers(0, 8, n)
    dose = np.round(20.0 * group + rng.normal(0.0, 2.0, n), 2)
    region = np.where(rng.random(n) < 0.8, group % len(REGIONS), rng.integers(0, len(REGIONS), n))
    return [(float(d), REGIONS[r]) for d, r in zip(dose, region)]


def partitions(schema: Schema, rng: np.random.Generator, sites: int, n: int, dna_length: int = 0) -> dict[str, DataMatrix]:
    return {
        f"site{j}": DataMatrix(schema, rows(schema, rng, n, dna_length)) for j in range(sites)
    }


@dataclass(frozen=True)
class Size:
    sites: int
    rows: int
    #: Length of the DNA column's strings; 0 for a schema without one.
    dna: int = 0
    #: Rows per ingest (``stream-ingest-lossy`` only).
    batch: int = 0


def mixed_session(seed: int, workload: int, i: int, size: Size) -> tuple[dict[str, DataMatrix], SessionConfig]:
    """Partitions and configuration of session ``i`` over the mixed schema."""
    rng = _rng(seed, workload, i)
    parts = partitions(MIXED, rng, size.sites, size.rows, dna_length=size.dna)
    return parts, SessionConfig(num_clusters=3, master_seed=_master_seed(rng))


# -- shared checks -------------------------------------------------------------------


def simulator_reference(config: SessionConfig, parts: dict[str, DataMatrix]) -> tuple[dict, dict]:
    """The in-process run of a session with every link tapped.

    Returns per-directed-lane ``(kind, tag, sha256)`` lists and the
    published result payload.
    """
    session = ClusteringSession(config, parts, tp_name=TP)
    tap = Eavesdropper("reference")
    names = sorted(parts) + [TP]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            session.network.attach_tap(a, b, tap)
    payload = session.run().to_payload()
    lanes: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    for frame in tap.frames:
        digest = hashlib.sha256(frame.wire).hexdigest()
        lanes.setdefault((frame.sender, frame.recipient), []).append((frame.kind, frame.tag, digest))
    return lanes, payload


def socket_lanes(reports: dict[str, dict]) -> dict[tuple[str, str], list[tuple[str, str, str]]]:
    lanes: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    for party, report in reports.items():
        for _era, recipient, kind, tag, digest in report["transcript"]:
            lanes.setdefault((party, recipient), []).append((kind, tag, digest))
    return lanes


def replays_simulator(reports: dict[str, dict], seed: int, workload: int, i: int, size: Size) -> bool:
    """Session ``i``'s per-lane transcripts and results equal the simulator's."""
    parts, config = mixed_session(seed, workload, i, size)
    lanes, payload = simulator_reference(config, parts)
    return socket_lanes(reports) == lanes and all(
        report["result"] == payload for report in reports.values()
    )


def link_counts(network: Any, since: dict[str, int] | None = None) -> dict[str, int]:
    """Frames sent and recovery counters of a simulator network, minus ``since``."""
    stats = network.reliability_stats()
    counts = {name: stats[name] for name in ("retransmits", "duplicates_suppressed", "corrupt_detected")}
    counts["frames"] = sum(network.messages_sent_by(party) for party in network.parties)
    return {name: value - (since or {}).get(name, 0) for name, value in counts.items()}


# -- workloads -----------------------------------------------------------------------


def construct_mixed(rec: Any, size: Size, seed: int) -> None:
    """Standalone sealed simulator sessions over the mixed schema."""
    for i in rec.iterations():
        parts, config = mixed_session(seed, 1, i, size)
        with rec.op() as op:
            begun = rec.now()
            session = ClusteringSession(config, parts)
            rec.setup_sample(begun, rec.now())
            session.run()
        if op.failed:
            continue
        op.wire_bytes = session.total_bytes()
        op.links = link_counts(session.network)
        if i % 5 == 0:
            rec.check(f"session {i} matrix equals the centralized baseline",
                      functools.partial(_equals_centralized, session.final_matrix(), seed, i, size))


def _equals_centralized(matrix: DissimilarityMatrix, seed: int, i: int, size: Size) -> bool:
    parts, _ = mixed_session(seed, 1, i, size)
    return matrix == centralized_pipeline(parts)[0]


def tp_analysis_memmap(rec: Any, size: Size, seed: int) -> None:
    """Third-party analysis on a memmap store an eighth of the triangle."""
    n = size.sites * size.rows
    entries = n * (n - 1) // 2
    store_dir = OUT / "tp-store"
    suite = ProtocolSuiteConfig(
        store_backend="memmap",
        store_block_entries=max(1, entries // 16),
        store_cache_bytes=entries,  # 8 bytes an entry: an eighth of the triangle
        store_dir=str(store_dir),
    )
    # Ten set-ups, not five: with five, the median of set-up times spread
    # by 11% from seed to seed.
    for b in range(10):
        rng = _rng(seed, 2, b, setup=True)
        parts = {f"site{j}": DataMatrix(NARROW, clustered_rows(rng, size.rows)) for j in range(size.sites)}
        config = SessionConfig(num_clusters=4, master_seed=_master_seed(rng), suite=suite)
        session = None  # tear the previous deployment down before the clock starts
        with rec.setup():
            session = ClusteringSession(config, parts)
            session.execute_protocol()
    sites = list(session.index.sites)
    for i in rec.iterations():
        rng = _rng(seed, 2, i)
        weights = {site: [float(w) for w in rng.uniform(0.8, 1.25, 2)] for site in sites}
        session.config = replace(session.config, per_holder_weights=weights)
        before, links = session.total_bytes(), link_counts(session.network)
        with rec.op() as op:
            published = session.run_per_holder()
            merged = session.third_party.merged_matrix(weights[sites[0]])
            medoids = {k: kmedoids.k_medoids(merged, k) for k in range(6, 11)}
            quality.silhouette_score(merged, medoids[6].labels)
        if op.failed:
            continue
        op.wire_bytes = session.total_bytes() - before
        op.links = link_counts(session.network, since=links)
        if i % 4 == 0:
            found = {k: result.medoids for k, result in medoids.items()}
            rec.check(f"analysis {i} equals a memory-store replica", functools.partial(
                _replica_agrees, session, weights[sites[0]], published[sites[0]].to_payload(), found,
            ))


def _replica_agrees(session: ClusteringSession, weights: list[float], published: dict, medoids: dict) -> bool:
    """The memmap-store merge's dendrogram, published clusters and medoids
    equal those of an in-memory copy of the same matrix."""
    merged = session.third_party.merged_matrix(weights)
    replica = DissimilarityMatrix(merged.num_objects, merged.condensed)
    linkage = LinkageMethod.AVERAGE
    dendrogram = agglomerative(replica, linkage)
    labels = dendrogram.cut_at_k(session.config.num_clusters)
    expected = result_from_labels(
        list(session.index.refs()), labels,
        quality=average_square_distance(replica, labels), linkage=linkage.value,
    )
    return (
        agglomerative(merged, linkage).merges == dendrogram.merges
        and published == expected.to_payload()
        and all(kmedoids.k_medoids(replica, k).medoids == found for k, found in medoids.items())
    )


def stream_ingest_lossy(rec: Any, size: Size, seed: int) -> None:
    """A standing service on lossy links: ingest, recluster, retire.

    Every second ingest is followed by a retirement of as many rows as the
    two ingests added, so the population -- and with it the cost of one
    ingest -- stays level however many operations a run completes.
    """
    for b in range(5):
        rng = _rng(seed, 3, b, setup=True)
        # The chaos plan is seeded from the master seed.  Fixing it keeps
        # the pattern of lost, duplicated and corrupted frames -- and so the
        # retransmit work per ingest -- the same for every benchmark seed.
        config = SessionConfig(
            num_clusters=3,
            master_seed=2006 + b,
            max_workers=2,
            suite=ProtocolSuiteConfig(construction_schedule="parallel"),
        )
        parts = partitions(STREAM, rng, size.sites, size.rows, dna_length=size.dna)
        service = None  # tear the previous deployment down before the clock starts
        with rec.setup():
            service = ClusteringService(config, parts)
    sites = list(service.index.sites)
    network = service.session.network
    retire_per_site = 2 * size.batch // len(sites)
    for i in rec.iterations():
        rng = _rng(seed, 3, i)
        batch = DataMatrix(STREAM, rows(STREAM, rng, size.batch, dna_length=size.dna))
        before, links = service.total_bytes(), link_counts(network)
        with rec.op() as op:
            service.ingest({sites[i % len(sites)]: batch})
        if op.failed:
            continue
        op.wire_bytes = service.total_bytes() - before
        op.links = link_counts(network, since=links)
        if i % 2 == 1:
            with rec.aux("retire"):
                service.retire({site: range(retire_per_site) for site in sites})
    rec.check("service state equals a from-scratch session",
              functools.partial(_rebuild_agrees, service, config))


def _rebuild_agrees(service: ClusteringService, config: SessionConfig) -> bool:
    rebuilt = ClusteringSession(config, service.partitions()).final_matrix()
    current = service.matrix()
    linkage = LinkageMethod.AVERAGE
    return rebuilt == current and (
        agglomerative(rebuilt, linkage).merges == agglomerative(current, linkage).merges
    )


def _meter(counter: dict[str, Any], clock: Callable[[], Any]) -> dict[str, Callable]:
    """Wrappers counting sealed wire bytes and recording, with ``clock``,
    when the last party finished its handshake.

    Installed in untraced runs too: one addition per frame and one clock
    read per party, against milliseconds of sealing and handshaking.
    Every party thread seals, hence the lock.
    """
    lock = threading.Lock()

    def seal(fn: Callable) -> Callable:
        def counted(self: Any, plain: bytes) -> bytes:
            body = fn(self, plain)
            with lock:
                counter["wire_bytes"] += len(body)
            return body
        return counted

    def connect_all(fn: Callable) -> Callable:
        def stamped(self: Any, *args: Any, **kwargs: Any) -> None:
            fn(self, *args, **kwargs)
            connected = clock()
            with lock:
                counter["connected"] = max(counter["connected"], connected)
        return stamped

    return {
        "repro.network.handshake:LinkCipher.seal": seal,
        "repro.network.tcp:SocketTransport.connect_all": connect_all,
    }


def _run_threaded(spec: bytes, parties: list[str]) -> dict[str, dict]:
    """Drive every party of one socket session on its own thread."""
    runners = {party: runner.PartyRunner(spec, party) for party in parties}
    reports: dict[str, dict] = {}
    errors: dict[str, BaseException] = {}

    def drive(party: str) -> None:
        try:
            reports[party] = runners[party].run()
        except BaseException as exc:  # re-raised on the driver thread below
            errors[party] = exc

    threads = [threading.Thread(target=drive, args=(p,), name=f"party-{p}") for p in parties]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        for party_runner in runners.values():
            party_runner.close()
    if errors or any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"socket session failed: {errors or 'a party thread hung'}")
    return reports


def socket_mesh(rec: Any, size: Size, seed: int) -> None:
    """Threaded socket sessions: three endpoints over unix sockets."""
    counter: dict[str, Any] = {}
    with tr.patched(_meter(counter, rec.now)):
        for i in rec.iterations():
            parts, config = mixed_session(seed, 4, i, size)
            workdir = OUT / f"mesh-{i}"
            workdir.mkdir(parents=True, exist_ok=True)
            parties = sorted(parts) + [TP]
            table = {site: [list(row) for row in matrix.rows] for site, matrix in parts.items()}
            with rec.op() as op:
                begun = rec.now()
                counter.update(wire_bytes=0, connected=begun)
                spec = runner.encode_spec(config, MIXED, table, unix_addresses(parties, str(workdir)))
                reports = _run_threaded(spec, parties)
            shutil.rmtree(workdir, ignore_errors=True)
            if op.failed:
                continue
            rec.setup_sample(begun, counter["connected"])
            op.wire_bytes = counter["wire_bytes"]
            if i % 5 == 0:
                rec.check(f"socket session {i} replays the simulator transcript",
                          functools.partial(replays_simulator, reports, seed, 4, i, size))


IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import repro.apps.cluster; "
    "print(time.perf_counter() - started)"
)


@contextmanager
def party_meter(out: Path) -> Iterator[None]:
    """Meter the party processes started inside the block (see ``PARTY_METER``)."""
    saved = {name: os.environ.get(name) for name in ("PYTHONPATH", "E2E_PARTY_METER")}
    paths = [p for p in (saved["PYTHONPATH"] or "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(PARTY_METER)] + paths)
    os.environ["E2E_PARTY_METER"] = str(out.resolve())
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def read_party_meters(out: Path, parties: int) -> list[dict[str, float]]:
    meters = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(out.glob("*.json"))]
    if len(meters) != parties:
        raise RuntimeError(f"{len(meters)} party meter reports in {out}, expected {parties}")
    return meters


def process_cluster(rec: Any, size: Size, seed: int) -> None:
    """Supervised sessions with one OS process per party."""
    # Ten set-ups, not five: with five, the median import time spread by
    # 17% from seed to seed.
    for _ in range(10):
        with rec.setup(), rec.span("apps.cluster.import"):
            probe = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE],
                capture_output=True, text=True, check=True, timeout=60,
            )
        rec.sample("apps.cluster.import_s", float(probe.stdout))
    for i in rec.iterations():
        parts, config = mixed_session(seed, 5, i, size)
        workdir = OUT / f"proc-{i}"
        meters = workdir / "meter"
        meters.mkdir(parents=True, exist_ok=True)
        spec_path = workdir / "session.spec"
        table = {site: [list(row) for row in matrix.rows] for site, matrix in parts.items()}
        parties = sorted(parts) + [TP]
        addresses = unix_addresses(parties, str(workdir))
        with party_meter(meters), rec.op() as op:
            spec_path.write_bytes(runner.encode_spec(config, MIXED, table, addresses))
            reports = ClusterSupervisor(str(spec_path), str(workdir), timeout=60.0).run()
            metered = read_party_meters(meters, len(parties))
        shutil.rmtree(workdir, ignore_errors=True)
        if op.failed:
            continue
        op.wire_bytes = sum(m["wire_bytes"] for m in metered)
        rec.party_rss_mb.extend(m["peak_rss_mb"] for m in metered)
        rec.check(f"process session {i} replays the simulator transcript",
                  functools.partial(replays_simulator, reports, seed, 5, i, size))


# -- registry ------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[Any, Size, int], None]
    full: Size
    smoke: Size
    #: Operations every run completes, whatever ``--seconds`` says;
    #: ``wire_bytes`` is averaged over exactly these, so it is a pure
    #: function of the seed.
    min_ops: int
    trace_table: dict[str, tuple[str, ...]]
    env: tuple[tuple[str, str], ...] = ()
    #: Operations of a ``--smoke`` run: enough for one traced and one
    #: untraced instance of everything the workload does.
    smoke_ops: int = 2


#: Layers every in-process simulator session reaches.
_SIMULATOR = (
    "core.session", "core.scheduler", "crypto.seal", "crypto.prng",
    "network.serialize", "network.deserialize", "network.channel", "network.lane",
    "parties.holder", "parties.tp.absorb", "parties.tp.finalize", "parties.tp.publish",
    "core.numeric", "core.categorical", "distance.local", "distance.merge",
    "clustering.agglomerative", "clustering.cut", "clustering.quality",
)
#: Targets only the socket transport reaches.
_SOCKET_ONLY = (
    "repro.network.handshake:LinkCipher.seal",
    "repro.network.handshake:LinkCipher.open",
    "repro.network.tcp:serialize",
    "repro.network.tcp:deserialize",
)
#: Targets only the in-process simulator reaches.
_SIMULATOR_ONLY = (
    "repro.core.session:agree_pairwise",
    "repro.crypto.sym:SymmetricCipher.transmit_roundtrip",
    "repro.network.channel:serialize",
    "repro.network.channel:deserialize",
)
#: Targets only incremental ingests and retirements reach.
_DELTA = tuple(
    f"repro.parties.holder:DataHolder.{name}"
    for name in (
        "ingest_rows", "retire_rows", "announce_retirement", "send_local_delta",
        "numeric_initiate_delta", "numeric_respond_delta",
        "alnum_initiate_delta", "alnum_respond_delta", "send_categorical_delta",
    )
) + tuple(
    f"repro.parties.third_party:ThirdParty.{name}"
    for name in (
        "begin_delta", "receive_local_delta", "receive_numeric_delta_block",
        "receive_alnum_delta_block", "receive_encrypted_delta", "retire_objects",
        "finalize_categorical_delta",
    )
) + ("repro.parties.holder:pairwise_edit_distance_rows",)
_PER_HOLDER = ("repro.core.session:ClusteringSession.run_per_holder",)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "construct-mixed", construct_mixed,
            full=Size(sites=3, rows=32, dna=16), smoke=Size(sites=3, rows=5, dna=16),
            min_ops=5,
            trace_table=tr.table(
                _SIMULATOR + ("crypto.dh", "core.alnum"),
                drop=_SOCKET_ONLY + _DELTA + _PER_HOLDER,
            ),
        ),
        Workload(
            "tp-analysis-memmap", tp_analysis_memmap,
            full=Size(sites=3, rows=96), smoke=Size(sites=3, rows=10),
            min_ops=3,
            trace_table=tr.table(
                _SIMULATOR + (
                    "crypto.dh", "distance.store.read", "distance.store.write",
                    "distance.store.gather", "distance.store.scatter", "distance.store.flush",
                    "clustering.kmedoids", "clustering.silhouette",
                ),
                # The narrow schema has no alphanumeric column.
                drop=_SOCKET_ONLY + _DELTA + (
                    "repro.crypto.prng:ReseedablePRNG.next_below_block",
                    "repro.parties.holder:pairwise_edit_distances",
                    "repro.parties.holder:DataHolder.alnum_initiate",
                    "repro.parties.holder:DataHolder.alnum_respond",
                    "repro.parties.third_party:ThirdParty.receive_alnum_block",
                    "repro.core.session:ClusteringSession.run",
                ),
            ),
        ),
        Workload(
            "stream-ingest-lossy", stream_ingest_lossy,
            full=Size(sites=2, rows=150, dna=8, batch=5), smoke=Size(sites=2, rows=8, dna=8, batch=2),
            min_ops=20,
            trace_table=tr.table(
                _SIMULATOR + ("crypto.dh", "core.alnum", "apps.service",
                              "distance.matrix.insert", "distance.matrix.remove"),
                drop=_SOCKET_ONLY + _PER_HOLDER + ("repro.core.session:ClusteringSession.run",),
            ),
            env=(("REPRO_CHAOS_PRESET", "lossy"),),
            smoke_ops=4,
        ),
        Workload(
            "socket-mesh", socket_mesh,
            full=Size(sites=2, rows=24, dna=16), smoke=Size(sites=2, rows=4, dna=16),
            min_ops=5,
            trace_table=tr.table(
                (
                    "crypto.dh", "crypto.seal", "crypto.prng", "network.serialize",
                    "network.deserialize", "network.socket.send", "network.socket.receive",
                    "network.socket.connect", "parties.holder", "parties.tp.absorb",
                    "parties.tp.finalize", "parties.tp.publish", "parties.runner",
                    "core.numeric", "core.alnum", "core.categorical", "distance.local",
                    "distance.merge", "clustering.agglomerative", "clustering.cut",
                    "clustering.quality",
                ),
                drop=_SIMULATOR_ONLY + _DELTA,
            ),
        ),
        Workload(
            "process-cluster", process_cluster,
            full=Size(sites=2, rows=24, dna=16), smoke=Size(sites=2, rows=4, dna=16),
            min_ops=3,
            trace_table=tr.table(
                ("parties.runner", "apps.cluster.supervise", "apps.cluster.spawn"),
                drop=(
                    "repro.parties.runner:PartyRunner.__init__",
                    "repro.parties.runner:PartyRunner.run",
                    "repro.parties.runner:PartyRunner.close",
                ),
            ),
        ),
    )
}
