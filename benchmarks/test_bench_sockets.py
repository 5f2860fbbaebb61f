"""T-SOCKETS -- multi-process socket sessions vs the threaded mesh.

PR 8 made the transport pluggable: the same session spec runs either as
three socket endpoints on threads inside one interpreter, or as three
separate party processes under :class:`repro.apps.cluster.ClusterSupervisor`.
This module prices that choice:

* **threaded mesh** -- every endpoint a thread over unix domain
  sockets; one interpreter, shared imports, no spawn cost.
* **process cluster** -- the supervisor starts one launcher interpreter
  per session, which imports the party path once and forks each party
  process; the session pays one interpreter start and import, and each
  party its handshake, before construction.

Process isolation is what the crash-recovery story buys (SIGKILL a
party and the others survive), so it is expected to *cost* wall-clock,
not win it: the gated number is an **isolation efficiency** ratio
(threaded time / process time).  The bar guards the supervisor's
launch-and-handshake path against degenerating into retry/backoff
stalls -- a healthy run is dominated by the launcher's one interpreter
start and import, a sick one by reconnect timers -- without pretending
processes should beat threads on a workload this small.  Both runs are also checked bit-identical to
each other and to the in-process simulator before any timing is read.

Headline numbers persist to ``BENCH_sockets.json`` (required by
``benchmarks/check_gates.py``) to start the transport's perf record.
"""

from __future__ import annotations

import hashlib
import os
import threading

from repro.apps.cluster import ClusterSupervisor, unix_addresses
from repro.core.config import SessionConfig
from repro.core.session import ClusteringSession
from repro.data.matrix import AttributeSpec, DataMatrix, Schema
from repro.network.channel import Eavesdropper
from repro.parties.runner import PartyRunner, encode_spec
from repro.types import AttributeType

#: Isolation-efficiency floor: a process cluster may cost at most
#: 1/bar times the threaded mesh (0.01 -> at most 100x; measured
#: 0.11-0.21x, i.e. 5-9x, over nine runs on a shared 2-vCPU host, and
#: 0.07-0.08x when each party was its own interpreter).  The ratio is
#: bound by the launcher's one interpreter start plus the numpy import
#: when healthy; the bar only trips when the supervisor path stalls in
#: reconnect backoff or handshake timeouts, which costs whole retry
#: deadlines rather than interpreter startups.  CI relaxes it further
#: -- shared runners fork slowly.
EFFICIENCY_BAR = float(os.environ.get("SOCKETS_EFFICIENCY_BAR", "0.01"))
ROWS_PER_SITE = int(os.environ.get("SOCKETS_BENCH_ROWS", "16"))

SCHEMA = Schema(
    [
        AttributeSpec("load", AttributeType.NUMERIC, precision=2),
        AttributeSpec("tier", AttributeType.CATEGORICAL),
    ]
)
PARTIES = ["siteA", "siteB", "TP"]


def _rows(seed: int) -> list[list]:
    tiers = ["gold", "silver", "bronze"]
    return [
        [((seed * 37 + i * 13) % 997) / 4.0, tiers[(seed + i) % 3]]
        for i in range(ROWS_PER_SITE)
    ]


def _workload():
    rows = {"siteA": _rows(1), "siteB": _rows(2)}
    config = SessionConfig(num_clusters=3, master_seed=61)
    return config, rows


def _run_threaded(spec: bytes) -> dict[str, dict]:
    runners = {p: PartyRunner(spec, p) for p in PARTIES}
    reports: dict[str, dict] = {}
    errors: dict[str, BaseException] = {}

    def drive(party: str) -> None:
        try:
            reports[party] = runners[party].run()
        except BaseException as exc:  # surfaced below, never swallowed
            errors[party] = exc

    threads = [threading.Thread(target=drive, args=(p,)) for p in PARTIES]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    for runner in runners.values():
        runner.close()
    assert not errors, f"party errors: {errors}"
    return reports


def _fresh_run_dir(root, tag: str):
    path = root / tag
    path.mkdir()
    return path


def _spec_for(run_dir, config, rows) -> bytes:
    spec = encode_spec(config, SCHEMA, rows, unix_addresses(PARTIES, str(run_dir)))
    (run_dir / "session.spec").write_bytes(spec)
    return spec


def _run_processes(run_dir) -> dict[str, dict]:
    supervisor = ClusterSupervisor(str(run_dir / "session.spec"), str(run_dir))
    return supervisor.run()


def _lanes(reports) -> dict:
    lanes: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    for party, report in reports.items():
        for _era, recipient, kind, tag, digest in report["transcript"]:
            lanes.setdefault((party, recipient), []).append((kind, tag, digest))
    return lanes


def _simulator_reference(config, rows):
    partitions = {s: DataMatrix(SCHEMA, [tuple(r) for r in rs]) for s, rs in rows.items()}
    session = ClusteringSession(config, partitions, tp_name="TP")
    tap = Eavesdropper("ref")
    for i, a in enumerate(PARTIES):
        for b in PARTIES[i + 1 :]:
            session.network.channel(a, b).attach_tap(tap)
    result = session.run()
    lanes: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    for frame in tap.frames:
        lanes.setdefault((frame.sender, frame.recipient), []).append(
            (frame.kind, frame.tag, hashlib.sha256(frame.wire).hexdigest())
        )
    return lanes, result


def test_processes_vs_threads_throughput(tmp_path, table, bench_store, alternating):
    """Threaded mesh vs supervised process cluster on one session spec.

    Equality first (three-way: simulator, threads, processes), timing
    second; the efficiency gate reads only the timed runs.
    """
    config, rows = _workload()
    ref_lanes, ref_result = _simulator_reference(config, rows)
    payload = ref_result.to_payload()

    check_dir = _fresh_run_dir(tmp_path, "check-threads")
    threaded_reports = _run_threaded(_spec_for(check_dir, config, rows))
    assert _lanes(threaded_reports) == ref_lanes
    assert all(threaded_reports[p]["result"] == payload for p in PARTIES)

    proc_dir = _fresh_run_dir(tmp_path, "check-procs")
    _spec_for(proc_dir, config, rows)
    process_reports = _run_processes(proc_dir)
    assert _lanes(process_reports) == ref_lanes
    assert all(process_reports[p]["result"] == payload for p in PARTIES)

    counter = iter(range(100))

    def timed_threads() -> None:
        run_dir = _fresh_run_dir(tmp_path, f"threads-{next(counter)}")
        _run_threaded(_spec_for(run_dir, config, rows))

    def timed_processes() -> None:
        run_dir = _fresh_run_dir(tmp_path, f"procs-{next(counter)}")
        _spec_for(run_dir, config, rows)
        _run_processes(run_dir)

    threads_time = alternating(timed_threads, repeats=2)[0]
    process_time = alternating(timed_processes, repeats=2)[0]
    efficiency = threads_time / process_time

    total_rows = sum(len(r) for r in rows.values())
    table(
        "T-SOCKETS: one session, 3 endpoints (2 sites x "
        f"{ROWS_PER_SITE} rows, unix sockets)",
        [
            ("threaded mesh", f"{threads_time * 1e3:.0f} ms", f"{1 / threads_time:.2f}/s"),
            ("process cluster", f"{process_time * 1e3:.0f} ms", f"{1 / process_time:.2f}/s"),
            ("isolation efficiency", f"{efficiency:.3f}x", f"(gate {EFFICIENCY_BAR}x)"),
        ],
        ("path", "session time", "sessions"),
    )
    bench_store(
        "sockets",
        {
            "processes_vs_threads": {
                "parties": len(PARTIES),
                "rows_total": total_rows,
                "threaded_ms": round(threads_time * 1e3, 1),
                "process_ms": round(process_time * 1e3, 1),
                "threaded_sessions_per_second": round(1 / threads_time, 2),
                "process_sessions_per_second": round(1 / process_time, 2),
                "speedup": round(efficiency, 4),
                "gate": EFFICIENCY_BAR,
            }
        },
    )
    assert efficiency >= EFFICIENCY_BAR, (
        f"process cluster cost {1 / efficiency:.0f}x the threaded mesh "
        f"(efficiency {efficiency:.3f}x, gate {EFFICIENCY_BAR}x): the "
        "supervisor spawn/handshake path is stalling"
    )
