"""Multi-endpoint socket sessions: spec codec, transcript equality, crash
recovery and degraded completion.

The gate under test is the transport-pluggability contract: a session
run as N separate socket endpoints (threads here, real processes in the
supervisor tests) produces **byte-identical** per-lane transcripts and
published results to the in-process simulator run of the same spec --
including when one party is SIGKILLed mid-construction and restarted
from its checkpoint, and when a party dies permanently and the session
completes degraded.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
import signal
import string
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.cluster import (
    ClusterSupervisor,
    demo_spec,
    main as cluster_main,
    pick_tcp_addresses,
    unix_addresses,
)
from repro.apps.service import SNAPSHOT_FORMAT, ClusteringService
from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.session import ClusteringSession
from repro.data.matrix import AttributeSpec, DataMatrix, Schema
from repro.data.taxonomy import Taxonomy
from repro.exceptions import ConfigurationError, SnapshotError
from repro.network.channel import Eavesdropper
from repro.network.serialization import deserialize, serialize
from repro.parties.runner import (
    PartyRunner,
    decode_spec,
    encode_spec,
    spec_fingerprint,
)
from repro.types import AttributeType

SCHEMA = Schema(
    [
        AttributeSpec("age", AttributeType.NUMERIC),
        AttributeSpec("job", AttributeType.CATEGORICAL),
    ]
)
ROWS = {
    "alpha": [[34, "eng"], [29, "doc"], [41, "eng"]],
    "beta": [[52, "law"], [38, "doc"]],
}
PARTIES = sorted(ROWS) + ["TP"]


def _config(**kw):
    return SessionConfig(num_clusters=2, master_seed=7, **kw)


def _partitions():
    return {s: DataMatrix(SCHEMA, [tuple(r) for r in rs]) for s, rs in ROWS.items()}


def _simulator_reference(config=None):
    """Fault-free simulator run with every channel tapped: returns the
    per-directed-lane wire digests and the published result."""
    session = ClusteringSession(config or _config(), _partitions(), tp_name="TP")
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


def _socket_lanes(reports, era=None):
    lanes: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    for party, report in reports.items():
        for frame_era, recipient, kind, tag, digest in report["transcript"]:
            if era is not None and frame_era != era:
                continue
            lanes.setdefault((party, recipient), []).append((kind, tag, digest))
    return lanes


def _run_threaded(spec, parties=PARTIES, timeout=90.0):
    """Drive every endpooint of one socket session on its own thread."""
    runners = {p: PartyRunner(spec, p) for p in parties}
    reports: dict[str, dict] = {}
    errors: dict[str, BaseException] = {}

    def drive(party):
        try:
            reports[party] = runners[party].run()
        except BaseException as exc:  # surfaced below, never swallowed
            errors[party] = exc

    threads = [threading.Thread(target=drive, args=(p,)) for p in parties]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    for runner in runners.values():
        runner.close()
    assert not errors, f"party errors: {errors}"
    assert set(reports) == set(parties)
    return reports


# -- session spec codec ------------------------------------------------------


class TestSessionSpec:
    def test_round_trip(self, tmp_path):
        spec_bytes = encode_spec(
            _config(), SCHEMA, ROWS, unix_addresses(PARTIES, str(tmp_path))
        )
        spec = decode_spec(spec_bytes)
        assert sorted(spec["partitions"]) == ["alpha", "beta"]
        assert spec["tp_name"] == "TP"
        assert [a["name"] for a in spec["schema"]] == ["age", "job"]
        # Same bytes -> same fingerprint; any byte flip changes it.
        assert spec_fingerprint(spec_bytes) == spec_fingerprint(spec_bytes)
        assert spec_fingerprint(spec_bytes) != spec_fingerprint(spec_bytes + b"x")

    def test_taxonomy_attributes_rejected(self, tmp_path):
        schema = Schema(
            [
                AttributeSpec(
                    "cat",
                    AttributeType.CATEGORICAL,
                    taxonomy=Taxonomy({"root": None, "a": "root", "b": "root"}),
                )
            ]
        )
        with pytest.raises(ConfigurationError, match="taxonomy"):
            encode_spec(
                _config(),
                schema,
                {"alpha": [["a"]], "beta": [["b"]]},
                unix_addresses(PARTIES, str(tmp_path)),
            )

    def test_decode_rejects_garbage_and_wrong_format(self):
        with pytest.raises(ConfigurationError, match="unsupported"):
            decode_spec(serialize([1, 2, 3]))
        spec = deserialize(
            encode_spec(_config(), SCHEMA, ROWS, unix_addresses(PARTIES, "/tmp"))
        )
        spec["format"] = 999
        with pytest.raises(ConfigurationError, match="unsupported"):
            decode_spec(serialize(spec))

    def test_decode_rejects_tp_collision_and_missing_address(self):
        addresses = unix_addresses(PARTIES, "/tmp")
        with pytest.raises(ConfigurationError, match="collides"):
            decode_spec(
                encode_spec(_config(), SCHEMA, ROWS, addresses, tp_name="alpha")
            )
        with pytest.raises(ConfigurationError, match="no address"):
            decode_spec(
                encode_spec(
                    _config(),
                    SCHEMA,
                    ROWS,
                    {p: a for p, a in addresses.items() if p != "beta"},
                )
            )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda spec: {"format": spec["format"]},
            lambda spec: {k: v for k, v in spec.items() if k != "addresses"},
            lambda spec: {**spec, "partitions": 5},
            lambda spec: {**spec, "tp_name": ["TP"]},
            lambda spec: {**spec, "suite": {**spec["suite"], "warp_speed": True}},
            lambda spec: {**spec, "num_clusters": "two"},
            lambda spec: {
                **spec,
                "schema": [{**spec["schema"][0], "type": "weird"}, *spec["schema"][1:]],
            },
            lambda spec: {
                **spec,
                "schema": [{**spec["schema"][0], "precision": 99}, *spec["schema"][1:]],
            },
            lambda spec: {**spec, "suite": {**spec["suite"], "mask_bits": "x"}},
            lambda spec: {**spec, "addresses": {**spec["addresses"], "alpha": 5}},
            lambda spec: {**spec, "weights": ["a", "b"]},
            lambda spec: {**spec, "weights": [1.0]},
            lambda spec: {**spec, "weights": [1.0, -0.5]},
            lambda spec: {**spec, "weights": [0.0, 0]},
            lambda spec: {**spec, "weights": [1.0, float("inf")]},
            lambda spec: {
                **spec,
                "partitions": {**spec["partitions"], "alpha": [[34], [29, "doc"]]},
            },
            lambda spec: {
                **spec,
                "partitions": {**spec["partitions"], "alpha": [["34", "eng"]]},
            },
            lambda spec: {**spec, "partitions": {"alpha": spec["partitions"]["alpha"]}},
            lambda spec: {**spec, "partitions": {**spec["partitions"], "beta": []}},
        ],
        ids=[
            "format-only",
            "no-addresses",
            "partitions-int",
            "tp-name-list",
            "unknown-suite-key",
            "num-clusters-str",
            "unknown-attribute-type",
            "precision-out-of-range",
            "mask-bits-str",
            "address-int",
            "weights-str",
            "weights-count",
            "weights-negative",
            "weights-zero",
            "weights-inf",
            "row-short",
            "age-str",
            "one-site",
            "site-without-rows",
        ],
    )
    def test_malformed_spec_raises_configuration_error(self, tmp_path, mutate):
        """Every malformed spec is rejected with ConfigurationError, before
        the runner opens its transport."""
        spec = deserialize(
            encode_spec(_config(), SCHEMA, ROWS, unix_addresses(PARTIES, str(tmp_path)))
        )
        threads = threading.active_count()
        with pytest.raises(ConfigurationError):
            PartyRunner(serialize(mutate(spec)), "alpha")
        assert threading.active_count() == threads

    def test_unknown_transport_tuning_rejected(self, tmp_path):
        spec = encode_spec(
            _config(),
            SCHEMA,
            ROWS,
            unix_addresses(PARTIES, str(tmp_path)),
            transport={"dead_after": 2.0, "warp_speed": True},
        )
        with pytest.raises(ConfigurationError, match="warp_speed"):
            PartyRunner(spec, "alpha")

    def test_parallel_schedule_rejected(self, tmp_path):
        config = _config(
            suite=ProtocolSuiteConfig(construction_schedule="parallel")
        )
        with pytest.raises(ConfigurationError, match="sequential"):
            encode_spec(
                config, SCHEMA, ROWS, unix_addresses(PARTIES, str(tmp_path))
            )

    def test_unknown_party_rejected(self, tmp_path):
        spec = encode_spec(
            _config(), SCHEMA, ROWS, unix_addresses(PARTIES, str(tmp_path))
        )
        with pytest.raises(ConfigurationError, match="not named"):
            PartyRunner(spec, "gamma")


# -- transcript equality: sockets vs simulator -------------------------------


class TestTranscriptEquality:
    @pytest.mark.parametrize("scheme", ["unix", "tcp"])
    def test_socket_session_matches_simulator(self, tmp_path, scheme):
        """Three endpoints over real sockets replay the simulator run
        byte for byte: same lanes, same frame order, same sealed bytes,
        same published result at every party."""
        ref_lanes, ref_result = _simulator_reference()
        if scheme == "unix":
            addresses = unix_addresses(PARTIES, str(tmp_path))
        else:
            addresses = pick_tcp_addresses(PARTIES)
        spec = encode_spec(_config(), SCHEMA, ROWS, addresses)
        reports = _run_threaded(spec)
        assert _socket_lanes(reports) == ref_lanes
        payload = ref_result.to_payload()
        assert all(reports[p]["result"] == payload for p in PARTIES)
        assert all(reports[p]["era"] == 3 for p in PARTIES)

    def test_insecure_channels_still_match(self, tmp_path):
        config = _config(suite=ProtocolSuiteConfig(secure_channels=False))
        ref_lanes, ref_result = _simulator_reference(config)
        spec = encode_spec(
            config, SCHEMA, ROWS, unix_addresses(PARTIES, str(tmp_path))
        )
        reports = _run_threaded(spec)
        assert _socket_lanes(reports) == ref_lanes
        assert reports["TP"]["result"] == ref_result.to_payload()


# -- multi-process supervisor ------------------------------------------------


def _write_spec(tmp_path, spec):
    spec_path = tmp_path / "session.spec"
    spec_path.write_bytes(spec)
    return str(spec_path)


def _idle_threads(pid):
    """OS threads of process ``pid`` once it sleeps for 50 ms on end:
    the launcher does that only when its imports are done and it waits
    for a request."""
    proc = Path(f"/proc/{pid}")
    started, asleep = time.monotonic(), 0
    while asleep < 5:
        assert time.monotonic() - started < 60.0, "the launcher never went idle"
        time.sleep(0.01)
        state = (proc / "stat").read_text().rsplit(")", 1)[1].split()[0]
        asleep = asleep + 1 if state == "S" else 0
    return int(re.search(r"^Threads:\s+(\d+)", (proc / "status").read_text(), re.M)[1])


def _watch_launches(monkeypatch):
    """Record every ``subprocess.Popen`` made, and the launcher's OS
    thread count when it is about to fork: before the first request
    (held back until the launcher is idle) and before each restart."""
    launched: list[subprocess.Popen] = []
    threads: list[int] = []

    class CountingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            launched.append(self)

    spawn = ClusterSupervisor._spawn

    def watched_spawn(self, party, *, restore):
        if restore or not threads:
            threads.append(_idle_threads(launched[-1].pid))
        spawn(self, party, restore=restore)

    monkeypatch.setattr(subprocess, "Popen", CountingPopen)
    monkeypatch.setattr(ClusterSupervisor, "_spawn", watched_spawn)
    return launched, threads


#: Environment variable that tags a test's processes (see ``_tagged``).
_TAG = "REPRO_CLUSTER_TEST_TAG"


def _tagged(token):
    """Pids of the live processes, other than this one, whose environment
    has ``_TAG`` set to ``token`` (a zombie's environment reads empty)."""
    needle = f"{_TAG}={token}".encode()
    found = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if needle in (entry / "environ").read_bytes().split(b"\0"):
                found.add(int(entry.name))
        except OSError:
            continue  # gone, or not ours to read
    return found - {os.getpid()}


@pytest.fixture
def process_tag(monkeypatch):
    """A token in the environment of every process the test starts;
    whatever still runs with it at teardown is SIGKILLed."""
    token = uuid.uuid4().hex
    monkeypatch.setenv(_TAG, token)
    yield token
    for pid in _tagged(token):
        os.kill(pid, signal.SIGKILL)


class TestClusterSupervisor:
    def test_kill_and_restart_resumes_bit_identically(self, tmp_path, monkeypatch):
        """SIGKILL one holder mid-construction; the supervisor restarts
        it from its checkpoint, survivors reset their era, and the final
        era replays the whole construction byte-identically (the
        simulator transcript minus the already-checkpointed group-key
        frames)."""
        ref_lanes, ref_result = _simulator_reference()
        spec = encode_spec(
            _config(),
            SCHEMA,
            ROWS,
            unix_addresses(PARTIES, str(tmp_path)),
            # Survivors must outwait the restart (a fork from the
            # launcher, but the party still replays its checkpoint and
            # re-handshakes on a possibly loaded CI runner): death
            # declared mid-restart is sticky and unrecoverable.
            transport={"dead_after": 60.0},
        )
        supervisor = ClusterSupervisor(
            _write_spec(tmp_path, spec),
            str(tmp_path),
            kill_after_step={"beta": "age:send_local[beta]"},
        )
        launched, threads = _watch_launches(monkeypatch)
        reports = supervisor.run()
        # One interpreter for the whole session, restart included, and
        # it forks with one OS thread.
        assert len(launched) == 1
        assert threads == [1, 1]
        final_era = max(r["era"] for r in reports.values())
        assert final_era == 4  # beta's restart bumped the initial era 3
        assert all(r["era"] == final_era for r in reports.values())
        ref_minus_group_key = {
            lane: [e for e in entries if e[0] != "group_key"]
            for lane, entries in ref_lanes.items()
        }
        ref_minus_group_key = {
            lane: entries for lane, entries in ref_minus_group_key.items() if entries
        }
        assert _socket_lanes(reports, era=final_era) == ref_minus_group_key
        payload = ref_result.to_payload()
        assert all(r["result"] == payload for r in reports.values())

    def test_memmap_backend_survives_sigkill(self, tmp_path):
        """Crash-safety of the sharded storage backend: the whole session
        runs with its matrices on memmap row-block shards, one holder is
        SIGKILLed mid-construction, and the supervisor's restore replays
        to a final matrix and published result bit-identical to the
        fault-free *in-memory* simulator run -- the backend is invisible
        to the recovery machinery and to the published bytes."""
        ref_lanes, ref_result = _simulator_reference()
        suite = ProtocolSuiteConfig(
            store_backend="memmap",
            store_block_entries=16,
            store_cache_bytes=512,
            store_dir=str(tmp_path / "shards"),
        )
        spec = encode_spec(
            _config(suite=suite),
            SCHEMA,
            ROWS,
            unix_addresses(PARTIES, str(tmp_path)),
            transport={"dead_after": 60.0},
        )
        supervisor = ClusterSupervisor(
            _write_spec(tmp_path, spec),
            str(tmp_path),
            kill_after_step={"beta": "age:send_local[beta]"},
        )
        reports = supervisor.run()
        final_era = max(r["era"] for r in reports.values())
        assert all(r["era"] == final_era for r in reports.values())
        ref_minus_group_key = {
            lane: [e for e in entries if e[0] != "group_key"]
            for lane, entries in ref_lanes.items()
        }
        ref_minus_group_key = {
            lane: entries for lane, entries in ref_minus_group_key.items() if entries
        }
        assert _socket_lanes(reports, era=final_era) == ref_minus_group_key
        payload = ref_result.to_payload()
        assert all(r["result"] == payload for r in reports.values())

    def test_permanent_death_degrades(self, tmp_path):
        """A party that is killed and never restarted goes DEAD at its
        peers; with a fault-tolerant suite the TP publishes the merged
        result over every completed attribute to the survivors."""
        config = _config(suite=ProtocolSuiteConfig(tolerate_faults=True))
        _, ref_result = _simulator_reference(_config())
        spec = encode_spec(
            config,
            SCHEMA,
            ROWS,
            unix_addresses(PARTIES, str(tmp_path)),
            transport={"dead_after": 1.0, "heartbeat_interval": 0.1},
        )
        supervisor = ClusterSupervisor(
            _write_spec(tmp_path, spec),
            str(tmp_path),
            # "job:send_encrypted[beta]" is beta's LAST own construction
            # step: every attribute completes, only the weights are lost.
            kill_after_step={"beta": "job:send_encrypted[beta]"},
            tolerate_killed={"beta"},
            restart_killed=False,
        )
        reports = supervisor.run()
        assert reports["beta"] is None
        tp = reports["TP"]
        assert tp["unreachable"] == ["beta"]
        assert tp["completed_attributes"] == ["age", "job"]
        # Construction finished before the kill, so the degraded result
        # equals the fault-free reference (only beta's weights are lost,
        # and weights default to equal).
        payload = ref_result.to_payload()
        assert tp["result"] == payload
        assert reports["alpha"]["result"] == payload

    def test_failed_run_leaves_no_party_alive(self, tmp_path, process_tag):
        """``run`` raising on a SIGKILL it may not restart takes the
        launcher and the surviving parties (which would wait for the
        dead one until ``dead_after``) down with it."""
        spec = encode_spec(
            _config(),
            SCHEMA,
            ROWS,
            unix_addresses(PARTIES, str(tmp_path)),
            transport={"dead_after": 60.0},
        )
        supervisor = ClusterSupervisor(
            _write_spec(tmp_path, spec),
            str(tmp_path),
            kill_after_step={"beta": "age:send_local[beta]"},
            restart_killed=False,
        )
        with pytest.raises(ConfigurationError, match="'beta' exited with code -9"):
            supervisor.run()
        assert _tagged(process_tag) == set()

    def test_parties_die_with_their_supervisor(self, tmp_path, process_tag):
        """A SIGKILLed supervisor leaves nothing running: its launcher
        sees EOF, kills and reaps its parties, and exits, within 2 s."""
        spec = encode_spec(
            _config(),
            SCHEMA,
            ROWS,
            unix_addresses(PARTIES, str(tmp_path)),
            transport={"dead_after": 60.0},
        )
        # beta dies for good and alpha and TP wait for it: the session
        # stalls for the reconnect budget, long after the kill below.
        script = (
            "import sys; from repro.apps.cluster import ClusterSupervisor; "
            "ClusterSupervisor(sys.argv[1], sys.argv[2], "
            "kill_after_step={'beta': 'age:send_local[beta]'}, "
            "tolerate_killed={'beta'}, restart_killed=False).run()"
        )
        src = str(Path(sys.modules["repro"].__file__).resolve().parents[1])
        supervisor = subprocess.Popen(
            [sys.executable, "-c", script, _write_spec(tmp_path, spec), str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src),
        )
        try:
            started = time.monotonic()
            # The launcher and at least two of its parties.
            while len(_tagged(process_tag) - {supervisor.pid}) < 3:
                assert supervisor.poll() is None, "the supervisor ended early"
                assert time.monotonic() - started < 60.0, "the parties never started"
                time.sleep(0.01)
        finally:
            supervisor.kill()
            supervisor.wait()
        killed = time.monotonic()
        while _tagged(process_tag) and time.monotonic() - killed < 2.0:
            time.sleep(0.01)
        assert _tagged(process_tag) == set()

    def test_parties_die_with_their_launcher(self, tmp_path, process_tag, monkeypatch):
        """A SIGKILLed launcher cannot kill its parties; the kernel does,
        within 2 s, and ``run`` reports that the launcher exited."""
        spec = encode_spec(
            _config(),
            SCHEMA,
            ROWS,
            unix_addresses(PARTIES, str(tmp_path)),
            transport={"dead_after": 60.0},
        )
        launchers = []
        start_launcher = ClusterSupervisor._start_launcher

        def recording(self, stdin):
            launchers.append(start_launcher(self, stdin))
            return launchers[-1]

        monkeypatch.setattr(ClusterSupervisor, "_start_launcher", recording)
        # As above, alpha and TP wait for the dead beta long after the kill.
        supervisor = ClusterSupervisor(
            _write_spec(tmp_path, spec),
            str(tmp_path),
            kill_after_step={"beta": "age:send_local[beta]"},
            tolerate_killed={"beta"},
            restart_killed=False,
        )
        errors = []

        def run():
            try:
                supervisor.run()
            except ConfigurationError as exc:
                errors.append(str(exc))

        thread = threading.Thread(target=run)
        thread.start()
        try:
            started = time.monotonic()
            # The launcher and at least two of its parties.
            while len(_tagged(process_tag)) < 3:
                assert thread.is_alive(), "the supervisor ended early"
                assert time.monotonic() - started < 60.0, "the parties never started"
                time.sleep(0.01)
        finally:
            launchers[0].kill()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert len(errors) == 1 and "the party launcher exited" in errors[0]
        killed = time.monotonic()
        while _tagged(process_tag) and time.monotonic() - killed < 2.0:
            time.sleep(0.01)
        assert _tagged(process_tag) == set()

    def test_demo_cli_runs_end_to_end(self, tmp_path, capsys, monkeypatch):
        launched, threads = _watch_launches(monkeypatch)
        assert (
            cluster_main(["demo", "--workdir", str(tmp_path), "--timeout", "120"])
            == 0
        )
        out = capsys.readouterr().out
        assert "clusters:" in out
        assert len(launched) == 1
        assert threads == [1]

    def test_demo_spec_is_deterministic(self, tmp_path):
        assert demo_spec(str(tmp_path)) == demo_spec(str(tmp_path))


# -- structured snapshot errors ----------------------------------------------


def _service():
    return ClusteringService(_config(), _partitions())


@functools.lru_cache(maxsize=None)
def _snapshot_blob() -> bytes:
    return _service().snapshot()


_SECTIONS = (
    "epoch",
    "sites",
    "holder_rows",
    "third_party",
    "group_keys",
    "channel_entropy",
    "holder_entropy",
)
#: Replacement values.
_JUNK = st.one_of(
    st.integers(min_value=-3, max_value=2**62),
    st.text(alphabet=string.ascii_letters + "|", max_size=4),
    st.lists(st.integers(min_value=-3, max_value=2**62), max_size=3),
)


class TestSnapshotErrors:
    def test_truncated_blob(self):
        blob = _service().snapshot()
        with pytest.raises(SnapshotError, match="truncated or corrupted"):
            ClusteringService.restore(_config(), SCHEMA, blob[: len(blob) // 2])

    def test_corrupted_blob(self):
        blob = bytearray(_service().snapshot())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(SnapshotError):
            ClusteringService.restore(_config(), SCHEMA, bytes(blob))

    def test_wrong_format_version(self):
        with pytest.raises(SnapshotError, match="unsupported snapshot format"):
            ClusteringService.restore(
                _config(), SCHEMA, serialize({"format": SNAPSHOT_FORMAT + 1})
            )

    def test_non_dict_blob(self):
        with pytest.raises(SnapshotError, match="must decode to a dict"):
            ClusteringService.restore(_config(), SCHEMA, serialize([1, 2]))

    def test_missing_sections(self):
        state = deserialize(_service().snapshot())
        del state["holder_entropy"]
        with pytest.raises(SnapshotError, match="holder_entropy"):
            ClusteringService.restore(_config(), SCHEMA, serialize(state))

    def test_sites_and_rows_disagree(self):
        state = deserialize(_service().snapshot())
        state["holder_rows"]["gamma"] = [[1, "x"]]
        with pytest.raises(SnapshotError, match="disagree on the consortium"):
            ClusteringService.restore(_config(), SCHEMA, serialize(state))

    def test_mismatched_schema(self):
        blob = _service().snapshot()
        other = Schema([AttributeSpec("age", AttributeType.NUMERIC)])
        with pytest.raises(SnapshotError, match="different session config"):
            ClusteringService.restore(_config(), other, blob)

    def test_row_count_disagreement(self):
        state = deserialize(_service().snapshot())
        state["sites"]["alpha"] = 99
        with pytest.raises(SnapshotError, match="disagree with its recorded size"):
            ClusteringService.restore(_config(), SCHEMA, serialize(state))

    @settings(max_examples=80, deadline=None)
    @given(section=st.sampled_from(_SECTIONS), data=st.data())
    def test_mistyped_section_raises_only_snapshot_error(self, section, data):
        state = deserialize(_snapshot_blob())
        keys = sorted(state[section]) if isinstance(state[section], dict) else []
        unknown = st.text(alphabet=string.ascii_letters + "|", max_size=4).filter(
            lambda key: key not in keys
        )
        state[section] = data.draw(
            st.one_of(
                _JUNK,
                st.dictionaries(unknown, _JUNK, min_size=1, max_size=2),
                st.fixed_dictionaries({key: _JUNK for key in keys}),
            )
        )
        try:
            ClusteringService.restore(_config(), SCHEMA, serialize(state))
        except SnapshotError:
            pass

    @pytest.mark.parametrize(
        "section, value",
        [
            ("sites", 5),
            ("channel_entropy", 7),
            ("channel_entropy", {"alpha|TP": "zz"}),
            ("channel_entropy", {"alpha|Q": 3}),
            ("holder_entropy", {"Z": 3}),
            ("group_keys", {"Z": b"k"}),
            ("third_party", 3),
            ("epoch", "x"),
        ],
    )
    def test_mistyped_section_is_named(self, section, value):
        state = deserialize(_snapshot_blob())
        state[section] = value
        with pytest.raises(SnapshotError, match=section):
            ClusteringService.restore(_config(), SCHEMA, serialize(state))

    def test_snapshot_error_is_a_configuration_error(self):
        # Pre-existing callers that catch ConfigurationError keep working.
        assert issubclass(SnapshotError, ConfigurationError)
