"""The pipelined construction scheduler and the session batch runner.

Pins the scheduler's two core guarantees -- (1) the ``sequential``
policy replays the seed's exact choreography, and (2) the ``parallel``
policy reorders steps while changing no protocol message, no byte count
and no result -- plus the graph check and lane receives that make every
admissible order safe, and the :class:`repro.apps.sessions.SessionBatch`
setup amortisation.
"""

from __future__ import annotations

import threading

import pytest

from repro.apps.sessions import SessionBatch
from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.scheduler import (
    SCHEDULE_POLICIES,
    ConstructionOutcome,
    ConstructionScheduler,
    Step,
    _ParallelRun,
)
from repro.core.session import ClusteringSession
from repro.data.alphabet import DNA_ALPHABET
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.exceptions import (
    ConfigurationError,
    LaneTimeoutError,
    PartyCrashError,
    ProtocolError,
    SchedulerStallError,
)
from repro.network.channel import Eavesdropper
from repro.types import AttributeType

SCHEMA = [
    AttributeSpec("num", AttributeType.NUMERIC, precision=0),
    AttributeSpec("seq", AttributeType.ALPHANUMERIC, alphabet=DNA_ALPHABET),
    AttributeSpec("cat", AttributeType.CATEGORICAL),
]


def _partitions(num_sites: int = 3):
    rows = [[i, "ACGT" if i % 2 else "TTGT", f"c{i % 3}"] for i in range(num_sites * 2)]
    return {
        chr(ord("A") + s): DataMatrix(SCHEMA, rows[2 * s : 2 * s + 2])
        for s in range(num_sites)
    }


def _tapped_session(schedule: str, secure: bool = False, num_sites: int = 3):
    suite = ProtocolSuiteConfig(
        secure_channels=secure, construction_schedule=schedule
    )
    partitions = _partitions(num_sites)
    session = ClusteringSession(
        SessionConfig(num_clusters=2, master_seed=3, suite=suite), partitions
    )
    taps = {}
    names = sorted(partitions) + ["TP"]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            tap = Eavesdropper(f"{a}|{b}")
            session.network.attach_tap(a, b, tap)
            taps[(a, b)] = tap
    return session, taps


class TestPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolSuiteConfig(construction_schedule="chaotic")

    def test_scheduler_rejects_unknown_policy(self):
        session, _ = _tapped_session("sequential")
        with pytest.raises(ConfigurationError):
            ConstructionScheduler(session.holders, session.third_party, policy="nope")

    def test_policies_registry(self):
        assert SCHEDULE_POLICIES == ("sequential", "parallel")

    def test_interleaved_policy_is_gone(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ProtocolSuiteConfig(construction_schedule="interleaved")
        assert "'sequential'" in str(excinfo.value)
        assert "'parallel'" in str(excinfo.value)

    def test_scheduler_rejects_interleaved_policy(self):
        session, _ = _tapped_session("sequential")
        with pytest.raises(ConfigurationError) as excinfo:
            ConstructionScheduler(
                session.holders, session.third_party, policy="interleaved"
            )
        assert "'sequential'" in str(excinfo.value)
        assert "'parallel'" in str(excinfo.value)

    def test_scheduler_rejects_bad_worker_count(self):
        session, _ = _tapped_session("sequential")
        with pytest.raises(ConfigurationError):
            ConstructionScheduler(
                session.holders, session.third_party, policy="parallel", max_workers=0
            )
        with pytest.raises(ConfigurationError):
            SessionConfig(num_clusters=2, max_workers=0)

    def test_holder_site_mismatch_rejected(self):
        session, _ = _tapped_session("sequential")
        holders = dict(session.holders)
        holders.pop(next(iter(holders)))
        with pytest.raises(ProtocolError):
            ConstructionScheduler(holders, session.third_party)


class TestSequentialReplaysSeed:
    def test_global_frame_order_is_seed_order(self):
        """The sequential schedule reproduces the seed's who-sends-what-when
        (the same choreography test_transcript pins in detail)."""
        suite = ProtocolSuiteConfig(secure_channels=False)
        partitions = _partitions(2)
        session = ClusteringSession(
            SessionConfig(num_clusters=2, master_seed=3, suite=suite), partitions
        )
        shared = Eavesdropper("global")
        names = sorted(partitions) + ["TP"]
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                session.network.attach_tap(a, b, shared)
        session.run()
        kinds = [f.kind for f in shared.frames]
        assert kinds == [
            "group_key",
            "local_matrix", "local_matrix", "masked_vector", "comparison_matrix",
            "local_matrix", "local_matrix", "masked_strings", "ccm_matrices",
            "encrypted_column", "encrypted_column",
            "weights", "weights",
            "result", "result",
        ]

    def test_sequential_trace_is_attribute_major(self):
        session, _ = _tapped_session("sequential")
        session.run()
        trace = session.construction_trace
        num_steps = [i for i, name in enumerate(trace) if name.startswith("num:")]
        seq_steps = [i for i, name in enumerate(trace) if name.startswith("seq:")]
        assert max(num_steps) < min(seq_steps)


class TestParallelEquivalence:
    def test_results_and_stats_match_sequential(self):
        seq_session, _ = _tapped_session("sequential", secure=True)
        seq_result = seq_session.run()
        par_session, _ = _tapped_session("parallel", secure=True)
        par_result = par_session.run()

        assert seq_result.to_payload() == par_result.to_payload()
        assert (
            seq_session.final_matrix().condensed.tolist()
            == par_session.final_matrix().condensed.tolist()
        )
        assert seq_session.total_bytes() == par_session.total_bytes()
        assert seq_session.network.ledger() == par_session.network.ledger()

    def test_insecure_frames_identical_up_to_order(self):
        """Without sealing, frames are raw payload bytes: reordering is
        the *only* difference the scheduler may introduce."""
        seq_session, seq_taps = _tapped_session("sequential", secure=False)
        seq_session.run()
        par_session, par_taps = _tapped_session("parallel", secure=False)
        par_session.run()
        for link in seq_taps:
            seq_frames = sorted(
                (f.sender, f.recipient, f.kind, f.wire) for f in seq_taps[link].frames
            )
            par_frames = sorted(
                (f.sender, f.recipient, f.kind, f.wire) for f in par_taps[link].frames
            )
            assert seq_frames == par_frames, f"payload bytes changed on {link}"


class TestQueueGating:
    def test_deadlock_reported_not_misdelivered(self):
        """A receive step whose message was never sent fails loudly with
        the transport's error, and takes nothing from the queue."""
        session, _ = _tapped_session("sequential")
        network = session.network
        network.send("A", "TP", "probe", 1, tag="num")
        scheduler = ConstructionScheduler(session.holders, session.third_party)
        scheduler._steps.append(
            Step(
                name="ghost",
                run=lambda: session.third_party.receive("never_sent", "A", tag="num"),
                order=(0,),
            )
        )
        with pytest.raises(ProtocolError, match="no pending 'never_sent' from 'A'"):
            scheduler.run()
        assert network.pending("TP") == 1
        assert network.receive("TP", "probe", "A", tag="num").payload == 1

    def test_duplicate_step_rejected(self):
        session, _ = _tapped_session("sequential")
        scheduler = ConstructionScheduler(session.holders, session.third_party)
        scheduler.add_attribute(SCHEMA[0])
        with pytest.raises(ProtocolError, match="duplicate"):
            scheduler.add_attribute(SCHEMA[0])


@pytest.mark.parametrize("policy", SCHEDULE_POLICIES)
class TestGraphCheck:
    """One check under both policies, before any step runs: every
    dependency names a step registered before its dependent."""

    def _run(self, policy, steps):
        session, _ = _tapped_session(policy)
        scheduler = ConstructionScheduler(
            session.holders, session.third_party, policy=policy
        )
        scheduler._steps.extend(steps)
        return scheduler.run()

    def test_cycle_rejected(self, policy):
        ran = []
        steps = [
            Step(name="a", run=lambda: ran.append("a"), deps=("b",), order=(0,)),
            Step(name="b", run=lambda: ran.append("b"), deps=("a",), order=(1,)),
        ]
        with pytest.raises(ProtocolError, match="depends on unknown steps"):
            self._run(policy, steps)
        assert ran == []

    def test_unknown_dependency_rejected(self, policy):
        steps = [Step(name="a", run=lambda: None, deps=("ghost",), order=(0,))]
        with pytest.raises(ProtocolError, match="ghost"):
            self._run(policy, steps)


class TestSessionBatch:
    def test_transcripts_byte_identical_to_standalone(self):
        partitions = _partitions()
        config = SessionConfig(num_clusters=2, master_seed=3)
        standalone = ClusteringSession(config, partitions)
        shared_standalone = Eavesdropper("s")
        names = sorted(partitions) + ["TP"]
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                standalone.network.attach_tap(a, b, shared_standalone)
        standalone_result = standalone.run()

        batch = SessionBatch(config, sorted(partitions))
        batched = batch.session(partitions)
        shared_batched = Eavesdropper("b")
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                batched.network.attach_tap(a, b, shared_batched)
        batched_result = batched.run()

        assert standalone_result.to_payload() == batched_result.to_payload()
        assert [f.wire for f in shared_standalone.frames] == [
            f.wire for f in shared_batched.frames
        ]

    def test_run_many(self):
        batch = SessionBatch(SessionConfig(num_clusters=2, master_seed=9), ["A", "B", "C"])
        results = batch.run_many([_partitions(), _partitions()])
        assert len(results) == 2
        assert results[0].to_payload() == results[1].to_payload()

    def test_run_many_parallel_matches_run_many(self):
        """Concurrent whole-session serving returns bit-identical results
        in input order, for any worker count."""
        batch = SessionBatch(SessionConfig(num_clusters=2, master_seed=9), ["A", "B", "C"])
        datasets = []
        for shift in range(4):
            rows = [
                [100 if i == shift else i, "ACGT" if (i + shift) % 2 else "TTGT",
                 f"c{(i + shift) % 3}"]
                for i in range(6)
            ]
            datasets.append(
                {
                    chr(ord("A") + s): DataMatrix(SCHEMA, rows[2 * s : 2 * s + 2])
                    for s in range(3)
                }
            )
        reference = [r.to_payload() for r in batch.run_many(datasets)]
        assert len({str(p) for p in reference}) > 1, "datasets should differ"
        for workers in (1, 4):
            parallel = batch.run_many_parallel(datasets, max_workers=workers)
            assert [r.to_payload() for r in parallel] == reference

    def test_run_many_parallel_edge_cases(self):
        batch = SessionBatch(SessionConfig(num_clusters=2, master_seed=9), ["A", "B", "C"])
        assert batch.run_many_parallel([]) == []
        with pytest.raises(ConfigurationError):
            batch.run_many_parallel([_partitions()], max_workers=0)
        with pytest.raises(ConfigurationError):
            batch.run_many_parallel([{"A": _partitions()["A"]}])

    def test_validation(self):
        config = SessionConfig(num_clusters=2)
        with pytest.raises(ConfigurationError):
            SessionBatch(config, ["A"])
        with pytest.raises(ConfigurationError):
            SessionBatch(config, ["A", "A"])
        with pytest.raises(ConfigurationError):
            SessionBatch(config, ["A", "TP"])
        batch = SessionBatch(config, ["A", "B"])
        with pytest.raises(ConfigurationError):
            batch.session({"A": _partitions()["A"], "C": _partitions()["C"]})

    def test_session_rejects_wrong_secret_pairs(self):
        config = SessionConfig(num_clusters=2)
        batch = SessionBatch(config, ["A", "B"])
        partitions = {k: v for k, v in _partitions().items() if k in ("A", "B")}
        with pytest.raises(ConfigurationError, match="shared_secrets"):
            ClusteringSession(
                config,
                partitions,
                shared_secrets={("A", "B"): batch._secrets[("A", "B")]},
            )


def _synthetic(name, run=None, deps=(), order=(0,)):
    return Step(name=name, run=run or (lambda: None), deps=deps, order=order)


class TestFailurePropagation:
    """A failed step dooms exactly its dependents -- nothing else."""

    def _crash(self):
        raise PartyCrashError("B")

    def test_serial_tolerant_cancels_dependents(self):
        session, _ = _tapped_session("sequential")
        scheduler = ConstructionScheduler(
            session.holders, session.third_party, tolerate_faults=True
        )
        scheduler._steps.extend(
            [
                _synthetic("lost:fail", run=self._crash, order=(0,)),
                _synthetic("lost:child", deps=("lost:fail",), order=(1,)),
                _synthetic("lost:grandchild", deps=("lost:child",), order=(2,)),
                _synthetic("kept:ok", order=(3,)),
            ]
        )
        scheduler._names.update(s.name for s in scheduler._steps)
        outcome = scheduler.run()
        assert isinstance(outcome, ConstructionOutcome)
        assert outcome.degraded
        assert list(outcome.trace) == ["kept:ok"]
        assert dict(outcome.report.failed_steps) == {
            "lost:fail": "PartyCrashError: party 'B' has crashed"
        }
        assert set(outcome.report.cancelled_steps) == {
            "lost:child", "lost:grandchild"
        }
        assert outcome.report.failed_attributes == ("lost",)
        assert outcome.report.completed_attributes == ("kept",)
        assert "lost" in outcome.report.summary()

    def test_serial_non_fault_error_still_aborts(self):
        session, _ = _tapped_session("sequential")
        scheduler = ConstructionScheduler(
            session.holders, session.third_party, tolerate_faults=True
        )

        def boom():
            raise ValueError("wrong matrix shape")

        scheduler._steps.append(_synthetic("a:bad", run=boom))
        with pytest.raises(ValueError, match="wrong matrix shape"):
            scheduler.run()

    def test_parallel_tolerant_accounts_for_every_step(self):
        """trace + failed + cancelled partition the graph exactly."""
        steps = [
            _synthetic("lost:fail", run=self._crash, order=(0,)),
            _synthetic("lost:child", deps=("lost:fail",), order=(1,)),
            _synthetic("kept:a", order=(2,)),
            _synthetic("kept:b", deps=("kept:a",), order=(3,)),
        ]
        run = _ParallelRun(steps, max_workers=2, tolerate_faults=True)
        trace, failed, cancelled = run.run()
        assert sorted(trace) == ["kept:a", "kept:b"]
        assert set(failed) == {"lost:fail"}
        assert "PartyCrashError" in failed["lost:fail"]
        assert cancelled == ("lost:child",)
        assert len(trace) + len(failed) + len(cancelled) == len(steps)

    def test_parallel_intolerant_preserves_original_exception(self):
        marker = LaneTimeoutError("A", "B", "blob", "t", attempts=3, reason="gone")
        def boom():
            raise marker
        run = _ParallelRun([_synthetic("a:bad", run=boom)], max_workers=2)
        with pytest.raises(LaneTimeoutError) as exc:
            run.run()
        assert exc.value is marker
        assert exc.value.attempts == 3

    def test_parallel_tolerant_run_via_session_stays_clean(self):
        """tolerate_faults on a fault-free parallel run degrades nothing
        and returns the same result as the plain run."""
        suite = ProtocolSuiteConfig(
            construction_schedule="parallel", tolerate_faults=True
        )
        partitions = _partitions()
        session = ClusteringSession(
            SessionConfig(num_clusters=2, master_seed=3, suite=suite), partitions
        )
        result = session.run()
        assert not session.degraded
        assert session.degraded_report is not None
        assert not session.degraded_report.degraded
        baseline, _ = _tapped_session("sequential")
        assert result.to_payload() == baseline.run().to_payload()


class TestWatchdog:
    def test_watchdog_validation(self):
        session, _ = _tapped_session("sequential")
        with pytest.raises(ConfigurationError):
            ConstructionScheduler(
                session.holders, session.third_party, watchdog_timeout=0
            )
        with pytest.raises(ConfigurationError):
            SessionConfig(num_clusters=2, watchdog_timeout=-1.0)

    def test_watchdog_off_by_default(self):
        assert SessionConfig(num_clusters=2).watchdog_timeout is None

    def test_watchdog_reports_stall_with_pending_steps(self):
        """A wedged worker turns into a stall report, not a silent hang."""
        release = threading.Event()
        steps = [
            _synthetic("a:wedged", run=release.wait, order=(0,)),
            _synthetic("a:after", deps=("a:wedged",), order=(1,)),
        ]
        run = _ParallelRun([*steps], max_workers=2, watchdog_timeout=0.05)
        try:
            with pytest.raises(SchedulerStallError) as exc:
                run.run()
        finally:
            release.set()
        detail = str(exc.value)
        assert "a:after" in detail and "a:wedged" in detail
        assert "no progress" in detail

    def test_watchdog_does_not_fire_while_progressing(self):
        """Steps finishing within the window keep the watchdog quiet even
        when the whole run takes much longer than the timeout."""
        suite = ProtocolSuiteConfig(construction_schedule="parallel")
        partitions = _partitions()
        session = ClusteringSession(
            SessionConfig(
                num_clusters=2, master_seed=3, suite=suite, watchdog_timeout=30.0
            ),
            partitions,
        )
        result = session.run()
        baseline, _ = _tapped_session("sequential")
        assert result.to_payload() == baseline.run().to_payload()
