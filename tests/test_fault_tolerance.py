"""Fault injection, reliable delivery, degradation and checkpoint/resume.

The contract under test, end to end: for any *maskable* seeded fault
schedule (rates the retry budget can absorb, transient outages), the
session's results -- per-attribute matrices, merged matrix, dendrogram,
medoids, published payloads -- are **bit-identical** to the fault-free
run; only wire-byte totals and nonce-to-frame assignment may move.
Unmaskable faults (permanent crashes, dead lanes) degrade into precise
reports instead of wrong answers.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.service import SNAPSHOT_FORMAT, ClusteringService
from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.session import CHAOS_PRESET_ENV, ClusteringSession
from repro.data.alphabet import DNA_ALPHABET
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.exceptions import (
    ChannelError,
    ConfigurationError,
    LaneTimeoutError,
    PartyCrashError,
    ProtocolError,
)
from repro.network.faults import (
    PRESETS,
    CrashEvent,
    FaultPlan,
    FaultRule,
)
from repro.network.retry import RetryPolicy
from repro.network.serialization import serialize
from repro.network.simulator import Network
from repro.types import AttributeType

SCHEMA = [
    AttributeSpec("num", AttributeType.NUMERIC, precision=0),
    AttributeSpec("dna", AttributeType.ALPHANUMERIC, alphabet=DNA_ALPHABET),
    AttributeSpec("city", AttributeType.CATEGORICAL),
]


def _partitions(num_sites: int = 3):
    rows = [[i, "ACGT" if i % 2 else "TTGT", f"c{i % 3}"] for i in range(num_sites * 2)]
    return {
        chr(ord("A") + s): DataMatrix(SCHEMA, rows[2 * s : 2 * s + 2])
        for s in range(num_sites)
    }


def _session(
    schedule: str = "sequential",
    fault_plan: FaultPlan | None = None,
    tolerate: bool = False,
    workers: int = 2,
    master_seed: int = 3,
):
    suite = ProtocolSuiteConfig(
        construction_schedule=schedule, tolerate_faults=tolerate
    )
    config = SessionConfig(
        num_clusters=2, master_seed=master_seed, max_workers=workers, suite=suite
    )
    return ClusteringSession(config, _partitions(), fault_plan=fault_plan)


def _fingerprint(session: ClusteringSession, result) -> tuple:
    return (
        str(result.to_payload()),
        session.final_matrix().condensed.tolist(),
        {
            spec.name: session.third_party.attribute_matrix(spec.name).condensed.tolist()
            for spec in SCHEMA
        },
    )


@pytest.fixture(scope="module")
def clean_fingerprint():
    session = _session()
    return _fingerprint(session, session.run())


# -- fault plan unit behaviour ----------------------------------------------


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, drop=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, script={("A", "B", "k"): ("explode",)})
        with pytest.raises(ConfigurationError):
            FaultRule(corrupt=-0.1)
        with pytest.raises(ConfigurationError):
            CrashEvent("A", after_frames=-1)
        with pytest.raises(ConfigurationError):
            CrashEvent("A", after_frames=0, down_for=0)
        with pytest.raises(ConfigurationError):
            FaultPlan.preset("tsunami", seed=1)
        assert set(PRESETS) == {"lossy", "crashy"}

    def test_scripts_reject_a_delay_count(self):
        with pytest.raises(ConfigurationError, match="delay:2"):
            FaultPlan(seed=1, script={("A", "B", "k"): ("delay:2",)})
        assert FaultPlan(seed=1, script={("A", "B", "k"): ("delay",)}).decide(
            "A", "B", "k", "t"
        ).delayed

    def test_same_seed_same_decisions(self):
        """A plan is a pure function of (seed, lane, frame ordinal)."""
        make = lambda: FaultPlan(seed=77, drop=0.3, duplicate=0.3, corrupt=0.3, delay=0.3)
        first, second = make(), make()
        lanes = [("A", "B", "k", "t"), ("B", "A", "k", "t"), ("A", "B", "other", "")]
        # Consume the two plans in different global orders (round-robin
        # vs lane-major): per-lane streams make the n-th frame of a lane
        # independent of how other lanes interleave with it.
        round_robin: dict[tuple, list] = {lane: [] for lane in lanes}
        for _ in range(10):
            for lane in lanes:
                round_robin[lane].append(first.decide(*lane))
        lane_major = {
            lane: [second.decide(*lane) for _ in range(10)] for lane in lanes
        }
        assert round_robin == lane_major

    def test_script_consumed_in_order_then_rates(self):
        plan = FaultPlan(seed=1, script={("A", "B", "k"): ("drop", "duplicate")})
        first = plan.decide("A", "B", "k", "t")
        second = plan.decide("A", "B", "k", "t")
        third = plan.decide("A", "B", "k", "t")
        assert not first.deliver
        assert second.duplicate and second.deliver
        assert third.deliver and not third.duplicate  # rates are all zero

    def test_scripts_do_not_touch_other_lanes(self):
        plan = FaultPlan(seed=1, script={("A", "B", "k"): ("drop",)})
        other = plan.decide("A", "C", "k", "t")
        assert other.deliver and not other.corrupt

    def test_retransmissions_clean_unless_opted_in(self):
        lossy = FaultPlan(seed=1, drop=1.0)
        assert not lossy.decide("A", "B", "k", "t").deliver
        assert lossy.decide("A", "B", "k", "t", retransmission=True).deliver
        relentless = FaultPlan(seed=1, drop=1.0, fault_retransmits=True)
        assert not relentless.decide("A", "B", "k", "t", retransmission=True).deliver

    def test_rules_override_defaults_first_match_wins(self):
        plan = FaultPlan(
            seed=1,
            drop=1.0,
            rules=(
                FaultRule(sender="A", recipient="B", kind="k", drop=0.0),
                FaultRule(sender="A", drop=1.0),
            ),
        )
        assert plan.decide("A", "B", "k", "t").deliver
        assert not plan.decide("A", "B", "other", "t").deliver

    def test_corrupt_rate_one_corrupts_and_delivers_every_frame(self):
        plan = FaultPlan(seed=1, corrupt=1.0)
        for _ in range(20):
            decision = plan.decide("A", "B", "k", "t")
            assert decision.corrupt and decision.deliver

    def test_transient_crash_absorbs_then_recovers(self):
        plan = FaultPlan(seed=1, crashes=(CrashEvent("B", after_frames=1, down_for=2),))
        outcomes = [plan.absorb_frame_to("B") for _ in range(6)]
        # Frame 1 delivered; frames 2-3 lost to the outage; recovered after.
        assert outcomes == [False, True, True, False, False, False]
        assert not plan.permanently_down("B")
        assert plan.crashed_parties() == []

    def test_permanent_crash(self):
        plan = FaultPlan(seed=1, crashes=(CrashEvent("B", after_frames=0),))
        assert plan.absorb_frame_to("B") is True
        assert plan.permanently_down("B")
        assert plan.crashed_parties() == ["B"]
        assert not plan.permanently_down("A")

    def test_crashy_preset_is_reproducible(self):
        first = FaultPlan.preset("crashy", seed=9, parties=("A", "B"))
        second = FaultPlan.preset("crashy", seed=9, parties=("A", "B"))
        lane = ("A", "B", "k", "t")
        assert [first.decide(*lane) for _ in range(20)] == [
            second.decide(*lane) for _ in range(20)
        ]


# -- reliable delivery shim --------------------------------------------------


def _reliable_net(script=None, retry=None, **plan_kw):
    plan = FaultPlan(seed=1, script=script, **plan_kw)
    net = Network(fault_plan=plan, retry=retry or RetryPolicy(max_attempts=4))
    for party in ("A", "B"):
        net.add_party(party)
    net.connect("A", "B", secure=False)
    return net


class TestReliableDelivery:
    def test_corruption_detected_and_retransmitted(self):
        net = _reliable_net(script={("A", "B", "blob"): ("corrupt",)})
        net.send("A", "B", "blob", {"v": 1}, tag="t")
        assert net.receive("B", kind="blob", sender="A", tag="t").payload == {"v": 1}
        stats = net.reliability_stats()
        assert stats["corrupt_detected"] == 1 and stats["retransmits"] == 1

    def test_duplicate_suppressed_fifo_preserved(self):
        net = _reliable_net(script={("A", "B", "blob"): ("duplicate", "pass")})
        net.send("A", "B", "blob", 1, tag="t")
        net.send("A", "B", "blob", 2, tag="t")
        assert net.receive("B", kind="blob", sender="A", tag="t").payload == 1
        assert net.receive("B", kind="blob", sender="A", tag="t").payload == 2
        net.assert_drained()
        assert net.reliability_stats()["duplicates_suppressed"] == 1

    def test_drop_masked_by_retransmit(self):
        net = _reliable_net(script={("A", "B", "blob"): ("drop",)})
        net.send("A", "B", "blob", 5, tag="t")
        assert net.receive("B", kind="blob", sender="A", tag="t").payload == 5
        assert net.reliability_stats()["retransmits"] == 1

    def test_delay_delivered_and_counted(self):
        net = _reliable_net(script={("A", "B", "blob"): ("delay",)})
        net.send("A", "B", "blob", 5, tag="t")
        assert net.receive("B", kind="blob", sender="A", tag="t").payload == 5
        assert net.reliability_stats()["delayed_deliveries"] == 1

    def test_timeout_is_structured(self):
        net = _reliable_net(drop=1.0, fault_retransmits=True)
        net.send("A", "B", "blob", 1, tag="t")
        with pytest.raises(LaneTimeoutError) as exc:
            net.receive("B", kind="blob", sender="A", tag="t")
        error = exc.value
        assert (error.sender, error.recipient, error.kind, error.tag) == (
            "A", "B", "blob", "t"
        )
        assert error.attempts == 4
        assert isinstance(error, TimeoutError)
        assert "A->B" in str(error) and "4 attempt(s)" in str(error)

    def test_deadline_expires(self):
        net = _reliable_net(
            drop=1.0,
            fault_retransmits=True,
            retry=RetryPolicy(max_attempts=1000, deadline=0.05),
        )
        net.send("A", "B", "blob", 1, tag="t")
        with pytest.raises(LaneTimeoutError):
            net.receive("B", kind="blob", sender="A", tag="t")

    def test_legacy_network_unchanged(self):
        net = Network()
        for party in ("A", "B"):
            net.add_party(party)
        net.connect("A", "B", secure=False)
        net.send("A", "B", "blob", 1)
        assert net.receive("B").payload == 1
        with pytest.raises(ProtocolError):
            net.receive("B")

    def test_tag_requires_kind_and_sender(self):
        net = _reliable_net()
        with pytest.raises(ChannelError):
            net.receive("B", tag="t")

    def test_permanently_crashed_party_cannot_do_io(self):
        plan = FaultPlan(seed=2, crashes=(CrashEvent("B", after_frames=0),))
        net = Network(fault_plan=plan, retry=RetryPolicy(max_attempts=2))
        for party in ("A", "B"):
            net.add_party(party)
        net.connect("A", "B", secure=False)
        net.send("A", "B", "blob", 1, tag="t")  # absorbed; trips the crash
        with pytest.raises(PartyCrashError):
            net.receive("B", kind="blob", sender="A", tag="t")
        with pytest.raises(PartyCrashError):
            net.send("B", "A", "blob", 1)

    def test_drain_counts_discarded_frames(self):
        net = _reliable_net(script={("A", "B", "blob"): ("drop",)})
        net.send("A", "B", "blob", 1, tag="t")
        net.send("A", "B", "other", 2, tag="t2")
        assert net.drain("B") == 2
        net.assert_drained()


# -- recovery at send ----------------------------------------------------------


class TestRecoveryAtSend:
    def test_drop_is_retransmitted_inside_send(self):
        net = _reliable_net(script={("A", "B", "blob"): ("drop",)})
        net.send("A", "B", "blob", 5, tag="t")
        assert net.reliability_stats()["retransmits"] == 1
        assert net.pending("B") == 1

    def test_pending_ignores_a_suppressed_duplicate(self):
        net = _reliable_net(script={("A", "B", "blob"): ("duplicate",)})
        net.send("A", "B", "blob", 5, tag="t")
        assert net.pending("B") == 1
        assert net.reliability_stats()["duplicates_suppressed"] == 1

    def test_lost_frame_takes_only_itself(self):
        """Two runs' frames share a lane; losing the first leaves the
        second deliverable."""
        net = _reliable_net(
            script={("A", "B", "blob"): ("drop", "pass")},
            retry=RetryPolicy(max_attempts=1),
        )
        net.send("A", "B", "blob", "first", tag="t")
        net.send("A", "B", "blob", "second", tag="t")
        with pytest.raises(LaneTimeoutError) as exc:
            net.receive("B", kind="blob", sender="A", tag="t")
        assert exc.value.attempts == 1
        assert net.receive("B", kind="blob", sender="A", tag="t").payload == "second"
        net.assert_drained()
        assert net.reliability_stats()["frames_abandoned"] == 1

    def test_racing_receives_retransmit_each_frame_once(self):
        """Two receives racing on one lane: each dropped frame still
        costs exactly one retransmission."""
        net = _reliable_net(
            script={("A", "B", "blob"): ("drop", "drop")},
            retry=RetryPolicy(max_attempts=4, backoff_base=0.05),
        )
        net.send("A", "B", "blob", 1, tag="t")
        net.send("A", "B", "blob", 2, tag="t")
        barrier = threading.Barrier(2)
        received = []

        def receive():
            barrier.wait()
            received.append(net.receive("B", kind="blob", sender="A", tag="t").payload)

        threads = [threading.Thread(target=receive) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(received) == [1, 2]
        assert net.reliability_stats()["retransmits"] == 2
        # Two originals and two retransmissions of a one-int payload.
        assert net.total_bytes() == 4 * len(serialize(1))


# -- masked faults: bit-identical results ------------------------------------


class TestMaskedFaultDeterminism:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_presets_are_masked(self, preset, clean_fingerprint):
        plan = FaultPlan.preset(preset, seed=101, parties=("A", "B", "C"))
        session = _session(fault_plan=plan)
        assert _fingerprint(session, session.run()) == clean_fingerprint
        assert session.network.fault_plan is not None

    def test_same_plan_same_recovery_trace(self):
        stats = []
        for _ in range(2):
            plan = FaultPlan.preset("lossy", seed=55)
            session = _session(fault_plan=plan)
            session.run()
            stats.append(session.network.reliability_stats())
        assert stats[0] == stats[1]
        assert stats[0]["retransmits"] > 0

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        fault_seed=st.integers(min_value=0, max_value=2**32),
        schedule=st.sampled_from(["sequential", "parallel"]),
        workers=st.integers(min_value=1, max_value=3),
        preset=st.sampled_from(PRESETS),
    )
    def test_any_masked_schedule_any_policy(
        self, fault_seed, schedule, workers, preset, clean_fingerprint
    ):
        plan = FaultPlan.preset(preset, seed=fault_seed, parties=("A", "B", "C"))
        session = _session(schedule=schedule, fault_plan=plan, workers=workers)
        assert _fingerprint(session, session.run()) == clean_fingerprint


# -- recovery accounting -----------------------------------------------------

_RECOVERY = ("retransmits", "corrupt_detected", "delayed_deliveries", "duplicates_suppressed")


def _recovery(network: Network) -> tuple[int, ...]:
    stats = network.reliability_stats()
    assert stats["crash_losses"] == stats["frames_abandoned"] == 0
    return tuple(stats[name] for name in _RECOVERY)


class TestRecoveryAccounting:
    """Exact counts and wire bytes under the lossy preset: every faulted
    frame costs exactly one clean retransmission."""

    @pytest.mark.parametrize(
        "seed, wire_bytes, counts",
        [
            (55, 5148, (3, 1, 7, 1)),
            (101, 5445, (6, 3, 3, 0)),
            (2025, 5518, (6, 2, 2, 2)),
        ],
    )
    def test_lossy_session(self, seed, wire_bytes, counts):
        session = _session(fault_plan=FaultPlan.preset("lossy", seed=seed))
        session.run()
        assert _recovery(session.network) == counts
        assert session.total_bytes() == wire_bytes

    def test_lossy_parallel_ingest(self):
        suite = ProtocolSuiteConfig(construction_schedule="parallel")
        config = SessionConfig(num_clusters=2, master_seed=3, max_workers=2, suite=suite)
        service = ClusteringService(config, _partitions())
        network = service.session.network
        network.install_fault_plan(FaultPlan.preset("lossy", seed=77))
        service.ingest({"B": DataMatrix(SCHEMA, [[9, "ACGG", "c1"], [4, "TTGA", "c2"]])})
        assert _recovery(network) == (4, 2, 1, 0)
        assert network.total_bytes() == 7689

    @pytest.mark.parametrize("seed", [55, 101, 2025])
    def test_lossy_counts_do_not_depend_on_the_schedule(self, seed):
        # Byte totals can: which of a shared lane's blocks meets the
        # lane's n-th fate depends on the order the schedule sends them.
        def counts(schedule: str, workers: int) -> tuple[int, ...]:
            plan = FaultPlan.preset("lossy", seed=seed)
            session = _session(schedule=schedule, fault_plan=plan, workers=workers)
            session.run()
            return _recovery(session.network)

        sequential = counts("sequential", 2)
        for workers in (1, 2, 3, 4):
            assert counts("parallel", workers) == sequential


# -- unmaskable faults: precise degradation ----------------------------------


class TestDegradedConstruction:
    def _dead_lane_plan(self) -> FaultPlan:
        """Kill exactly the A->TP local-matrix lane, retransmits included."""
        return FaultPlan(
            seed=7,
            rules=(
                FaultRule(sender="A", recipient="TP", kind="local_matrix", drop=1.0),
            ),
            fault_retransmits=True,
        )

    @pytest.mark.parametrize("schedule", ["sequential", "parallel"])
    def test_dead_lane_loses_only_its_attributes(self, schedule):
        session = _session(schedule=schedule, fault_plan=self._dead_lane_plan(), tolerate=True)
        result = session.run()
        assert session.degraded
        report = session.degraded_report
        # Both matrix-shipping attributes route through the dead lane;
        # the categorical attribute uses encrypted columns and survives.
        assert report.failed_attributes == ("num", "dna")
        assert report.completed_attributes == ("city",)
        assert all(
            name.partition(":")[0] in ("num", "dna")
            for name, _ in report.failed_steps
        )
        assert any("LaneTimeoutError" in err for _, err in report.failed_steps)
        assert session.unreachable_sites == []
        # The published result is the real clustering of what completed.
        survivors = session.third_party.merged_matrix(attributes=["city"])
        assert session.final_matrix() == survivors
        assert result.to_payload()

    @pytest.mark.parametrize("schedule", ["sequential", "parallel"])
    def test_dead_shared_lane_loses_only_its_attribute(self, schedule):
        """C's numeric comparison lane into the TP carries both the A-C
        and the B-C block; losing both fails ``num`` alone."""
        plan = FaultPlan(
            seed=7,
            rules=(
                FaultRule(sender="C", recipient="TP", kind="comparison_matrix", drop=1.0),
            ),
            fault_retransmits=True,
        )
        session = _session(schedule=schedule, fault_plan=plan, tolerate=True)
        session.run()
        report = session.degraded_report
        assert report.failed_attributes == ("num",)
        assert report.completed_attributes == ("dna", "city")
        assert session.network.reliability_stats()["frames_abandoned"] == 2
        session.network.assert_drained()

    def test_intolerant_session_still_aborts(self):
        session = _session(fault_plan=self._dead_lane_plan(), tolerate=False)
        with pytest.raises(LaneTimeoutError):
            session.run()

    def test_permanent_crash_fails_every_attribute(self):
        """Every attribute has steps on every site, so a site dying
        mid-construction loses them all -- reported, not mis-clustered."""
        plan = FaultPlan(seed=7, crashes=(CrashEvent("C", after_frames=1),))
        session = _session(fault_plan=plan, tolerate=True)
        session.execute_protocol()
        assert session.degraded
        report = session.degraded_report
        assert report.completed_attributes == ()
        assert set(report.failed_attributes) == {"num", "dna", "city"}
        assert plan.crashed_parties() == ["C"]
        with pytest.raises(ProtocolError, match="no attributes selected"):
            session.third_party.merged_matrix(attributes=[])

    def test_unreachable_site_excluded_from_publication(self, clean_fingerprint):
        """A site whose weights lane dies is dropped from publication;
        the remaining holders still get the exact clean result."""
        plan = FaultPlan(
            seed=7,
            rules=(FaultRule(sender="C", recipient="TP", kind="weights", drop=1.0),),
            fault_retransmits=True,
        )
        session = _session(fault_plan=plan, tolerate=True)
        result = session.run()
        assert session.unreachable_sites == ["C"]
        assert session.degraded
        report = session.degraded_report
        assert not report.degraded  # construction itself was clean
        assert _fingerprint(session, result) == clean_fingerprint

    def test_degraded_report_summary_names_losses(self):
        session = _session(fault_plan=self._dead_lane_plan(), tolerate=True)
        session.execute_protocol()
        summary = session.degraded_report.summary()
        assert "num" in summary and "dna" in summary and "city" in summary

    def test_degraded_ingest_records_a_site_whose_result_lane_dies(self):
        """A service re-clusters exactly as a session publishes: after a
        degraded delta, a holder whose result lane dies is recorded as
        unreachable and the other holders still receive the result."""
        suite = ProtocolSuiteConfig(tolerate_faults=True)
        config = SessionConfig(num_clusters=2, master_seed=3, suite=suite)
        service = ClusteringService(config, _partitions())
        service.session.network.install_fault_plan(
            FaultPlan(
                seed=7,
                rules=(
                    FaultRule(
                        sender="A", recipient="TP", kind="local_matrix_delta", drop=1.0
                    ),
                    FaultRule(sender="TP", recipient="C", kind="result", drop=1.0),
                ),
                fault_retransmits=True,
            )
        )
        result = service.ingest(_arrivals())
        report = service.session.degraded_report
        assert report.failed_attributes == ("num", "dna")
        assert report.completed_attributes == ("city",)
        assert service.session.unreachable_sites == ["C"]
        assert result.to_payload()


# -- chaos preset environment hook -------------------------------------------


class TestChaosEnvHook:
    def test_env_preset_installs_plan_and_masks(self, monkeypatch, clean_fingerprint):
        monkeypatch.setenv(CHAOS_PRESET_ENV, "lossy")
        session = _session()
        assert session.network.fault_plan is not None
        assert _fingerprint(session, session.run()) == clean_fingerprint

    def test_explicit_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(CHAOS_PRESET_ENV, "lossy")
        plan = FaultPlan(seed=4)
        session = _session(fault_plan=plan)
        assert session.network.fault_plan is plan


# -- checkpoint / resume -----------------------------------------------------


def _arrivals():
    return {"A": DataMatrix(SCHEMA, [[9, "ACGG", "c1"]])}


class TestCheckpointResume:
    def test_restore_resumes_bit_identically(self):
        config = SessionConfig(num_clusters=2, master_seed=11)
        original = ClusteringService(config, _partitions())
        blob = original.snapshot()
        original.ingest(_arrivals())
        reference = original.matrix()
        reference_result = original.recluster()

        resumed = ClusteringService.restore(config, SCHEMA, blob)
        resumed.ingest(_arrivals())
        assert resumed.matrix() == reference
        assert resumed.recluster().to_payload() == reference_result.to_payload()
        assert resumed.epoch == original.epoch

    def test_snapshot_after_epochs_preserves_counter(self):
        config = SessionConfig(num_clusters=2, master_seed=11)
        service = ClusteringService(config, _partitions())
        service.ingest(_arrivals(), recluster=False)
        resumed = ClusteringService.restore(config, SCHEMA, service.snapshot())
        assert resumed.epoch == 1
        assert resumed.matrix() == service.matrix()

    def test_resumed_service_keeps_resuming(self):
        """Snapshot of a restored service is as good as the original's."""
        config = SessionConfig(num_clusters=2, master_seed=11)
        original = ClusteringService(config, _partitions())
        resumed = ClusteringService.restore(config, SCHEMA, original.snapshot())
        twice = ClusteringService.restore(config, SCHEMA, resumed.snapshot())
        original.ingest(_arrivals(), recluster=False)
        twice.ingest(_arrivals(), recluster=False)
        assert twice.matrix() == original.matrix()

    def test_snapshot_requires_drained_network(self):
        service = ClusteringService(SessionConfig(num_clusters=2), _partitions())
        service.session.network.send("A", "TP", "stray", 1)
        with pytest.raises(ProtocolError):
            service.snapshot()
        service.session.network.drain()
        assert service.snapshot()

    def test_restore_rejects_unknown_format(self):
        config = SessionConfig(num_clusters=2)
        blob = serialize({"format": SNAPSHOT_FORMAT + 1})
        with pytest.raises(ConfigurationError, match="snapshot"):
            ClusteringService.restore(config, SCHEMA, blob)
        with pytest.raises(ConfigurationError, match="snapshot"):
            ClusteringService.restore(config, SCHEMA, serialize([1, 2]))

    def test_restore_rejects_row_size_mismatch(self):
        config = SessionConfig(num_clusters=2)
        service = ClusteringService(config, _partitions())
        from repro.network.serialization import deserialize

        state = deserialize(service.snapshot())
        state["sites"]["A"] = 99
        with pytest.raises(ConfigurationError, match="disagree"):
            ClusteringService.restore(config, SCHEMA, serialize(state))

    def test_faulty_resume_still_masked(self, monkeypatch):
        """Checkpoint under chaos: restore + lossy re-ingest matches the
        fault-free uninterrupted history."""
        config = SessionConfig(num_clusters=2, master_seed=11)
        clean = ClusteringService(config, _partitions())
        blob = clean.snapshot()
        clean.ingest(_arrivals(), recluster=False)

        monkeypatch.setenv(CHAOS_PRESET_ENV, "lossy")
        resumed = ClusteringService.restore(config, SCHEMA, blob)
        assert resumed.session.network.fault_plan is not None
        resumed.ingest(_arrivals(), recluster=False)
        assert resumed.matrix() == clean.matrix()
