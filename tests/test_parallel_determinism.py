"""Determinism of the parallel execution engine.

The headline contract of the ``"parallel"`` construction schedule: for
**any** worker count, every published artifact -- per-attribute
matrices, merged matrix, dendrogram, medoids, result payloads, byte
counts -- is bit-identical to the sequential policy's.  The mechanisms
(PRNG isolation, delivery lanes, disjoint block writes) are documented
in :mod:`repro.core.scheduler`; these tests hold the whole stack to the
guarantee:

* a deterministic sweep and a Hypothesis property test across
  ``sequential`` / ``parallel(w=1,2,4)``,
* lane-receive semantics of the concurrency-safe network (exact pops,
  actionable mis-scheduling reports -- the queue snapshot satellites),
* a multi-threaded accounting hammer: byte/message counters and
  eavesdropper captures stay exact under concurrent sends, and
* :class:`ClusteringService` ingest/retire epochs under the parallel
  policy, differentially equivalent to from-scratch rebuilds.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.service import ClusteringService
from repro.clustering.kmedoids import k_medoids
from repro.clustering.linkage import agglomerative
from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.session import ClusteringSession
from repro.data.alphabet import DNA_ALPHABET
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.exceptions import ChannelError, ProtocolError
from repro.network.channel import Eavesdropper
from repro.network.simulator import Network
from repro.types import AttributeType, LinkageMethod

SCHEMA = [
    AttributeSpec("age", AttributeType.NUMERIC, precision=0),
    AttributeSpec("score", AttributeType.NUMERIC, precision=2),
    AttributeSpec("dna", AttributeType.ALPHANUMERIC, alphabet=DNA_ALPHABET),
    AttributeSpec("city", AttributeType.CATEGORICAL),
]

#: Every policy/worker combination the determinism contract covers.  CI's
#: smoke matrix can push an extra worker count in via the environment.
POLICIES: list[tuple[str, int]] = [
    ("sequential", 1),
    ("parallel", 1),
    ("parallel", 2),
    ("parallel", 4),
]
_smoke = os.environ.get("PARALLEL_SMOKE_WORKERS")
if _smoke:
    POLICIES.append(("parallel", int(_smoke)))


def _config(policy: str, workers: int, master_seed: int = 17) -> SessionConfig:
    return SessionConfig(
        num_clusters=2,
        master_seed=master_seed,
        max_workers=workers,
        suite=ProtocolSuiteConfig(construction_schedule=policy),
    )


def _partitions(rows_a, rows_b, rows_c=None):
    partitions = {
        "A": DataMatrix(SCHEMA, rows_a),
        "B": DataMatrix(SCHEMA, rows_b),
    }
    if rows_c is not None:
        partitions["C"] = DataMatrix(SCHEMA, rows_c)
    return partitions


def _fingerprint(session: ClusteringSession, result) -> dict:
    """Everything the determinism contract pins, in comparable form."""
    merged = session.final_matrix()
    dendrogram = agglomerative(merged, LinkageMethod.AVERAGE)
    pam = k_medoids(merged, 2)
    fingerprint = {
        "result": result.to_payload(),
        "merged": merged.condensed.tobytes(),
        "attributes": {
            spec.name: session.third_party.attribute_matrix(spec.name)
            .condensed.tobytes()
            for spec in SCHEMA
        },
        "dendrogram": dendrogram.merges,
        "medoids": (pam.medoids, pam.labels),
    }
    if not os.environ.get("REPRO_CHAOS_PRESET"):
        # Chaos runs retransmit, and how many frames each schedule has
        # in flight when a fault hits differs per policy -- wire-byte
        # totals are legitimately schedule-dependent there.  Results
        # above stay pinned bit-identical regardless.
        fingerprint["total_bytes"] = session.total_bytes()
        fingerprint["bytes_by_tag"] = session.network.bytes_by_tag()
    return fingerprint


class TestPolicySweep:
    def test_all_policies_bit_identical(self):
        rows_a = [
            [34, 1.25, "ACGTAC", "istanbul"],
            [71, 9.5, "TTTTGG", "ankara"],
            [36, 1.5, "ACGTTC", "istanbul"],
            [52, 4.75, "AC", "bursa"],
        ]
        rows_b = [
            [38, 1.0, "ACGAAC", "izmir"],
            [67, 9.12, "TTCTGG", "ankara"],
            [44, 3.5, "GGGTAC", "izmir"],
        ]
        rows_c = [
            [29, 0.25, "ACACAC", "istanbul"],
            [80, 9.9, "TTTT", "bursa"],
        ]
        fingerprints = {}
        for policy, workers in POLICIES:
            session = ClusteringSession(
                _config(policy, workers), _partitions(rows_a, rows_b, rows_c)
            )
            fingerprints[(policy, workers)] = _fingerprint(session, session.run())
        reference = fingerprints[("sequential", 1)]
        for key, fingerprint in fingerprints.items():
            assert fingerprint == reference, f"{key} diverged from sequential"

    def test_parallel_trace_covers_every_step(self):
        """The executor runs each step exactly once (trace is completion
        order, so only the *set* is pinned)."""
        sequential = ClusteringSession(
            _config("sequential", 1),
            _partitions([[1, 1.0, "AC", "x"]] * 2, [[2, 2.0, "GT", "y"]] * 2),
        )
        sequential.execute_protocol()
        parallel = ClusteringSession(
            _config("parallel", 4),
            _partitions([[1, 1.0, "AC", "x"]] * 2, [[2, 2.0, "GT", "y"]] * 2),
        )
        parallel.execute_protocol()
        assert sorted(parallel.construction_trace) == sorted(
            sequential.construction_trace
        )
        assert len(parallel.construction_trace) == len(
            set(parallel.construction_trace)
        )

    def test_parallel_step_failure_propagates(self):
        """A raising step aborts the run with the original exception."""
        from repro.core.scheduler import ConstructionScheduler, Step

        session = ClusteringSession(
            _config("parallel", 2),
            _partitions([[1, 1.0, "AC", "x"]] * 2, [[2, 2.0, "GT", "y"]] * 2),
        )
        scheduler = ConstructionScheduler(
            session.holders, session.third_party, policy="parallel", max_workers=2
        )

        def boom() -> None:
            raise ProtocolError("injected step failure")

        scheduler._steps.append(Step(name="boom", run=boom, order=(0,)))
        with pytest.raises(ProtocolError, match="injected step failure"):
            scheduler.run()

    def test_parallel_unknown_dependency_rejected(self):
        from repro.core.scheduler import ConstructionScheduler, Step

        session = ClusteringSession(
            _config("parallel", 2),
            _partitions([[1, 1.0, "AC", "x"]] * 2, [[2, 2.0, "GT", "y"]] * 2),
        )
        scheduler = ConstructionScheduler(
            session.holders, session.third_party, policy="parallel", max_workers=2
        )
        scheduler._steps.append(
            Step(name="orphan", run=lambda: None, deps=("missing",), order=(0,))
        )
        with pytest.raises(ProtocolError, match="unknown steps"):
            scheduler.run()


row_values = st.tuples(
    st.integers(0, 120),
    st.integers(0, 4000).map(lambda v: v / 100.0),
    st.text(alphabet="ACGT", min_size=0, max_size=5),
    st.sampled_from(["istanbul", "ankara", "izmir"]),
).map(list)


class TestPolicyProperty:
    @given(
        rows_a=st.lists(row_values, min_size=2, max_size=4),
        rows_b=st.lists(row_values, min_size=2, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_sessions_agree_across_policies(self, rows_a, rows_b, seed):
        fingerprints = []
        for policy, workers in POLICIES:
            session = ClusteringSession(
                _config(policy, workers, master_seed=seed),
                _partitions(rows_a, rows_b),
            )
            fingerprints.append(_fingerprint(session, session.run()))
        for fingerprint in fingerprints[1:]:
            assert fingerprint == fingerprints[0]


class TestLaneReceives:
    def _net(self) -> Network:
        net = Network()
        for name in ("A", "B", "TP"):
            net.add_party(name)
        net.connect("A", "TP", secure=False)
        net.connect("B", "TP", secure=False)
        return net

    def test_lane_receive_skips_other_lanes(self):
        """A lane pop takes its run's message even when other lanes'
        messages arrived first -- the property queue-head gating could
        never give a concurrent schedule."""
        net = self._net()
        net.send("A", "TP", "local_matrix", {"attr": "age"}, tag="numeric/age")
        net.send("B", "TP", "comparison_matrix", {"attr": "dna"}, tag="alnum/dna")
        net.send("A", "TP", "comparison_matrix", {"attr": "age"}, tag="numeric/age")
        message = net.receive(
            "TP", kind="comparison_matrix", sender="A", tag="numeric/age"
        )
        assert message.payload == {"attr": "age"}
        # Legacy pops still drain in global FIFO order.
        assert net.receive("TP").kind == "local_matrix"
        assert net.receive("TP").sender == "B"
        net.assert_drained()

    def test_lane_receive_is_fifo_within_lane(self):
        net = self._net()
        net.send("A", "TP", "k", 1, tag="t")
        net.send("A", "TP", "k", 2, tag="t")
        assert net.receive("TP", kind="k", sender="A", tag="t").payload == 1
        assert net.receive("TP", kind="k", sender="A", tag="t").payload == 2

    def test_lane_receive_requires_kind_and_sender(self):
        net = self._net()
        net.send("A", "TP", "k", 1, tag="t")
        with pytest.raises(ChannelError, match="requires kind and sender"):
            net.receive("TP", tag="t")

    def test_empty_lane_reports_queue_snapshot(self):
        net = self._net()
        net.send("A", "TP", "local_matrix", 1, tag="numeric/age")
        net.send("B", "TP", "ccm_matrices", 2, tag="alnum/dna")
        with pytest.raises(ProtocolError) as excinfo:
            net.receive("TP", kind="comparison_matrix", sender="A", tag="numeric/age")
        report = str(excinfo.value)
        assert "no pending 'comparison_matrix' from 'A'" in report
        assert "local_matrix<-A [numeric/age]" in report
        assert "ccm_matrices<-B [alnum/dna]" in report

    def test_head_mismatch_reports_queue_snapshot(self):
        """The deadlock-diagnosis satellite: a mis-scheduled receive names
        the whole queue, not just the head it tripped on."""
        net = self._net()
        net.send("A", "TP", "local_matrix", 1, tag="numeric/age")
        net.send("B", "TP", "ccm_matrices", 2, tag="alnum/dna")
        net.send("A", "TP", "weights", 3)
        with pytest.raises(ProtocolError) as excinfo:
            net.receive("TP", kind="comparison_matrix")
        report = str(excinfo.value)
        assert "expected kind 'comparison_matrix'" in report
        assert "got 'local_matrix' from 'A'" in report
        assert "ccm_matrices<-B [alnum/dna]" in report
        assert "weights<-A" in report

    def test_snapshot_truncates_long_queues(self):
        net = self._net()
        for i in range(20):
            net.send("A", "TP", f"k{i}", i, tag="t")
        with pytest.raises(ProtocolError) as excinfo:
            net.receive("TP", kind="nope")
        report = str(excinfo.value)
        assert "+7 more" in report  # 19 left after the popped head, 12 shown

    def test_sender_mismatch_still_raises(self):
        net = self._net()
        net.send("B", "TP", "k", 1)
        with pytest.raises(ProtocolError, match="expected sender 'A'"):
            net.receive("TP", kind="k", sender="A")

    def test_negative_latency_rejected(self):
        with pytest.raises(ChannelError):
            Network(latency=-0.1)

    def test_unknown_recipient_rejected_typed(self):
        net = self._net()
        with pytest.raises(ChannelError, match="unknown party"):
            net.receive("ghost")
        with pytest.raises(ChannelError, match="unknown party"):
            net.pending("ghost")


class TestAccountingHammer:
    def test_concurrent_sends_account_exactly(self):
        """The atomicity satellite: many threads hammering one network
        must lose no byte, message or tapped frame."""
        net = Network()
        for name in ("A", "B", "TP"):
            net.add_party(name)
        net.connect("A", "B", secure=False)
        net.connect("A", "TP", secure=False)
        net.connect("B", "TP", secure=False)
        tap = Eavesdropper("mallory")
        net.attach_tap("A", "TP", tap)
        net.attach_tap("B", "TP", tap)

        sends_per_thread = 200
        payload = [7] * 16
        lanes = [("A", "B", "x"), ("A", "TP", "y"), ("B", "TP", "z"), ("A", "TP", "w")]

        def hammer(sender: str, recipient: str, tag: str) -> None:
            for i in range(sends_per_thread):
                net.send(sender, recipient, "hammer", payload, tag=tag)

        threads = [
            threading.Thread(target=hammer, args=lane) for lane in lanes for _ in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        per_lane = 2 * sends_per_thread
        one_wire = net.channel("A", "B").stats("A", "B").wire_bytes // per_lane
        assert net.messages_sent_by("A") == 3 * per_lane
        assert net.messages_sent_by("B") == per_lane
        assert net.total_bytes() == 4 * per_lane * one_wire
        assert net.bytes_by_tag() == {
            "x": per_lane * one_wire,
            "y": per_lane * one_wire,
            "z": per_lane * one_wire,
            "w": per_lane * one_wire,
        }
        # The tap saw exactly the frames of its two links, bytes intact.
        assert len(tap.frames) == 3 * per_lane
        assert all(f.wire for f in tap.frames)
        assert net.pending("B") == per_lane
        assert net.pending("TP") == 3 * per_lane
        # Lane receives drain concurrently without loss or duplication.
        received: list[int] = []

        def drain(recipient: str, sender: str, tag: str) -> None:
            count = 0
            for _ in range(per_lane):
                message = net.receive(recipient, kind="hammer", sender=sender, tag=tag)
                count += 1
            received.append(count)

        drainers = [
            threading.Thread(target=drain, args=(recipient, sender, tag))
            for sender, recipient, tag in lanes
        ]
        for thread in drainers:
            thread.start()
        for thread in drainers:
            thread.join()
        assert received == [per_lane] * 4
        net.assert_drained()


class TestParallelService:
    """Ingest/retire epochs under the parallel policy: the PR 4
    differential machinery re-targeted at the worker-pool schedule."""

    def _partitions(self):
        return {
            "A": DataMatrix(
                SCHEMA,
                [
                    [34, 1.25, "ACGTAC", "istanbul"],
                    [71, 9.5, "TTTTGG", "ankara"],
                    [36, 1.5, "ACGTTC", "istanbul"],
                ],
            ),
            "B": DataMatrix(
                SCHEMA,
                [
                    [38, 1.0, "ACGAAC", "izmir"],
                    [67, 9.12, "TTCTGG", "ankara"],
                ],
            ),
        }

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_mixed_history_matches_rebuild(self, workers):
        config = _config("parallel", workers, master_seed=41)
        service = ClusteringService(config, self._partitions())
        service.ingest(
            {
                "A": DataMatrix(SCHEMA, [[50, 5.0, "ACGTGG", "bursa"]]),
                "B": DataMatrix(
                    SCHEMA,
                    [[41, 2.25, "ACGTAT", "istanbul"], [70, 9.25, "TT", "ankara"]],
                ),
            },
            recluster=False,
        )
        service.retire({"A": [1], "B": [0, 2]}, recluster=False)
        published = service.ingest(
            {"A": DataMatrix(SCHEMA, [[33, 1.0, "AGGTAC", "bursa"]])}
        )
        rebuild = ClusteringSession(config, service.partitions())
        rebuilt = rebuild.run()
        assert published.to_payload() == rebuilt.to_payload()
        assert service.matrix() == rebuild.final_matrix()
        for spec in SCHEMA:
            assert service.session.third_party.attribute_matrix(
                spec.name
            ) == rebuild.third_party.attribute_matrix(spec.name), spec.name

    def test_parallel_epochs_match_sequential_epochs(self):
        """The same mutation history under every policy lands on the same
        bits -- matrices and traffic totals."""
        services = {}
        for policy, workers in POLICIES:
            config = _config(policy, workers, master_seed=23)
            service = ClusteringService(config, self._partitions())
            service.ingest(
                {
                    "A": DataMatrix(SCHEMA, [[81, 6.5, "ACCA", "ankara"]]),
                    "B": DataMatrix(SCHEMA, [[18, 0.5, "GTGT", "bursa"]]),
                },
                recluster=False,
            )
            service.retire({"B": [1]}, recluster=False)
            services[(policy, workers)] = service
        reference = services[("sequential", 1)]
        for key, service in services.items():
            assert service.matrix() == reference.matrix(), key
            if not os.environ.get("REPRO_CHAOS_PRESET"):
                assert service.total_bytes() == reference.total_bytes(), key
