"""Differential equivalence of incremental sessions vs full rebuilds.

The incremental subsystem's contract: after *any* sequence of arrivals
and retirements, the service's state is **bit-identical** to a
from-scratch :class:`ClusteringSession` over the current union --
per-attribute matrices and merged matrix entry-exact, dendrogram
merge-for-merge (heights included), medoids identical.

Two layers enforce it:

* a stateful Hypothesis :class:`RuleBasedStateMachine` driving random
  interleavings of per-site appends, removals and re-clusterings, with
  the matrix equality checked as an invariant after every step, and
* deterministic scenarios covering every protocol mode (schedules,
  per-pair numeric masking, fresh string masks), multi-site batches,
  shrink-then-regrow label uniqueness, and the service's error paths.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.apps.service import ClusteringService
from repro.apps.sessions import SessionBatch
from repro.clustering.kmedoids import k_medoids
from repro.clustering.linkage import agglomerative
from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.session import ClusteringSession
from repro.data.alphabet import DNA_ALPHABET
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.exceptions import ConfigurationError
from repro.types import AttributeType, LinkageMethod

SCHEMA = [
    AttributeSpec("age", AttributeType.NUMERIC, precision=0),
    AttributeSpec("score", AttributeType.NUMERIC, precision=2),
    AttributeSpec("dna", AttributeType.ALPHANUMERIC, alphabet=DNA_ALPHABET),
    AttributeSpec("city", AttributeType.CATEGORICAL),
]
SITES = ("A", "B")
CONFIG = SessionConfig(num_clusters=2, master_seed=29)

#: Keep rebuild costs bounded: appends stop once the union reaches this.
MAX_OBJECTS = 22

row_values = st.tuples(
    st.integers(0, 120),
    st.integers(0, 4000).map(lambda v: v / 100.0),
    st.text(alphabet="ACGT", min_size=0, max_size=6),
    st.sampled_from(["istanbul", "ankara", "izmir"]),
).map(list)


def _assert_equivalent(service: ClusteringService, rebuild: ClusteringSession) -> None:
    """Full bit-level comparison: matrices, dendrogram, medoids."""
    assert service.matrix() == rebuild.final_matrix()
    for spec in SCHEMA:
        incremental = service.session.third_party.attribute_matrix(spec.name)
        scratch = rebuild.third_party.attribute_matrix(spec.name)
        assert incremental == scratch, f"attribute {spec.name!r} diverged"
    dendro_inc = agglomerative(service.matrix(), LinkageMethod.AVERAGE)
    dendro_full = agglomerative(rebuild.final_matrix(), LinkageMethod.AVERAGE)
    assert dendro_inc.merges == dendro_full.merges
    k = min(2, service.total_objects())
    pam_inc = k_medoids(service.matrix(), k)
    pam_full = k_medoids(rebuild.final_matrix(), k)
    assert pam_inc.medoids == pam_full.medoids
    assert pam_inc.labels == pam_full.labels


class IncrementalSessionMachine(RuleBasedStateMachine):
    """Random append/remove/recluster interleavings across two sites."""

    def __init__(self) -> None:
        super().__init__()
        self.batch = SessionBatch(CONFIG, list(SITES))
        self.service: ClusteringService | None = None

    @initialize(
        rows_a=st.lists(row_values, min_size=1, max_size=3),
        rows_b=st.lists(row_values, min_size=1, max_size=3),
    )
    def start(self, rows_a, rows_b):
        self.service = self.batch.service(
            {"A": DataMatrix(SCHEMA, rows_a), "B": DataMatrix(SCHEMA, rows_b)}
        )

    def _rebuild(self) -> ClusteringSession:
        # Same cached secrets a standalone rebuild with this master seed
        # would derive, so the comparison is equivalence, not setup noise.
        return self.batch.session(self.service.partitions())

    @precondition(lambda self: self.service is not None)
    @rule(
        site=st.sampled_from(SITES),
        rows=st.lists(row_values, min_size=1, max_size=2),
    )
    def append(self, site, rows):
        if self.service.total_objects() + len(rows) > MAX_OBJECTS:
            return
        self.service.ingest({site: DataMatrix(SCHEMA, rows)}, recluster=False)

    @precondition(lambda self: self.service is not None)
    @rule(data=st.data())
    def append_everywhere(self, data):
        if self.service.total_objects() + len(SITES) > MAX_OBJECTS:
            return
        arrivals = {
            site: DataMatrix(SCHEMA, [data.draw(row_values, label=f"row@{site}")])
            for site in SITES
        }
        self.service.ingest(arrivals, recluster=False)

    @precondition(lambda self: self.service is not None)
    @rule(data=st.data())
    def remove(self, data):
        index = self.service.index
        candidates = [s for s in SITES if index.size_of(s) > 1]
        if not candidates:
            return
        site = data.draw(st.sampled_from(candidates), label="site")
        local = data.draw(
            st.integers(0, index.size_of(site) - 1), label="local_id"
        )
        self.service.retire({site: [local]}, recluster=False)

    @precondition(lambda self: self.service is not None)
    @rule()
    def recluster(self):
        published = self.service.recluster()
        rebuilt = self._rebuild().run()
        assert published.to_payload() == rebuilt.to_payload()

    @invariant()
    def incremental_state_equals_full_rebuild(self):
        if self.service is None:
            return
        _assert_equivalent(self.service, self._rebuild())


IncrementalSessionMachine.TestCase.settings = settings(
    max_examples=6, stateful_step_count=7, deadline=None
)
TestIncrementalSessionMachine = IncrementalSessionMachine.TestCase


SUITES = {
    "sequential-batch": ProtocolSuiteConfig(),
    "sequential-perpair-fresh": ProtocolSuiteConfig(
        batch_numeric=False, fresh_string_masks=True
    ),
    "parallel-batch": ProtocolSuiteConfig(construction_schedule="parallel"),
    "parallel-perpair-fresh": ProtocolSuiteConfig(
        construction_schedule="parallel",
        batch_numeric=False,
        fresh_string_masks=True,
    ),
}


def _partitions():
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


class TestDeterministicScenarios:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_mixed_history_every_protocol_mode(self, name):
        config = SessionConfig(num_clusters=2, master_seed=41, suite=SUITES[name])
        batch = SessionBatch(config, ["A", "B"])
        service = batch.service(_partitions())
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
        service.ingest(
            {"A": DataMatrix(SCHEMA, [[33, 1.0, "AGGTAC", "bursa"]])},
            recluster=False,
        )
        _assert_equivalent(service, batch.session(service.partitions()))

    def test_shrink_then_regrow_same_local_ids(self):
        """A site that retires its tail and regrows over the same local id
        range must still match a rebuild -- the epoch-scoped labels keep
        the second growth's mask streams distinct from the first's."""
        config = SessionConfig(num_clusters=2, master_seed=13)
        batch = SessionBatch(config, ["A", "B"])
        service = batch.service(_partitions())
        arrivals = DataMatrix(
            SCHEMA, [[90, 3.5, "ACAC", "izmir"], [12, 0.25, "GGGG", "bursa"]]
        )
        service.ingest({"A": arrivals}, recluster=False)
        service.retire({"A": [3, 4]}, recluster=False)
        different = DataMatrix(
            SCHEMA, [[55, 7.75, "TTTT", "ankara"], [61, 8.0, "TATA", "izmir"]]
        )
        service.ingest({"A": different}, recluster=False)
        _assert_equivalent(service, batch.session(service.partitions()))

    def test_bulk_load_then_single_recluster(self):
        config = SessionConfig(num_clusters=3, master_seed=3)
        service = ClusteringService(config, _partitions())
        for step in range(3):
            service.ingest(
                {
                    "B": DataMatrix(
                        SCHEMA, [[step * 10, step / 2.0, "ACGT", "izmir"]]
                    )
                },
                recluster=False,
            )
        published = service.recluster()
        rebuilt = ClusteringSession(config, service.partitions()).run()
        assert published.to_payload() == rebuilt.to_payload()

    def test_delta_runs_touch_only_new_pair_steps(self):
        """The realized delta schedule contains no full-construction
        steps: one local tail per grown site and at most two sub-column
        runs per holder pair, per attribute."""
        config = SessionConfig(num_clusters=2, master_seed=19)
        service = ClusteringService(config, _partitions())
        service.ingest(
            {"A": DataMatrix(SCHEMA, [[44, 4.0, "ACGT", "izmir"]])},
            recluster=False,
        )
        trace = service.delta_trace
        assert trace, "delta construction left no trace"
        assert all("@1" in step for step in trace)
        # Site A grew, so every non-categorical attribute ships exactly
        # one local tail and runs exactly one sub-column round: the grown
        # site responds with its arrivals, so B initiates the "grow" run.
        for attr in ("age", "score", "dna"):
            attr_steps = [s for s in trace if s.startswith(f"{attr}:")]
            assert f"{attr}:send_local_delta[A]@1" in attr_steps
            assert not any("send_local_delta[B]" in s for s in attr_steps)
            assert (
                sum(1 for s in attr_steps if s.startswith(f"{attr}:initiate[")) == 1
            )
            assert f"{attr}:initiate[B->A|grow]@1" in attr_steps
        assert "city:send_encrypted_delta[A]@1" in trace
        assert "city:finalize@1" in trace

    def test_parallel_delta_matches_sequential_delta(self):
        results = {}
        for schedule in ("sequential", "parallel"):
            config = SessionConfig(
                num_clusters=2,
                master_seed=23,
                suite=ProtocolSuiteConfig(construction_schedule=schedule),
            )
            service = ClusteringService(config, _partitions())
            service.ingest(
                {
                    "A": DataMatrix(SCHEMA, [[81, 6.5, "ACCA", "ankara"]]),
                    "B": DataMatrix(SCHEMA, [[18, 0.5, "GTGT", "bursa"]]),
                },
                recluster=False,
            )
            results[schedule] = service
        assert results["sequential"].matrix() == results["parallel"].matrix()
        if not os.environ.get("REPRO_CHAOS_PRESET"):
            # Chaos retransmits make wire bytes schedule-dependent; the
            # matrices above stay pinned regardless.
            assert (
                results["sequential"].total_bytes()
                == results["parallel"].total_bytes()
            )


class TestServiceErrorPaths:
    def test_ingest_unknown_site(self):
        service = ClusteringService(CONFIG, _partitions())
        with pytest.raises(ConfigurationError, match="unknown site"):
            service.ingest({"Z": DataMatrix(SCHEMA, [[1, 1.0, "A", "izmir"]])})

    def test_ingest_schema_mismatch(self):
        service = ClusteringService(CONFIG, _partitions())
        other = [AttributeSpec("age", AttributeType.NUMERIC, precision=0)]
        with pytest.raises(ConfigurationError, match="schema"):
            service.ingest({"A": DataMatrix(other, [[1]])})

    def test_ingest_requires_rows(self):
        service = ClusteringService(CONFIG, _partitions())
        with pytest.raises(ConfigurationError, match="at least one"):
            service.ingest({"A": DataMatrix(SCHEMA, [])})
        with pytest.raises(ConfigurationError, match="DataMatrix"):
            service.ingest({"A": [[1, 1.0, "A", "izmir"]]})

    def test_retire_guards(self):
        service = ClusteringService(CONFIG, _partitions())
        with pytest.raises(ConfigurationError, match="unknown site"):
            service.retire({"Z": [0]})
        with pytest.raises(ConfigurationError, match="out of range"):
            service.retire({"B": [5]})
        with pytest.raises(ConfigurationError, match="every record"):
            service.retire({"B": [0, 1]})
        with pytest.raises(ConfigurationError, match="at least one"):
            service.retire({"A": []})

    def test_failed_mutation_leaves_state_reusable(self):
        service = ClusteringService(CONFIG, _partitions())
        before = service.matrix()
        with pytest.raises(ConfigurationError):
            service.ingest({"Z": DataMatrix(SCHEMA, [[1, 1.0, "A", "izmir"]])})
        with pytest.raises(ConfigurationError):
            service.retire({"B": [0, 1]})
        assert service.matrix() == before
        service.ingest({"A": DataMatrix(SCHEMA, [[9, 0.5, "AC", "izmir"]])})
        _assert_equivalent(
            service, ClusteringSession(CONFIG, service.partitions())
        )


class TestStorageBackendSweep:
    """The mixed ingest/retire history, re-run per storage backend.

    Tiny blocks and a tiny cache force the memmap backend through its
    eviction/writeback machinery even at test scale; it must agree bit
    for bit with the default run.
    """

    @staticmethod
    def _suite(backend: str) -> ProtocolSuiteConfig:
        return ProtocolSuiteConfig(
            store_backend=backend, store_block_entries=16, store_cache_bytes=512
        )

    @staticmethod
    def _mixed_history(suite: ProtocolSuiteConfig):
        config = SessionConfig(num_clusters=2, master_seed=41, suite=suite)
        batch = SessionBatch(config, ["A", "B"])
        service = batch.service(_partitions())
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
        service.ingest(
            {"A": DataMatrix(SCHEMA, [[33, 1.0, "AGGTAC", "bursa"]])},
            recluster=False,
        )
        return service, batch

    @pytest.mark.parametrize("backend", ["memory", "memmap"])
    def test_incremental_matches_rebuild_on_backend(self, backend):
        service, batch = self._mixed_history(self._suite(backend))
        # The configured backend actually reached the third party.
        assert service.matrix().store_kind == backend
        _assert_equivalent(service, batch.session(service.partitions()))

    def test_memmap_is_bit_identical_to_default(self):
        """The float64 memmap backend changes nothing observable: final
        matrix, dendrogram, medoids, and the published payload are all
        bit-identical to the in-memory default."""
        # Explicitly in-memory: a REPRO_STORE_BACKEND env override (the
        # CI storage-memmap job) must not move the reference side.
        default_service, _ = self._mixed_history(self._suite("memory"))
        memmap_service, _ = self._mixed_history(self._suite("memmap"))
        assert memmap_service.matrix() == default_service.matrix()
        dendro_mm = agglomerative(memmap_service.matrix(), LinkageMethod.AVERAGE)
        dendro_mem = agglomerative(default_service.matrix(), LinkageMethod.AVERAGE)
        assert dendro_mm.merges == dendro_mem.merges
        pam_mm = k_medoids(memmap_service.matrix(), 2)
        pam_mem = k_medoids(default_service.matrix(), 2)
        assert (pam_mm.medoids, pam_mm.labels) == (pam_mem.medoids, pam_mem.labels)
        assert (
            memmap_service.recluster().to_payload()
            == default_service.recluster().to_payload()
        )

    def test_environment_default_reaches_sessions(self, monkeypatch):
        """With no explicit ``store_backend``, the session-owned matrices
        follow ``REPRO_STORE_BACKEND`` -- the hook the CI storage-memmap
        job re-points whole runs through -- and stay bit-identical."""
        from repro.distance.store import ENV_BACKEND

        monkeypatch.setenv(ENV_BACKEND, "memmap")
        env_service, _ = self._mixed_history(ProtocolSuiteConfig())
        assert env_service.matrix().store_kind == "memmap"
        monkeypatch.delenv(ENV_BACKEND)
        default_service, _ = self._mixed_history(ProtocolSuiteConfig())
        assert default_service.matrix().store_kind == "memory"
        assert env_service.matrix() == default_service.matrix()
