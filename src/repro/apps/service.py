"""The incremental clustering service: sessions that absorb change.

A :class:`~repro.core.session.ClusteringSession` is one-shot -- the
deployment shape of the ROADMAP's heavy-traffic north star is a standing
consortium whose sites keep *receiving and retiring records*.
:class:`ClusteringService` is that shape: it runs the full Figure 11
construction once, then applies every subsequent arrival batch as a
**delta** (:mod:`repro.core.delta`) -- comparison protocols run only for
pairs that touch an arrival, the global condensed matrices are patched
in place, and the third party re-clusters on demand.  Retirements are
cheaper still: surviving pairs keep their exact distances, so matrices
just shrink.

The contract is *differential equivalence*: after any sequence of
ingests and retirements, the service's per-attribute matrices, merged
matrix, dendrogram and medoids are **bit-identical** to a from-scratch
session over the current union of partitions.  The protocols make that
possible -- every unmasked distance equals the plain comparison function
of the two values -- and the stateful differential suite
(``tests/test_incremental_differential.py``) enforces it.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.core.config import SessionConfig
from repro.core.delta import DeltaPlan, SiteGrowth
from repro.core.results import ClusteringResult
from repro.core.session import ClusteringSession, restoring
from repro.crypto.keys import PairwiseSecret
from repro.data.matrix import DataMatrix, Schema
from repro.data.partition import GlobalIndex
from repro.distance.dissimilarity import DissimilarityMatrix
from repro.exceptions import ConfigurationError, SnapshotError
from repro.network.serialization import deserialize, serialize

#: Version tag of the checkpoint blob layout.
SNAPSHOT_FORMAT = 1

#: The snapshot sections that map names to values, with the type every
#: value must have.
_SECTION_VALUES: dict[str, Any] = {
    "sites": int,
    "holder_rows": list,
    "third_party": dict,
    "group_keys": (bytes, type(None)),
    "channel_entropy": int,
    "holder_entropy": int,
}


def _check_sections(state: dict[str, Any]) -> None:
    """Raise :class:`SnapshotError` unless every state section has the
    shape :meth:`ClusteringService.snapshot` writes."""
    epoch = state["epoch"]
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
        raise SnapshotError("snapshot section 'epoch' is not a non-negative integer")
    for name, value_type in _SECTION_VALUES.items():
        section = state[name]
        if not isinstance(section, dict) or not all(
            isinstance(key, str)
            and isinstance(value, value_type)
            and not isinstance(value, bool)
            for key, value in section.items()
        ):
            raise SnapshotError(
                f"snapshot section {name!r} is not a mapping of names to "
                f"values of the type the snapshot writes"
            )
    for name in ("holder_rows", "group_keys", "holder_entropy"):
        if set(state[name]) != set(state["sites"]):
            raise SnapshotError(
                f"snapshot sections 'sites' and {name!r} disagree on the "
                f"consortium ({sorted(state['sites'])} vs {sorted(state[name])})"
            )


class ClusteringService:
    """A standing session that ingests and retires records incrementally.

    Parameters mirror :class:`ClusteringSession`; construction for the
    initial partitions runs eagerly in the constructor, so the first
    :meth:`recluster` (and every ingest) starts from a complete set of
    per-attribute matrices.  Pass ``shared_secrets`` (e.g. from
    :meth:`repro.apps.sessions.SessionBatch.service`) to amortise
    Diffie-Hellman setup across services of one consortium.
    """

    def __init__(
        self,
        config: SessionConfig,
        partitions: Mapping[str, DataMatrix],
        tp_name: str = "TP",
        shared_secrets: Mapping[tuple[str, str], PairwiseSecret] | None = None,
    ) -> None:
        self._session = ClusteringSession(
            config, partitions, tp_name=tp_name, shared_secrets=shared_secrets
        )
        self._session.execute_protocol()
        self._epoch = 0
        #: Step names of the most recent delta construction, in realized
        #: order (mirrors ``ClusteringSession.construction_trace``).
        self.delta_trace: list[str] = []

    # -- introspection -----------------------------------------------------

    @property
    def session(self) -> ClusteringSession:
        """The underlying session (network, holders, third party)."""
        return self._session

    @property
    def config(self) -> SessionConfig:
        return self._session.config

    @property
    def index(self) -> GlobalIndex:
        """Current global index (updates as records arrive and retire)."""
        return self._session.index

    @property
    def epoch(self) -> int:
        """Monotone mutation counter (one per ingest/retire batch)."""
        return self._epoch

    def partitions(self) -> dict[str, DataMatrix]:
        """Each site's *current* partition (what a rebuild would start from)."""
        return {
            site: self._session.holders[site].matrix
            for site in self._session.index.sites
        }

    def total_objects(self) -> int:
        return self._session.index.total_objects

    def total_bytes(self) -> int:
        """Wire bytes across the service's whole history."""
        return self._session.total_bytes()

    def matrix(self) -> DissimilarityMatrix:
        """The third party's current merged matrix (experiment access only)."""
        return self._session.third_party.merged_matrix()

    # -- checkpoint / resume ----------------------------------------------

    def snapshot(self) -> bytes:
        """Serialize the service's resumable state into one blob.

        The checkpoint captures everything the *protocol history* has
        produced that a fresh setup cannot rederive: the third party's
        raw condensed matrices and retained ciphertext columns, each
        holder's current partition rows, the categorical group key, the
        epoch counter, and -- the subtle part -- the draw position of
        every stateful PRNG (channel nonce entropy per link, holder
        entropy per site), keyed by the same labels the session derives
        them under.  What it deliberately omits: pairwise secrets and
        derived keys (rederived bit-identically from ``master_seed`` at
        restore) and normalised matrices (pure functions of the raw
        ones).

        Must be taken at a quiescent point -- all lanes drained, no open
        delta epoch -- i.e. between :meth:`ingest`/:meth:`retire` calls.
        Restoring (:meth:`restore`) and re-running the interrupted epoch
        reproduces the uninterrupted run bit for bit, because every delta
        PRNG label is epoch-scoped and nonce streams resume from their
        checkpointed positions.
        """
        session = self._session
        session.network.assert_drained()
        state = {
            "format": SNAPSHOT_FORMAT,
            "epoch": self._epoch,
            "sites": {
                site: session.index.size_of(site) for site in session.index.sites
            },
            "holder_rows": {
                site: [list(row) for row in session.holders[site].matrix.rows]
                for site in session.index.sites
            },
            "third_party": session.third_party.snapshot_state(),
            **session.setup_state(),
        }
        return serialize(state)

    @classmethod
    def restore(
        cls,
        config: SessionConfig,
        schema: Schema,
        blob: bytes,
        tp_name: str = "TP",
        shared_secrets: Mapping[tuple[str, str], PairwiseSecret] | None = None,
    ) -> "ClusteringService":
        """Rebuild a service from a :meth:`snapshot` blob.

        ``config`` and ``schema`` must match the snapshotted service's
        (the blob carries no secrets, so ``master_seed`` is the caller's
        to supply).  Setup re-runs from the seed -- identical pairwise
        secrets and channel keys -- then matrices, group key and PRNG
        positions are installed from the blob and the construction phase
        is marked complete without re-running any protocol round.

        Raises :class:`~repro.exceptions.SnapshotError` when the blob is
        truncated or corrupted, carries an unsupported format version, is
        missing state sections or holds one of the wrong shape, or
        disagrees with the supplied ``schema`` or the restored session
        -- so supervisors can tell "bad checkpoint file" apart from
        protocol failures.
        """
        try:
            state = deserialize(blob)
        except Exception as exc:
            raise SnapshotError(
                f"snapshot blob is truncated or corrupted: {exc}"
            ) from exc
        if not isinstance(state, dict):
            raise SnapshotError(
                f"snapshot blob must decode to a dict, got {type(state).__name__}"
            )
        if state.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"unsupported snapshot format {state.get('format')!r} "
                f"(this build reads format {SNAPSHOT_FORMAT})"
            )
        required = (
            "epoch",
            "sites",
            "holder_rows",
            "third_party",
            "group_keys",
            "channel_entropy",
            "holder_entropy",
        )
        missing = [key for key in required if key not in state]
        if missing:
            raise SnapshotError(
                f"snapshot blob is missing state sections: {missing}"
            )
        _check_sections(state)
        try:
            partitions = {
                site: DataMatrix(schema, [tuple(row) for row in rows])
                for site, rows in state["holder_rows"].items()
            }
        except Exception as exc:
            raise SnapshotError(
                "snapshot rows do not fit the supplied schema "
                f"(was it taken under a different session config?): {exc}"
            ) from exc
        for site, size in state["sites"].items():
            if partitions[site].num_rows != size:
                raise SnapshotError(
                    f"snapshot rows for {site!r} disagree with its recorded size"
                )
        service = cls.__new__(cls)
        session = ClusteringSession(
            config, partitions, tp_name=tp_name, shared_secrets=shared_secrets
        )
        with restoring("third_party"):
            session.third_party.restore_state(state["third_party"])
        session.restore_setup(state)
        session._constructed = True
        service._session = session
        service._epoch = state["epoch"]
        service.delta_trace = []
        return service

    # -- mutations ---------------------------------------------------------

    def ingest(
        self,
        arrivals: Mapping[str, DataMatrix],
        recluster: bool = True,
    ) -> ClusteringResult | None:
        """Absorb one batch of arriving records (per-site matrices).

        Runs the delta construction -- protocols only for new-pair
        blocks -- then re-clusters and publishes unless ``recluster``
        is ``False`` (bulk loaders chain several ingests and cluster
        once at the end).
        """
        session = self._session
        batches: dict[str, DataMatrix] = {}
        for site, batch in arrivals.items():
            if site not in session.holders:
                raise ConfigurationError(f"unknown site {site!r}")
            if not isinstance(batch, DataMatrix):
                raise ConfigurationError(
                    f"arrivals for {site!r} must be a DataMatrix"
                )
            if batch.schema != session.schema:
                raise ConfigurationError(
                    f"arrivals for {site!r} do not share the session schema"
                )
            if batch.num_rows:
                batches[site] = batch
        if not batches:
            raise ConfigurationError("ingest needs at least one arriving record")

        old_index = session.index
        growth = {
            site: SiteGrowth(
                old_index.size_of(site),
                old_index.size_of(site)
                + (batches[site].num_rows if site in batches else 0),
            )
            for site in old_index.sites
        }
        self._epoch += 1
        plan = DeltaPlan(self._epoch, growth)
        new_index = old_index.extend(
            {site: batch.num_rows for site, batch in batches.items()}
        )

        session.third_party.begin_delta(plan, new_index)
        for site, batch in batches.items():
            session.holders[site].ingest_rows(batch)
            session.partitions[site] = session.holders[site].matrix
        session.index = new_index
        self.delta_trace = list(session.construct(plan).trace)
        session.third_party.end_delta()
        if recluster:
            return self.recluster()
        if session.degraded:
            session.network.drain()
        else:
            session.network.assert_drained()
        return None

    def retire(
        self,
        removals: Mapping[str, Sequence[int]],
        recluster: bool = True,
    ) -> ClusteringResult | None:
        """Drop records by site-local id; survivors compact in order.

        No protocol rounds run -- surviving pairs keep their exact
        distances -- so a retirement costs one condensed shrink per
        attribute plus re-normalisation.
        """
        session = self._session
        drops: dict[str, list[int]] = {}
        for site, local_ids in removals.items():
            if site not in session.holders:
                raise ConfigurationError(f"unknown site {site!r}")
            ids = sorted({int(i) for i in local_ids})
            if not ids:
                continue
            size = session.index.size_of(site)
            if ids[0] < 0 or ids[-1] >= size:
                raise ConfigurationError(
                    f"retirement ids {ids} out of range for site {site!r} "
                    f"({size} objects)"
                )
            if len(ids) >= size:
                raise ConfigurationError(
                    f"site {site!r} cannot retire every record"
                )
            drops[site] = ids
        if not drops:
            raise ConfigurationError("retire needs at least one record")

        self._epoch += 1
        for site in sorted(drops):
            session.holders[site].announce_retirement(session.tp_name, drops[site])
        new_index = GlobalIndex(
            {
                site: session.index.size_of(site) - len(drops.get(site, ()))
                for site in session.index.sites
            }
        )
        session.third_party.retire_objects(sorted(drops), new_index)
        for site, ids in drops.items():
            session.holders[site].retire_rows(ids)
            session.partitions[site] = session.holders[site].matrix
        session.index = new_index
        if recluster:
            return self.recluster()
        session.network.assert_drained()
        return None

    # -- clustering --------------------------------------------------------

    def recluster(self) -> ClusteringResult:
        """Cluster the current matrix and publish to every holder.

        This is :meth:`repro.core.session.ClusteringSession.run` on the
        standing session: after a degraded delta
        (``suite.tolerate_faults``) it clusters the attributes whose
        construction completed and publishes only to reachable holders.
        """
        return self._session.run()
