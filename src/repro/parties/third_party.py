"""The third party role (``TP`` in the paper).

Section 3: "The third party ... does not have any data but serves as a
means of computation power and storage space.  Third party's duty in the
protocol is to govern the communication between data holders, construct
the dissimilarity matrix and publish clustering results."

The TP assembles, per attribute, a *global* dissimilarity matrix from

* diagonal blocks -- the holders' local matrices (Figure 12 outputs),
* off-diagonal blocks -- comparison-protocol outputs it unmasks itself
  (Figures 6 and 10), or, for categoricals, the matrix it builds over
  merged ciphertexts (Section 4.3),

then normalises each attribute matrix to [0, 1], merges them with the
holders' weight vector (Figure 11) and runs hierarchical clustering.
Only membership lists and aggregate quality statistics are published;
the matrices themselves stay private to the TP (Section 5).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.clustering.linkage import agglomerative
from repro.clustering.quality import average_square_distance
from repro.core import alphanumeric as alnum_protocol
from repro.core import categorical as cat_protocol
from repro.core import labels
from repro.core.labels import DELTA_PARTS, RunScope
from repro.core import numeric as num_protocol
from repro.core.config import ProtocolSuiteConfig
from repro.core.results import ClusteringResult, result_from_labels
from repro.data.matrix import AttributeSpec, Schema
from repro.data.partition import GlobalIndex
from repro.distance.dissimilarity import DissimilarityMatrix
from repro.distance.merge import merge_weighted
from repro.distance.numeric import FixedPointCodec
from repro.exceptions import ProtocolError
from repro.network.transport import Transport
from repro.parties.base import Party
from repro.types import AttributeType, LinkageMethod


#: Attribute type and data field of each comparison run's output message.
_RUN_OUTPUTS = {
    "comparison_matrix": (AttributeType.NUMERIC, "matrix"),
    "ccm_matrices": (AttributeType.ALPHANUMERIC, "matrices"),
}


class ThirdParty(Party):
    """The semi-trusted aggregator that never holds raw data."""

    def __init__(
        self,
        name: str,
        network: Transport,
        schema: Schema,
        index: GlobalIndex,
        suite: ProtocolSuiteConfig,
    ) -> None:
        super().__init__(name, network)
        self.schema = schema
        self.index = index
        self._suite = suite
        #: Storage backend for every global matrix this TP holds; resolved
        #: once so one session never mixes backends across attributes.
        self._store_spec = suite.store_spec()
        # guarded-by: self._storage_lock
        self._raw: dict[str, DissimilarityMatrix] = {}
        # guarded-by: self._storage_lock
        self._normalized: dict[str, DissimilarityMatrix] = {}
        # guarded-by: self._storage_lock
        self._pending_categorical: dict[str, dict[str, list[bytes]]] = {}
        # guarded-by: self._storage_lock
        self._weights: dict[str, list[float]] = {}
        #: Guards first-touch creation of per-attribute storage: under the
        #: parallel construction schedule, several receive steps of one
        #: attribute run concurrently and must agree on a single matrix
        #: object (their block writes are disjoint; creation is not).
        self._storage_lock = threading.Lock()
        #: The currently open ingest epoch's :class:`repro.core.delta.DeltaPlan`.
        self._delta_plan = None

    @property
    def suite(self) -> ProtocolSuiteConfig:
        """Protocol suite configuration (read by the scheduler to know
        which message kinds a comparison run exchanges)."""
        return self._suite

    # -- storage helpers ------------------------------------------------------

    def _matrix_for(self, attribute: str) -> DissimilarityMatrix:
        if attribute not in self._raw:
            with self._storage_lock:
                if attribute not in self._raw:
                    self._raw[attribute] = DissimilarityMatrix.zeros(
                        self.index.total_objects, store_spec=self._store_spec
                    )
        return self._raw[attribute]

    def _adopt_backend(self, matrix: DissimilarityMatrix) -> DissimilarityMatrix:
        """Re-home a protocol-built matrix onto the session's backend.

        The categorical/taxonomy constructors build plain matrices; when
        the session runs sharded storage, their outputs are converted on
        publication so every attribute matrix lives on one backend.
        """
        if matrix.store_kind == self._store_spec.backend:
            return matrix
        return DissimilarityMatrix(
            matrix.num_objects, matrix.condensed, store_spec=self._store_spec
        )

    def _spec(self, attribute: str) -> AttributeSpec:
        return self.schema.spec(attribute)

    # -- diagonal blocks --------------------------------------------------------

    def receive_local_matrix(self, holder: str, tag: str | None = None) -> None:
        """Place one holder's local matrix on the attribute's diagonal block."""
        message = self.receive(kind="local_matrix", sender=holder, tag=tag)
        attribute = message.payload["attribute"]
        condensed = np.asarray(message.payload["condensed"], dtype=np.float64)
        size = self.index.size_of(holder)
        local = DissimilarityMatrix(size, condensed)
        self._matrix_for(attribute).set_diagonal_block(
            self.index.offset_of(holder), local
        )

    # -- cross blocks (Figures 6 and 10) --------------------------------------------
    #
    # One absorb body per protocol, for the initial run and delta runs alike.

    def receive_numeric_block(self, responder: str, tag: str | None = None) -> None:
        """Unmask one comparison matrix into its off-diagonal block."""
        self._absorb_numeric(responder, tag, delta=False)

    def receive_alnum_block(self, responder: str, tag: str | None = None) -> None:
        """Decode CCMs, run the edit-distance DP, place the block."""
        self._absorb_alnum(responder, tag, delta=False)

    def _receive_run_output(
        self, kind: str, responder: str, tag: str | None, delta: bool
    ):
        """One comparison run's output: (spec, initiator, scope, data).

        A delta payload's ``part`` and ``epoch`` must name a run of the
        open epoch.  Exception texts name fields and the lane, never a
        received value.
        """
        attr_type, data = _RUN_OUTPUTS[kind]
        payload = self.receive(kind=kind, sender=responder, tag=tag).payload
        fields = ("attribute", "initiator", *(("part", "epoch") if delta else ()), data)
        if not isinstance(payload, dict) or any(key not in payload for key in fields):
            raise ProtocolError(f"{kind} from {responder!r} lacks one of {fields}")
        attribute = payload["attribute"]
        spec = self._spec(attribute)
        if spec.attr_type is not attr_type:
            raise ProtocolError(
                f"{kind} from {responder!r} names a non-{attr_type.value} attribute"
            )
        if not delta:
            return spec, payload["initiator"], RunScope(), payload[data]
        plan, part = self._delta_plan, payload["part"]
        if plan is None or plan.epoch != payload["epoch"] or part not in DELTA_PARTS:
            raise ProtocolError(
                f"{kind} from {responder!r} names no run of the open delta epoch "
                f"{getattr(plan, 'epoch', None)}"
            )
        return spec, payload["initiator"], RunScope(plan.epoch, part), payload[data]

    def _block_ranges(
        self, initiator: str, responder: str, scope: RunScope
    ) -> tuple[range, range]:
        """Global (responder rows, initiator cols) of one run's block.

        The initial run fills the pair's whole block.  In a delta run the
        responder is always the grown site, contributing its arrival
        rows; the initiator contributes its full column (``"grow"``) or
        only its pre-epoch base (``"base"`` -- its own arrivals already
        met the responder's in the pair's ``"grow"`` run).
        """
        if scope.is_initial:
            return self.index.block(responder, initiator)
        plan = self._delta_plan
        grow_i = plan.site(initiator)
        grow_r = plan.site(responder)
        i_off = self.index.offset_of(initiator)
        r_off = self.index.offset_of(responder)
        rows = range(r_off + grow_r.old_size, r_off + grow_r.new_size)
        width = grow_i.new_size if scope.part == "grow" else grow_i.old_size
        return rows, range(i_off, i_off + width)

    def _absorb_numeric(self, responder: str, tag: str | None, delta: bool) -> None:
        spec, initiator, scope, matrix = self._receive_run_output(
            "comparison_matrix", responder, tag, delta
        )
        rng_jt = self.secret_with(initiator).prng(
            scope.label(labels.numeric_jt(spec.name, initiator, responder)),
            self._suite.prng_kind,
        )
        if self._suite.batch_numeric:
            encoded = num_protocol.third_party_unmask_batch(
                matrix, rng_jt, self._suite.mask_bits
            )
        else:
            encoded = num_protocol.third_party_unmask_per_pair(
                matrix, rng_jt, self._suite.mask_bits
            )
        codec = FixedPointCodec(spec.precision)
        block = codec.decode_distance_array(encoded)
        rows, cols = self._block_ranges(initiator, responder, scope)
        self._matrix_for(spec.name).set_block(list(rows), list(cols), block)

    def _absorb_alnum(self, responder: str, tag: str | None, delta: bool) -> None:
        spec, initiator, scope, matrices = self._receive_run_output(
            "ccm_matrices", responder, tag, delta
        )
        assert spec.alphabet is not None
        rng_jt = self.secret_with(initiator).prng(
            scope.label(labels.alnum_jt(spec.name, initiator, responder)),
            self._suite.prng_kind,
        )
        if self._suite.fresh_string_masks:
            distances = alnum_protocol.third_party_distances_fresh(
                matrices, spec.alphabet, rng_jt
            )
        else:
            distances = alnum_protocol.third_party_distances(
                matrices, spec.alphabet, rng_jt
            )
        block = distances.astype(np.float64)
        rows, cols = self._block_ranges(initiator, responder, scope)
        self._matrix_for(spec.name).set_block(list(rows), list(cols), block)

    # -- categorical (Section 4.3) -----------------------------------------------------

    def receive_encrypted_column(self, holder: str, tag: str | None = None) -> None:
        """Collect one site's deterministic ciphertext column."""
        message = self.receive(kind="encrypted_column", sender=holder, tag=tag)
        attribute = message.payload["attribute"]
        spec = self._spec(attribute)
        if spec.attr_type is not AttributeType.CATEGORICAL:
            raise ProtocolError(
                f"encrypted column for non-categorical attribute {attribute!r}"
            )
        with self._storage_lock:
            columns = self._pending_categorical.setdefault(attribute, {})
            if holder in columns:
                raise ProtocolError(f"duplicate encrypted column from {holder!r}")
            columns[holder] = list(message.payload["ciphertexts"])

    def finalize_categorical(self, attribute: str) -> None:
        """Merge ciphertext columns and build the global matrix.

        Flat categoricals get the 0/1 equality matrix (Section 4.3);
        taxonomy-typed ones the hierarchical path-metric matrix.
        """
        columns = self._pending_categorical.get(attribute)
        if columns is None:
            raise ProtocolError(f"no encrypted columns received for {attribute!r}")
        if self._spec(attribute).taxonomy is not None:
            from repro.ext.taxonomy import third_party_taxonomy_matrix

            matrix = third_party_taxonomy_matrix(columns, self.index)
        else:
            matrix = cat_protocol.third_party_categorical_matrix(columns, self.index)
        # Build outside, publish under the lock: the matrix construction is
        # O(n^2) and must not serialise unrelated finalize steps.
        matrix = self._adopt_backend(matrix)
        with self._storage_lock:
            self._raw[attribute] = matrix

    # -- incremental sessions (delta construction) ----------------------------------------

    def begin_delta(self, plan, new_index: GlobalIndex) -> None:
        """Open one ingest epoch: grow every raw matrix to the new frame.

        Surviving pairs keep their exact entries, moved as contiguous row
        slices (:meth:`DissimilarityMatrix.insert_objects`); the
        vacated rows are then filled by the epoch's local tails and
        sub-column protocol blocks.  Normalised matrices go stale here and
        are refreshed per attribute by the scheduler's finalize steps.
        """
        missing = [a.name for a in self.schema if a.name not in self._raw]
        if missing:
            raise ProtocolError(
                f"cannot run a delta before initial construction of: {missing}"
            )
        arrivals = plan.arrival_positions(new_index)
        with self._storage_lock:
            for attribute in self._raw:
                self._raw[attribute] = self._raw[attribute].insert_objects(arrivals)
        self.index = new_index
        self._delta_plan = plan

    def end_delta(self) -> None:
        """Close the current ingest epoch (no-op when none is open).

        The service calls this once the epoch's construction has
        finished; between epochs the third party is quiescent, which is
        what :meth:`snapshot_state` requires.
        """
        self._delta_plan = None

    def receive_local_delta(self, holder: str, tag: str | None = None) -> None:
        """Patch one grown site's new local rows into its diagonal block."""
        message = self.receive(kind="local_matrix_delta", sender=holder, tag=tag)
        attribute = message.payload["attribute"]
        old_size = int(message.payload["old_size"])
        plan = self._delta_plan
        if plan is None or plan.site(holder).old_size != old_size:
            raise ProtocolError(
                f"local delta from {holder!r} does not match the open epoch"
            )
        tail = np.asarray(message.payload["condensed_tail"], dtype=np.float64)
        self._matrix_for(attribute).set_diagonal_delta(
            self.index.offset_of(holder), old_size, self.index.size_of(holder), tail
        )

    def receive_numeric_delta_block(
        self, responder: str, tag: str | None = None
    ) -> None:
        """Unmask one delta comparison matrix into its scattered block."""
        self._absorb_numeric(responder, tag, delta=True)

    def receive_alnum_delta_block(
        self, responder: str, tag: str | None = None
    ) -> None:
        """Decode delta CCMs and place the scattered cross block."""
        self._absorb_alnum(responder, tag, delta=True)

    def receive_encrypted_delta(self, holder: str, tag: str | None = None) -> None:
        """Extend one site's stored ciphertext column with its arrivals."""
        message = self.receive(kind="encrypted_column_delta", sender=holder, tag=tag)
        attribute = message.payload["attribute"]
        spec = self._spec(attribute)
        if spec.attr_type is not AttributeType.CATEGORICAL:
            raise ProtocolError(
                f"encrypted delta for non-categorical attribute {attribute!r}"
            )
        # Size fields are harmless scalars; bind them so the exception text
        # never interpolates the payload mapping itself.
        old_size = int(message.payload["old_size"])
        with self._storage_lock:
            columns = self._pending_categorical.get(attribute)
            if columns is None or holder not in columns:
                raise ProtocolError(
                    f"no stored ciphertext column for {attribute!r} from {holder!r}"
                )
            held = len(columns[holder])
            if held != old_size:
                raise ProtocolError(
                    f"categorical delta from {holder!r} does not extend the "
                    f"stored column ({held} ciphertexts held, "
                    f"holder assumed {old_size})"
                )
            columns[holder].extend(message.payload["ciphertexts"])

    def finalize_categorical_delta(self, attribute: str) -> None:
        """Patch the global categorical matrix for this epoch's arrivals.

        Flat categoricals get their new-pair 0/1 entries written in two
        fancy-indexed blocks (arrivals x survivors, arrivals x arrivals);
        taxonomy-typed columns rebuild from the merged ciphertext paths
        (the path metric is the same pure function either way, so both
        routes are entry-identical to a from-scratch construction).
        """
        plan = self._delta_plan
        if plan is None:
            raise ProtocolError("no open delta epoch")
        columns = self._pending_categorical.get(attribute)
        if columns is None:
            raise ProtocolError(f"no encrypted columns received for {attribute!r}")
        for site in self.index.sites:
            if len(columns.get(site, ())) != self.index.size_of(site):
                raise ProtocolError(
                    f"site {site!r} column has {len(columns.get(site, ()))} "
                    f"ciphertexts, index expects {self.index.size_of(site)}"
                )
        if self._spec(attribute).taxonomy is not None:
            from repro.ext.taxonomy import third_party_taxonomy_matrix

            rebuilt = self._adopt_backend(
                third_party_taxonomy_matrix(columns, self.index)
            )
            with self._storage_lock:
                self._raw[attribute] = rebuilt
            return
        merged = np.empty(self.index.total_objects, dtype=object)
        merged[:] = [c for site in self.index.sites for c in columns[site]]
        fresh = np.asarray(plan.arrival_positions(self.index), dtype=np.int64)
        survivors = np.setdiff1d(
            np.arange(self.index.total_objects, dtype=np.int64), fresh
        )
        matrix = self._matrix_for(attribute)
        matrix.set_block(
            fresh.tolist(),
            survivors.tolist(),
            (merged[fresh][:, None] != merged[survivors][None, :]).astype(np.float64),
        )
        if fresh.size >= 2:
            a, b = np.tril_indices(fresh.size, -1)
            among = DissimilarityMatrix(
                fresh.size,
                (merged[fresh][a] != merged[fresh][b]).astype(np.float64),
            )
            matrix.set_submatrix(fresh.tolist(), among)

    def retire_objects(self, sites: list[str], new_index: GlobalIndex) -> None:
        """Apply announced retirements: shrink every matrix and column.

        Receives one ``retire_records`` message per listed site, maps the
        local ids through the *current* index, drops the rows from every
        raw matrix and stored ciphertext column, adopts the shrunk index
        and re-normalises every attribute (the [0, 1] peak may have left
        with the retired records).  No protocol rounds are needed:
        surviving pairs keep their exact entries.
        """
        positions: list[int] = []
        removed_by_site: dict[str, list[int]] = {}
        for site in sites:
            message = self.receive(kind="retire_records", sender=site)
            local_ids = [int(i) for i in message.payload["local_ids"]]
            size = self.index.size_of(site)
            if len(set(local_ids)) != len(local_ids) or any(
                not 0 <= i < size for i in local_ids
            ):
                raise ProtocolError(
                    f"invalid retirement ids from {site!r}: {local_ids}"
                )
            if len(local_ids) >= size:
                raise ProtocolError(f"site {site!r} cannot retire every record")
            removed_by_site[site] = local_ids
            offset = self.index.offset_of(site)
            positions.extend(offset + i for i in local_ids)
        for site in self.index.sites:
            expected = self.index.size_of(site) - len(removed_by_site.get(site, ()))
            if new_index.size_of(site) != expected:
                raise ProtocolError(
                    f"new index holds {new_index.size_of(site)} objects for "
                    f"{site!r}, retirements imply {expected}"
                )
        with self._storage_lock:
            for attribute in self._raw:
                self._raw[attribute] = self._raw[attribute].remove_objects(positions)
            for columns in self._pending_categorical.values():
                for site, local_ids in removed_by_site.items():
                    drop = set(local_ids)
                    columns[site] = [
                        c for i, c in enumerate(columns[site]) if i not in drop
                    ]
        self.index = new_index
        for spec in self.schema:
            self.finalize_attribute(spec.name)

    # -- assembly (Figure 11) -------------------------------------------------------------

    def finalize_attribute(self, attribute: str) -> None:
        """Normalise the attribute's completed matrix into [0, 1]."""
        raw = self._raw.get(attribute)
        if raw is None:
            raise ProtocolError(f"attribute {attribute!r} was never constructed")
        # Normalisation is O(n^2); run it outside the lock (the raw matrix
        # is complete by the time a finalize step is scheduled) and only
        # publish the result under it.
        normalized = raw.normalized()
        with self._storage_lock:
            self._normalized[attribute] = normalized

    def attribute_matrix(self, attribute: str) -> DissimilarityMatrix:
        """The normalised per-attribute matrix (experiment access).

        In a deployment this never leaves the TP (Section 5); experiments
        and tests read it to verify exactness against the centralized
        baseline.
        """
        try:
            return self._normalized[attribute]
        except KeyError:
            raise ProtocolError(f"attribute {attribute!r} not finalised") from None

    def receive_weights(self, holder: str) -> None:
        """Record one holder's attribute weight vector."""
        message = self.receive(kind="weights", sender=holder)
        weights = list(message.payload)
        if len(weights) != len(self.schema):
            raise ProtocolError(
                f"{holder!r} sent {len(weights)} weights for {len(self.schema)} attributes"
            )
        with self._storage_lock:
            self._weights[holder] = weights

    def snapshot_state(self) -> dict:
        """Serializable construction state for session checkpoints.

        Captures the *raw* condensed matrices (normalisation is a pure
        function of them and is recomputed on restore), the retained
        ciphertext columns (delta/retirement bookkeeping needs them) and
        the holders' weight vectors.  Must be taken between epochs --
        never while a delta is open.
        """
        if self._delta_plan is not None:
            raise ProtocolError("cannot snapshot while a delta epoch is open")
        with self._storage_lock:
            return {
                "raw": {
                    attr: [float(v) for v in matrix.condensed]
                    for attr, matrix in self._raw.items()
                },
                "pending_categorical": {
                    attr: {site: list(column) for site, column in columns.items()}
                    for attr, columns in self._pending_categorical.items()
                },
                "weights": {
                    site: [float(w) for w in vector]
                    for site, vector in self._weights.items()
                },
            }

    def restore_state(self, state: dict) -> None:
        """Install a checkpointed construction state (see :meth:`snapshot_state`)."""
        total = self.index.total_objects
        raw = {
            attr: DissimilarityMatrix(
                total,
                np.asarray(condensed, dtype=np.float64),
                store_spec=self._store_spec,
            )
            for attr, condensed in state["raw"].items()
        }
        with self._storage_lock:
            self._raw = raw
            self._pending_categorical = {
                attr: {site: list(column) for site, column in columns.items()}
                for attr, columns in state["pending_categorical"].items()
            }
            self._weights = {
                site: [float(w) for w in vector]
                for site, vector in state["weights"].items()
            }
        for attr in raw:
            self.finalize_attribute(attr)

    def merged_matrix(
        self,
        weights: list[float] | None = None,
        attributes: list[str] | None = None,
    ) -> DissimilarityMatrix:
        """Weighted merge of the normalised attribute matrices.

        ``weights=None`` averages the holders' submitted vectors (all
        equal vectors therefore behave as any one of them); explicit
        ``weights`` always span the *full* schema.  ``attributes``
        restricts the merge to a subset (a degraded session passes the
        completed attributes); weights for excluded attributes are simply
        not used, so a partial merge over attributes ``S`` is exactly the
        matrix a fault-free session configured with only ``S`` would
        publish.
        """
        if attributes is None:
            names = [a.name for a in self.schema]
        else:
            wanted = set(attributes)
            unknown = wanted - {a.name for a in self.schema}
            if unknown:
                raise ProtocolError(f"unknown attributes {sorted(unknown)}")
            names = [a.name for a in self.schema if a.name in wanted]
        if not names:
            raise ProtocolError("no attributes selected to merge")
        missing = [n for n in names if n not in self._normalized]
        if missing:
            raise ProtocolError(f"attributes not finalised: {missing}")
        if weights is None:
            if self._weights:
                stacked = np.asarray(list(self._weights.values()), dtype=np.float64)
                weights = list(stacked.mean(axis=0))
            else:
                weights = [1.0] * len(self.schema)
        positions = {a.name: i for i, a in enumerate(self.schema)}
        matrices = [self._normalized[n] for n in names]
        return merge_weighted(matrices, [weights[positions[n]] for n in names])

    # -- clustering and publication (Section 5) ----------------------------------------------

    def cluster_and_publish(
        self,
        holders: list[str],
        num_clusters: int,
        linkage: LinkageMethod,
        weights: list[float] | None = None,
        attributes: list[str] | None = None,
    ) -> ClusteringResult:
        """Cluster the merged matrix, publish membership lists to holders.

        ``attributes`` restricts the merge (degraded sessions cluster
        over the attributes that survived; see :meth:`merged_matrix`).
        """
        final = self.merged_matrix(weights, attributes=attributes)
        dendrogram = agglomerative(final, linkage)
        flat = dendrogram.cut_at_k(min(num_clusters, final.num_objects))
        quality = average_square_distance(final, flat)
        result = result_from_labels(
            list(self.index.refs()), flat, quality=quality, linkage=linkage.value
        )
        payload = result.to_payload()
        for holder in holders:
            self.send(holder, kind="result", payload=payload, tag="result")
        return result
