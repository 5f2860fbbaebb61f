"""The data holder role (``DH_J`` / ``DH_K`` in the paper).

A holder owns one horizontal partition.  Per attribute it (a) computes
and ships its local dissimilarity matrix (Figure 12 -- pairs inside one
site need no privacy machinery), and (b) participates in the pairwise
comparison protocol with every other holder, as initiator or responder
(Section 4: the protocol runs once per holder pair per attribute).
"""

from __future__ import annotations

import numpy as np

from repro.core import alphanumeric as alnum_protocol
from repro.core import categorical as cat_protocol
from repro.core import labels
from repro.core.labels import RunScope
from repro.core import numeric as num_protocol
from repro.core.config import ProtocolSuiteConfig
from repro.crypto.detenc import DeterministicEncryptor
from repro.crypto.keys import fresh_group_key
from repro.crypto.prng import ReseedablePRNG
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.distance.dissimilarity import DissimilarityMatrix, condensed_tail_indices
from repro.distance.edit import pairwise_edit_distance_rows, pairwise_edit_distances
from repro.distance.numeric import FixedPointCodec
from repro.exceptions import CryptoError, ProtocolError
from repro.network.transport import Transport
from repro.parties.base import Party
from repro.types import AttributeType


#: Encoded magnitudes below 2^51 keep ``|a - b|`` under 2^52, where the
#: float64 descaling is exact, so the broadcast local matrix matches the
#: scalar Figure 12 loop bit for bit.
_EXACT_LOCAL_BOUND = 1 << 51

#: Message kind and data field of the numeric initiator's masked input,
#: by ``suite.batch_numeric``.
_NUMERIC_INPUT = {True: ("masked_vector", "values"), False: ("masked_matrix", "rows")}


def _numeric_condensed_tail(
    encoded: list[int], old_size: int, codec: FixedPointCodec
) -> np.ndarray:
    """Condensed rows ``old_size`` onward of the local ``|a - b|`` matrix
    (the whole matrix from row 0).

    Magnitudes the int64 broadcast cannot carry exactly fall back to
    Python integers; both routes emit bitwise the same floats, so a delta
    tail matches the corresponding segment of a full recomputation.
    """
    i, j = condensed_tail_indices(old_size, len(encoded))
    try:
        arr = np.asarray(encoded, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        arr = np.asarray(encoded, dtype=object)  # exact Python integers
    # Max and min, not abs: abs(-2**63) wraps to a negative int64.
    if arr.size and max(int(arr.max()), -int(arr.min())) >= _EXACT_LOCAL_BOUND:
        arr = arr.astype(object)
    return codec.decode_distance_array(np.abs(arr[i] - arr[j]))


class DataHolder(Party):
    """A semi-honest data holder participating in the session."""

    def __init__(
        self,
        name: str,
        matrix: DataMatrix,
        network: Transport,
        suite: ProtocolSuiteConfig,
        entropy: ReseedablePRNG,
    ) -> None:
        super().__init__(name, network)
        self.matrix = matrix
        self._suite = suite
        self._entropy = entropy
        self._group_key: bytes | None = None

    # -- helpers ---------------------------------------------------------

    def _codec(self, spec: AttributeSpec) -> FixedPointCodec:
        return FixedPointCodec(spec.precision)

    def _column(self, spec: AttributeSpec) -> list:
        return self.matrix.column_by_name(spec.name)

    def _tag(self, spec: AttributeSpec) -> str:
        return labels.attribute_tag(spec)

    # -- local dissimilarity (Figure 12) -----------------------------------

    def local_matrix(self, spec: AttributeSpec) -> DissimilarityMatrix:
        """Local per-attribute dissimilarity over this site's objects.

        Numeric distances go through the fixed-point codec so local and
        cross-site entries follow the *identical* comparison function --
        the precondition for the paper's zero-accuracy-loss property.
        """
        return DissimilarityMatrix(self.matrix.num_rows, self._local_tail(spec, 0))

    def _local_tail(self, spec: AttributeSpec, old_size: int) -> np.ndarray:
        """Condensed local rows ``old_size`` onward (all of them from 0)."""
        column = self._column(spec)
        if spec.attr_type is AttributeType.NUMERIC:
            codec = self._codec(spec)
            return _numeric_condensed_tail(codec.encode_column(column), old_size, codec)
        if spec.attr_type is AttributeType.ALPHANUMERIC:
            # Whole triangle or tail: the e2e tracer wraps both bindings.
            if old_size == 0:
                return pairwise_edit_distances(column).astype(np.float64)
            return pairwise_edit_distance_rows(column, old_size).astype(np.float64)
        raise ProtocolError(
            f"local matrices are not built for {spec.attr_type.value} attributes; "
            "the third party builds the categorical matrix globally"
        )

    def send_local_matrix(self, tp_name: str, spec: AttributeSpec) -> None:
        """Ship the condensed local matrix to the third party."""
        condensed = self.local_matrix(spec).condensed
        self.send(
            tp_name,
            kind="local_matrix",
            payload={"attribute": spec.name, "condensed": np.asarray(condensed)},
            tag=self._tag(spec),
        )

    # -- incremental sessions (delta construction) --------------------------

    def ingest_rows(self, rows: DataMatrix) -> None:
        """Append an arrival batch to this site's partition.

        Arrivals take the next local ids, so every existing record's
        position inside the site is stable -- the property the delta
        label grammar and the differential-equivalence guarantee rest on.
        """
        self.matrix = self.matrix.concat(rows)

    def retire_rows(self, local_ids: list[int]) -> None:
        """Drop records; survivors compact while keeping relative order."""
        drop = set(local_ids)
        keep = [i for i in range(self.matrix.num_rows) if i not in drop]
        self.matrix = self.matrix.take(keep)

    def announce_retirement(self, tp_name: str, local_ids: list[int]) -> None:
        """Tell the third party which local records left this site.

        Local ids reveal nothing beyond the (public) partition sizes; the
        TP needs them to shrink its matrices in the right rows.
        """
        self.send(
            tp_name,
            kind="retire_records",
            payload={"local_ids": sorted(int(i) for i in local_ids)},
            tag="delta",
        )

    def send_local_delta(self, tp_name: str, spec: AttributeSpec, old_size: int) -> None:
        """Ship the new condensed rows of this site's local matrix.

        Covers every pair touching an arrival *within* this site (each
        new record against all earlier locals plus the new-new triangle)
        at O(added * size) cost -- the already-shipped triangle is never
        recomputed or resent.
        """
        size = self.matrix.num_rows
        if not 0 <= old_size <= size:
            raise ProtocolError(
                f"local delta old_size {old_size} out of range for {size} objects"
            )
        tail = self._local_tail(spec, old_size)
        self.send(
            tp_name,
            kind="local_matrix_delta",
            payload={
                "attribute": spec.name,
                "old_size": old_size,
                "condensed_tail": np.asarray(tail),
            },
            tag=self._tag(spec),
        )

    # -- comparison protocol runs (Sections 4.1-4.2) ------------------------
    #
    # One body per role, over a run scope and this holder's rows in the
    # run: ``RunScope()`` and all rows for the initial construction.

    def numeric_initiate(
        self, spec: AttributeSpec, responder: str, tp_name: str, responder_size: int
    ) -> None:
        """Act as DHJ for one (attribute, responder) pairing."""
        self._numeric_initiate(
            spec, responder, tp_name, RunScope(), slice(None), responder_size
        )

    def numeric_initiate_delta(
        self,
        spec: AttributeSpec,
        responder: str,
        tp_name: str,
        part: str,
        epoch: int,
        own_range: tuple[int, int],
        responder_size: int,
    ) -> None:
        """DHJ's step for one delta run over the ``own_range`` rows (its
        arrivals for ``"grow"``, its pre-epoch base for ``"base"``)."""
        self._numeric_initiate(
            spec, responder, tp_name, RunScope(epoch, part), slice(*own_range),
            responder_size,
        )

    def numeric_respond(
        self, spec: AttributeSpec, initiator: str, tp_name: str
    ) -> None:
        """Act as DHK: consume the masked input, ship matrix ``s`` to TP."""
        self._numeric_respond(spec, initiator, tp_name, RunScope(), slice(None))

    def numeric_respond_delta(
        self,
        spec: AttributeSpec,
        initiator: str,
        tp_name: str,
        part: str,
        epoch: int,
        own_range: tuple[int, int],
    ) -> None:
        """DHK's step for one delta run over its scheduled sub-column."""
        self._numeric_respond(
            spec, initiator, tp_name, RunScope(epoch, part), slice(*own_range)
        )

    def alnum_initiate(self, spec: AttributeSpec, responder: str, tp_name: str) -> None:
        """Act as DHJ: mask every string with the shared random vector."""
        self._alnum_initiate(spec, responder, tp_name, RunScope(), slice(None))

    def alnum_initiate_delta(
        self,
        spec: AttributeSpec,
        responder: str,
        tp_name: str,
        part: str,
        epoch: int,
        own_range: tuple[int, int],
    ) -> None:
        """DHJ's delta step: mask only the run's sub-column of strings."""
        self._alnum_initiate(
            spec, responder, tp_name, RunScope(epoch, part), slice(*own_range)
        )

    def alnum_respond(self, spec: AttributeSpec, initiator: str, tp_name: str) -> None:
        """Act as DHK: build intermediary CCMs, ship them to TP."""
        self._alnum_respond(spec, initiator, tp_name, RunScope(), slice(None))

    def alnum_respond_delta(
        self,
        spec: AttributeSpec,
        initiator: str,
        tp_name: str,
        part: str,
        epoch: int,
        own_range: tuple[int, int],
    ) -> None:
        """DHK's delta step: intermediary CCMs for the scheduled slice."""
        self._alnum_respond(
            spec, initiator, tp_name, RunScope(epoch, part), slice(*own_range)
        )

    def _run_prng(self, peer: str, scope: RunScope, base_label: str) -> ReseedablePRNG:
        secret = self.secret_with(peer)
        return secret.prng(scope.label(base_label), self._suite.prng_kind)

    def _receive_run_input(
        self, kind: str, field: str, spec: AttributeSpec, sender: str, scope: RunScope
    ):
        """One run's masked input, checked against the run before any compute.

        The payload's (attribute, part, epoch) must name ``spec`` under
        ``scope`` and its data ``field`` must be present.  The exception
        text names fields and the lane, never a received value.
        """
        payload = self.receive(kind=kind, sender=sender, tag=self._tag(spec)).payload
        if not isinstance(payload, dict) or field not in payload:
            raise ProtocolError(f"{kind} from {sender!r} carries no {field!r}")
        expected = {"attribute": spec.name, "part": None, "epoch": None, **scope.meta()}
        wrong = [key for key, value in expected.items() if payload.get(key) != value]
        if wrong:
            raise ProtocolError(
                f"{kind} from {sender!r} does not match the run "
                f"{tuple(expected.values())}: {wrong} differ"
            )
        return payload[field]

    def _numeric_initiate(
        self,
        spec: AttributeSpec,
        responder: str,
        tp_name: str,
        scope: RunScope,
        rows: slice,
        responder_size: int,
    ) -> None:
        suite = self._suite
        rng_jk = self._run_prng(
            responder, scope, labels.numeric_jk(spec.name, self.name, responder)
        )
        rng_jt = self._run_prng(
            tp_name, scope, labels.numeric_jt(spec.name, self.name, responder)
        )
        encoded = self._codec(spec).encode_column(self._column(spec)[rows])
        kind, field = _NUMERIC_INPUT[suite.batch_numeric]
        if suite.batch_numeric:
            masked = num_protocol.initiator_mask_batch(
                encoded, rng_jk, rng_jt, suite.mask_bits
            )
        else:
            masked = num_protocol.initiator_mask_per_pair(
                encoded, responder_size, rng_jk, rng_jt, suite.mask_bits
            )
        self.send(
            responder,
            kind=kind,
            payload={"attribute": spec.name, **scope.meta(), field: masked},
            tag=self._tag(spec),
        )

    def _numeric_respond(
        self,
        spec: AttributeSpec,
        initiator: str,
        tp_name: str,
        scope: RunScope,
        rows: slice,
    ) -> None:
        batch = self._suite.batch_numeric
        kind, field = _NUMERIC_INPUT[batch]
        masked = self._receive_run_input(kind, field, spec, initiator, scope)
        rng_jk = self._run_prng(
            initiator, scope, labels.numeric_jk(spec.name, initiator, self.name)
        )
        encoded = self._codec(spec).encode_column(self._column(spec)[rows])
        if batch:
            matrix = num_protocol.responder_matrix_batch(encoded, masked, rng_jk)
        else:
            matrix = num_protocol.responder_matrix_per_pair(encoded, masked, rng_jk)
        self.send(
            tp_name,
            kind="comparison_matrix",
            payload={
                "attribute": spec.name,
                "initiator": initiator,
                **scope.meta(),
                "matrix": matrix,
            },
            tag=self._tag(spec),
        )

    def _alnum_initiate(
        self,
        spec: AttributeSpec,
        responder: str,
        tp_name: str,
        scope: RunScope,
        rows: slice,
    ) -> None:
        assert spec.alphabet is not None
        rng_jt = self._run_prng(
            tp_name, scope, labels.alnum_jt(spec.name, self.name, responder)
        )
        strings = self._column(spec)[rows]
        if self._suite.fresh_string_masks:
            masked = alnum_protocol.initiator_mask_strings_fresh(
                strings, spec.alphabet, rng_jt
            )
        else:
            masked = alnum_protocol.initiator_mask_strings(
                strings, spec.alphabet, rng_jt
            )
        self.send(
            responder,
            kind="masked_strings",
            payload={"attribute": spec.name, **scope.meta(), "strings": masked},
            tag=self._tag(spec),
        )

    def _alnum_respond(
        self,
        spec: AttributeSpec,
        initiator: str,
        tp_name: str,
        scope: RunScope,
        rows: slice,
    ) -> None:
        assert spec.alphabet is not None
        masked = self._receive_run_input(
            "masked_strings", "strings", spec, initiator, scope
        )
        matrices = alnum_protocol.responder_ccm_matrices(
            self._column(spec)[rows], masked, spec.alphabet
        )
        self.send(
            tp_name,
            kind="ccm_matrices",
            payload={
                "attribute": spec.name,
                "initiator": initiator,
                **scope.meta(),
                "matrices": matrices,
            },
            tag=self._tag(spec),
        )

    # -- categorical protocol (Section 4.3) -------------------------------------

    def distribute_group_key(self, other_holders: list[str]) -> None:
        """As group leader, mint and share the categorical encryption key.

        The paper assumes the holders "share a secret key"; the leader
        (lexicographically first holder) realises that by generating one
        and sending it over the *secured* holder-holder channels.  The
        third party never sees it (non-collusion, Section 3).
        """
        key = fresh_group_key(self._entropy)
        self._group_key = key
        for peer in other_holders:
            self.send(peer, kind="group_key", payload=key, tag="setup")

    def receive_group_key(self, leader: str) -> None:
        """Receive the group key from the leader."""
        message = self.receive(kind="group_key", sender=leader)
        self._group_key = message.payload

    def group_key_bytes(self) -> bytes | None:
        """The categorical group key, for session checkpoints only.

        Checkpoints stay inside the holder trust domain (the TP never
        sees them), so exporting the key here does not widen Section 3's
        threat model.
        """
        return self._group_key

    def install_group_key(self, value: bytes) -> None:
        """Restore a checkpointed group key without re-running distribution."""
        self._group_key = value

    def entropy_draws(self) -> int:
        """Words drawn from this holder's private entropy (checkpointing)."""
        return self._entropy.draws

    def advance_entropy(self, target: int) -> None:
        """Fast-forward this holder's entropy to a checkpointed position."""
        try:
            self._entropy.fast_forward(target)
        except CryptoError as exc:
            raise ProtocolError(f"{self.name!r} entropy: {exc}") from None

    def send_categorical(self, spec: AttributeSpec, tp_name: str) -> None:
        """Encrypt this site's column deterministically and ship it.

        Flat categoricals send one ciphertext per object (Section 4.3);
        taxonomy-typed categoricals send the ciphertexts of every root
        path prefix (the hierarchical extension, O(n * depth)).
        """
        self._send_categorical(spec, tp_name, None)

    def send_categorical_delta(
        self, spec: AttributeSpec, tp_name: str, old_size: int
    ) -> None:
        """Encrypt and ship only the arrivals' categorical values."""
        self._send_categorical(spec, tp_name, old_size)

    def _send_categorical(
        self, spec: AttributeSpec, tp_name: str, old_size: int | None
    ) -> None:
        """Ship rows ``old_size`` onward, or the whole column when ``None``."""
        if self._group_key is None:
            raise ProtocolError(
                f"{self.name!r} has no categorical group key; run key distribution"
            )
        column = self._column(spec)
        if old_size is not None and not 0 <= old_size <= len(column):
            raise ProtocolError(
                f"categorical delta old_size {old_size} out of range for "
                f"{len(column)} objects"
            )
        encryptor = DeterministicEncryptor(
            self._group_key, digest_size=self._suite.categorical_digest_size
        )
        fresh = column if old_size is None else column[old_size:]
        if spec.taxonomy is not None:
            ciphertexts: list = spec.taxonomy.encrypt_column(encryptor, spec.name, fresh)
        else:
            ciphertexts = cat_protocol.holder_encrypt_column(encryptor, spec.name, fresh)
        if old_size is None:
            kind, sizes = "encrypted_column", {}
        else:
            kind, sizes = "encrypted_column_delta", {"old_size": old_size}
        self.send(
            tp_name,
            kind=kind,
            payload={"attribute": spec.name, **sizes, "ciphertexts": ciphertexts},
            tag=self._tag(spec),
        )

    # -- weights and results ------------------------------------------------------

    def send_weights(self, tp_name: str, weights: list[float]) -> None:
        """Send this holder's attribute weight vector (Section 5)."""
        if len(weights) != self.matrix.num_attributes:
            raise ProtocolError(
                f"{len(weights)} weights for {self.matrix.num_attributes} attributes"
            )
        self.send(tp_name, kind="weights", payload=list(map(float, weights)), tag="setup")

    def receive_result(self, tp_name: str):
        """Receive the published clustering result."""
        from repro.core.results import ClusteringResult

        message = self.receive(kind="result", sender=tp_name)
        return ClusteringResult.from_payload(message.payload)
