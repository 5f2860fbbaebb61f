"""Vectorized engine vs scalar reference: byte-identical protocol messages.

The rewrite of :mod:`repro.core.numeric` and :mod:`repro.core.alphanumeric`
as array operations must not change a single protocol message relative to
the paper-shaped scalar implementations preserved in
:mod:`repro.core.reference`.  These tests drive both engines with clone
generators over random inputs -- every PRNG kind, mask widths below,
at and above 64 bits (the int64 fast path and the object-dtype exact
fallback) -- and compare the *serialized wire bytes*, not just the
values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import alphanumeric as alnum_vec
from repro.core import numeric as num_vec
from repro.core import reference as ref
from repro.crypto.prng import available_kinds, make_prng
from repro.data.alphabet import DNA_ALPHABET, FIGURE7_ALPHABET, Alphabet
from repro.distance.edit import edit_distance, edit_distance_from_ccm
from repro.network.serialization import serialize

ALL_KINDS = available_kinds()
WIDE_ALPHABET = Alphabet("abcdefghijklmnopqrstuvwxyz0123456789")


def _clones(seed, kind):
    return make_prng(seed, kind), make_prng(seed, kind)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("mask_bits", [16, 62, 64, 96, 128])
class TestNumericWireEquivalence:
    VALUES_J = [3, -15, 1000, 0, 7, 2**70, -(2**65)]
    VALUES_K = [8, 8, -100, 2**70 + 3]

    def test_batch_messages_byte_identical(self, kind, mask_bits):
        jk_v, jk_r = _clones(1, kind)
        jt_v, jt_r = _clones(2, kind)
        masked_v = num_vec.initiator_mask_batch(self.VALUES_J, jk_v, jt_v, mask_bits)
        masked_r = ref.initiator_mask_batch(self.VALUES_J, jk_r, jt_r, mask_bits)
        assert serialize(masked_v) == serialize(masked_r)
        jk_v, jk_r = _clones(1, kind)
        matrix_v = num_vec.responder_matrix_batch(self.VALUES_K, masked_v, jk_v)
        matrix_r = ref.responder_matrix_batch(self.VALUES_K, masked_r, jk_r)
        assert serialize(matrix_v) == serialize(matrix_r)
        jt_v, jt_r = _clones(2, kind)
        unmasked_v = num_vec.third_party_unmask_batch(matrix_v, jt_v, mask_bits)
        unmasked_r = ref.third_party_unmask_batch(matrix_r, jt_r, mask_bits)
        assert unmasked_v.tolist() == unmasked_r

    def test_per_pair_messages_byte_identical(self, kind, mask_bits):
        jk_v, jk_r = _clones(3, kind)
        jt_v, jt_r = _clones(4, kind)
        m = len(self.VALUES_K)
        masked_v = num_vec.initiator_mask_per_pair(
            self.VALUES_J, m, jk_v, jt_v, mask_bits
        )
        masked_r = ref.initiator_mask_per_pair(
            self.VALUES_J, m, jk_r, jt_r, mask_bits
        )
        assert serialize(masked_v) == serialize(masked_r)
        jk_v, jk_r = _clones(3, kind)
        matrix_v = num_vec.responder_matrix_per_pair(self.VALUES_K, masked_v, jk_v)
        matrix_r = ref.responder_matrix_per_pair(self.VALUES_K, masked_r, jk_r)
        assert serialize(matrix_v) == serialize(matrix_r)
        jt_v, jt_r = _clones(4, kind)
        unmasked_v = num_vec.third_party_unmask_per_pair(matrix_v, jt_v, mask_bits)
        unmasked_r = ref.third_party_unmask_per_pair(matrix_r, jt_r, mask_bits)
        assert unmasked_v.tolist() == unmasked_r


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("mask_bits", [20, 64, 80])
def test_numeric_mid_stream_generators_still_agree(kind, mask_bits):
    """Scalar Figure 5/6 semantics: row 0 consumes the generator's entry
    state, rows 1+ the post-reset state.  The vectorized engine must
    reproduce both even when handed a generator mid-stream."""
    values_j, values_k = [3, -15, 1000, 0], [8, 8, -100]
    jk_v, jk_r = _clones(1, kind)
    jt_v, jt_r = _clones(2, kind)
    for g in (jk_v, jk_r, jt_v, jt_r):
        g.next_uint64()
        g.next_uint64()
    masked = ref.initiator_mask_batch(values_j, make_prng(1, kind), make_prng(2, kind), mask_bits)
    matrix_v = num_vec.responder_matrix_batch(values_k, masked, jk_v)
    matrix_r = ref.responder_matrix_batch(values_k, masked, jk_r)
    assert matrix_v == matrix_r
    unmasked_v = num_vec.third_party_unmask_batch(matrix_v, jt_v, mask_bits)
    unmasked_r = ref.third_party_unmask_batch(matrix_r, jt_r, mask_bits)
    assert unmasked_v.tolist() == unmasked_r


@given(
    kind=st.sampled_from(ALL_KINDS),
    mask_bits=st.integers(16, 90),
    seed=st.integers(0, 2**32),
    values_j=st.lists(st.integers(-(2**66), 2**66), max_size=6),
    values_k=st.lists(st.integers(-(2**66), 2**66), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_property_numeric_batch_equivalence(kind, mask_bits, seed, values_j, values_k):
    jk_v, jk_r = _clones(seed, kind)
    jt_v, jt_r = _clones(seed + 1, kind)
    masked_v = num_vec.initiator_mask_batch(values_j, jk_v, jt_v, mask_bits)
    masked_r = ref.initiator_mask_batch(values_j, jk_r, jt_r, mask_bits)
    assert masked_v == masked_r
    assert jt_v.draws == jt_r.draws and jk_v.draws == jk_r.draws
    jk_v, jk_r = _clones(seed, kind)
    matrix_v = num_vec.responder_matrix_batch(values_k, masked_v, jk_v)
    matrix_r = ref.responder_matrix_batch(values_k, masked_r, jk_r)
    assert matrix_v == matrix_r
    jt_v, jt_r = _clones(seed + 1, kind)
    unmasked_v = num_vec.third_party_unmask_batch(matrix_v, jt_v, mask_bits)
    unmasked_r = ref.third_party_unmask_batch(matrix_r, jt_r, mask_bits)
    assert unmasked_v.tolist() == unmasked_r


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize(
    "alphabet", [DNA_ALPHABET, FIGURE7_ALPHABET, WIDE_ALPHABET]
)
class TestAlphanumericWireEquivalence:
    def _strings(self, alphabet, seed):
        rng = np.random.default_rng(seed)
        chars = alphabet.characters
        return [
            "".join(chars[i] for i in rng.integers(0, len(chars), size=size))
            for size in (0, 5, 9, 1, 7)
        ]

    def test_masked_strings_byte_identical(self, kind, alphabet):
        strings = self._strings(alphabet, 0)
        jt_v, jt_r = _clones(5, kind)
        masked_v = alnum_vec.initiator_mask_strings(strings, alphabet, jt_v)
        masked_r = ref.initiator_mask_strings(strings, alphabet, jt_r)
        assert serialize(masked_v) == serialize(masked_r)

    def test_decode_and_distances_match_reference(self, kind, alphabet):
        strings_j = self._strings(alphabet, 1)
        strings_k = self._strings(alphabet, 2)[1:]
        masked = ref.initiator_mask_strings(strings_j, alphabet, make_prng(6, kind))
        matrices = alnum_vec.responder_ccm_matrices(strings_k, masked, alphabet)
        for row in matrices:
            for intermediary in row:
                ccm_v = alnum_vec.third_party_decode_ccm(
                    intermediary, alphabet, make_prng(6, kind)
                )
                ccm_r = ref.third_party_decode_ccm(
                    intermediary, alphabet, make_prng(6, kind)
                )
                assert np.array_equal(ccm_v, ccm_r)
        distances = alnum_vec.third_party_distances(
            matrices, alphabet, make_prng(6, kind)
        )
        expected = [
            [
                edit_distance_from_ccm(
                    ref.third_party_decode_ccm(m, alphabet, make_prng(6, kind))
                )
                for m in row
            ]
            for row in matrices
        ]
        assert distances.tolist() == expected

    def test_mid_stream_generators_still_agree(self, kind, alphabet):
        """Scalar Figure 8/10 semantics: the first string/row consumes the
        generator's entry state, everything later the post-reset state.
        The vectorized engine reproduces both."""
        strings = self._strings(alphabet, 3)
        jt_v, jt_r = _clones(7, kind)
        jt_v.next_uint64()
        jt_r.next_uint64()
        assert alnum_vec.initiator_mask_strings(
            strings, alphabet, jt_v
        ) == ref.initiator_mask_strings(strings, alphabet, jt_r)
        masked = ref.initiator_mask_strings(strings, alphabet, make_prng(8, kind))
        matrices = alnum_vec.responder_ccm_matrices(strings[1:], masked, alphabet)
        jt_v, jt_r = _clones(8, kind)
        jt_v.next_uint64()
        jt_r.next_uint64()
        ccm_v = alnum_vec.third_party_decode_ccm(matrices[0][1], alphabet, jt_v)
        ccm_r = ref.third_party_decode_ccm(matrices[0][1], alphabet, jt_r)
        assert np.array_equal(ccm_v, ccm_r)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_out_of_range_codes_binarise_like_reference(self, kind, alphabet, dtype):
        """Codes a responder never sends (>= |A|, a wider dtype) still
        unmask exactly as the scalar Figure 10 loop reads them."""
        rng = np.random.default_rng(4)
        matrices = [
            [rng.integers(0, 256, (rows, cols)).astype(dtype) for cols in (0, 3, 5, 3)]
            for rows in (2, 0, 4)
        ]
        got = alnum_vec.third_party_distances(matrices, alphabet, make_prng(9, kind))
        tp = make_prng(9, kind)
        want = [
            [edit_distance_from_ccm(ref.third_party_decode_ccm(m, alphabet, tp)) for m in row]
            for row in matrices
        ]
        assert got.tolist() == want

    @given(
        lengths_j=st.lists(st.integers(0, 6), max_size=6),
        lengths_k=st.lists(st.integers(0, 6), max_size=5),
        seed=st.integers(0, 2**32),
        fresh=st.booleans(),
        skip=st.integers(0, 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_ragged_ccm_blocks_match_reference(
        self, kind, alphabet, lengths_j, lengths_k, seed, fresh, skip
    ):
        """Ragged length mixes (empty strings included), both mask
        variants, TP generators passed in mid-stream: the shape-grouped
        CCM build and binarisation give the scalar Figure 9-10 results,
        the CCM message keeps its wire bytes, and the TP generator ends
        in the scalar loop's state."""
        rng = np.random.default_rng(seed)
        chars = alphabet.characters
        strings_j, strings_k = (
            ["".join(chars[i] for i in rng.integers(0, len(chars), n)) for n in lengths]
            for lengths in (lengths_j, lengths_k)
        )
        size = alphabet.size
        if fresh:
            masked = alnum_vec.initiator_mask_strings_fresh(
                strings_j, alphabet, make_prng(seed, kind)
            )
        else:
            masked = ref.initiator_mask_strings(strings_j, alphabet, make_prng(seed, kind))
        matrices = alnum_vec.responder_ccm_matrices(strings_k, masked, alphabet)
        expected = [
            [
                np.array(
                    [[(alphabet.index(a) - alphabet.index(b)) % size for a in s] for b in t],
                    dtype=np.uint8,
                ).reshape(len(t), len(s))
                for s in masked
            ]
            for t in strings_k
        ]
        assert serialize(matrices) == serialize(expected)

        tp_v, tp_r = _clones(seed, kind)
        for generator in (tp_v, tp_r):
            for _ in range(skip):
                generator.next_uint64()
        if fresh:
            got = alnum_vec.third_party_distances_fresh(matrices, alphabet, tp_v)
            # String lengths are read off the CCMs, so no rows, no draws.
            masks = [[tp_r.next_below(size) for _ in s] for s in masked] if matrices else []
            want = [
                [
                    edit_distance_from_ccm(
                        np.array(
                            [
                                [alphabet.unshift_code(int(c), mask) != 0 for c, mask in zip(line, masks[n])]
                                for line in m
                            ],
                            dtype=np.uint8,
                        ).reshape(m.shape)
                    )
                    for n, m in enumerate(row)
                ]
                for row in matrices
            ]
        else:
            got = alnum_vec.third_party_distances(matrices, alphabet, tp_v)
            want = [
                [edit_distance_from_ccm(ref.third_party_decode_ccm(m, alphabet, tp_r)) for m in row]
                for row in matrices
            ]
        assert got.tolist() == want
        assert tp_v.next_uint64() == tp_r.next_uint64()
        if skip == 0:
            assert want == [[edit_distance(s, t) for s in strings_j] for t in strings_k]
