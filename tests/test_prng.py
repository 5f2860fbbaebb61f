"""Unit and property tests for the re-seedable PRNGs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.prng import (
    HashDRBG,
    Lcg64,
    ReseedablePRNG,
    XorShift64Star,
    available_kinds,
    make_prng,
)
from repro.exceptions import ConfigurationError, CryptoError

ALL_KINDS = available_kinds()


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestDeterminism:
    def test_same_seed_same_stream(self, kind):
        a = make_prng(1234, kind)
        b = make_prng(1234, kind)
        assert [a.next_uint64() for _ in range(50)] == [
            b.next_uint64() for _ in range(50)
        ]

    def test_different_seeds_differ(self, kind):
        a = make_prng(1, kind)
        b = make_prng(2, kind)
        assert [a.next_uint64() for _ in range(8)] != [
            b.next_uint64() for _ in range(8)
        ]

    def test_reset_restores_stream(self, kind):
        g = make_prng("seed", kind)
        first = [g.next_uint64() for _ in range(20)]
        g.reset()
        assert [g.next_uint64() for _ in range(20)] == first

    def test_reset_mid_buffer(self, kind):
        """Reset must discard internal buffering (HashDRBG serves 4 words
        per hash block; a stale buffer would misalign parties)."""
        g = make_prng("seed", kind)
        g.next_uint64()
        g.reset()
        h = make_prng("seed", kind)
        assert [g.next_uint64() for _ in range(9)] == [
            h.next_uint64() for _ in range(9)
        ]

    def test_draw_counter(self, kind):
        g = make_prng(7, kind)
        assert g.draws == 0
        g.next_uint64()
        g.next_bits(128)  # two words
        assert g.draws == 3
        g.reset()
        assert g.draws == 0

    def test_seed_types_accepted(self, kind):
        for seed in (0, -5, 2**200, b"bytes", "text"):
            g = make_prng(seed, kind)
            assert isinstance(g.next_uint64(), int)

    def test_seed_property(self, kind):
        assert make_prng(99, kind).seed == 99

    def test_seed_types_are_domain_separated(self, kind):
        """Regression: ``97``, ``b"a"`` and ``"a"`` share raw byte
        encodings; the type tag must still split their streams."""
        streams = {
            label: make_prng(seed, kind).next_uint64()
            for label, seed in (("int", 97), ("bytes", b"a"), ("str", "a"))
        }
        assert len(set(streams.values())) == 3

    def test_negative_seed_distinct_from_positive(self, kind):
        assert make_prng(-5, kind).next_uint64() != make_prng(5, kind).next_uint64()


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestRanges:
    def test_uint64_range(self, kind):
        g = make_prng(3, kind)
        for _ in range(200):
            v = g.next_uint64()
            assert 0 <= v < 2**64

    def test_next_bits_width(self, kind):
        g = make_prng(4, kind)
        for bits in (1, 7, 32, 63, 64, 65, 128, 500):
            v = g.next_bits(bits)
            assert 0 <= v < 2**bits

    def test_next_bits_rejects_nonpositive(self, kind):
        g = make_prng(5, kind)
        with pytest.raises(ConfigurationError):
            g.next_bits(0)
        with pytest.raises(ConfigurationError):
            g.next_bits(-1)

    def test_next_below_bounds(self, kind):
        g = make_prng(6, kind)
        for bound in (1, 2, 3, 7, 100, 2**40):
            for _ in range(20):
                assert 0 <= g.next_below(bound) < bound

    def test_next_below_rejects_nonpositive(self, kind):
        g = make_prng(7, kind)
        with pytest.raises(ConfigurationError):
            g.next_below(0)

    def test_next_below_covers_support(self, kind):
        g = make_prng(8, kind)
        seen = {g.next_below(4) for _ in range(300)}
        assert seen == {0, 1, 2, 3}

    def test_sign_bit_is_binary_and_varied(self, kind):
        g = make_prng(9, kind)
        bits = [g.next_sign_bit() for _ in range(400)]
        assert set(bits) <= {0, 1}
        # All kinds must produce both values with healthy frequency; this
        # is exactly what the raw low bit of an LCG would fail.
        assert 100 < sum(bits) < 300


class TestKindSpecifics:
    def test_lcg_low_bit_alternates(self):
        """Documents why next_bits reads top bits: the raw LCG low bit is
        a deterministic alternation."""
        g = Lcg64(42)
        low_bits = [g.next_uint64() & 1 for _ in range(16)]
        assert low_bits == [low_bits[0], 1 - low_bits[0]] * 8

    def test_kinds_are_domain_separated(self):
        streams = {
            kind: make_prng(777, kind).next_uint64() for kind in ALL_KINDS
        }
        assert len(set(streams.values())) == len(ALL_KINDS)

    def test_xorshift_nonzero_state(self):
        g = XorShift64Star(0)
        assert g.next_uint64() != 0

    def test_factory_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_prng(1, "mersenne")

    def test_available_kinds_sorted(self):
        assert list(ALL_KINDS) == sorted(ALL_KINDS)

    def test_hash_drbg_block_boundary(self):
        """Words spanning hash-block refills stay aligned across clones."""
        a, b = HashDRBG("x"), HashDRBG("x")
        for _ in range(3):
            a.next_uint64()
            b.next_uint64()
        assert a.next_bits(256) == b.next_bits(256)

    def test_rand_bits_callable_adapter(self):
        g = make_prng(10)
        f = g.rand_bits_callable()
        assert 0 <= f(17) < 2**17


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestBlockDraws:
    """The vectorized engine's hard invariant: block draws consume the
    identical word stream as the corresponding scalar draws."""

    def test_next_words_equals_scalar_stream(self, kind):
        for count in (1, 3, 4, 5, 9, 64, 257):
            block, scalar = make_prng("w", kind), make_prng("w", kind)
            assert block.next_words(count).tolist() == [
                scalar.next_uint64() for _ in range(count)
            ]
            assert block.draws == scalar.draws == count

    def test_block_and_scalar_interleave(self, kind):
        block, scalar = make_prng(3, kind), make_prng(3, kind)
        block.next_uint64()
        scalar.next_uint64()
        assert block.next_words(7).tolist() == [
            scalar.next_uint64() for _ in range(7)
        ]
        assert block.next_uint64() == scalar.next_uint64()

    def test_sign_bits_block(self, kind):
        block, scalar = make_prng(4, kind), make_prng(4, kind)
        assert block.next_sign_bits(100).tolist() == [
            scalar.next_sign_bit() for _ in range(100)
        ]

    def test_below_block_consumes_identical_rejections(self, kind):
        for bound in (1, 2, 3, 4, 5, 26, 1000, 2**40):
            block, scalar = make_prng(bound, kind), make_prng(bound, kind)
            assert block.next_below_block(50, bound).tolist() == [
                scalar.next_below(bound) for _ in range(50)
            ]
            assert block.draws == scalar.draws
            # The word AFTER the block must line up too (exact rewind).
            assert block.next_uint64() == scalar.next_uint64()

    def test_reset_after_block(self, kind):
        g = make_prng("rb", kind)
        first = g.next_words(17)
        g.reset()
        assert g.draws == 0
        assert np.array_equal(g.next_words(17), first)

    def test_empty_blocks_touch_nothing(self, kind):
        g, h = make_prng(6, kind), make_prng(6, kind)
        g.next_words(0)
        g.next_sign_bits(0)
        g.next_below_block(0, 7)
        assert g.draws == 0
        assert g.next_uint64() == h.next_uint64()

    def test_invalid_arguments(self, kind):
        g = make_prng(7, kind)
        with pytest.raises(ConfigurationError):
            g.next_words(-1)
        with pytest.raises(ConfigurationError):
            g.next_bits_block(4, 0)
        with pytest.raises(ConfigurationError):
            g.next_below_block(4, 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestFastForward:
    """A restore fast-forwards a fresh stream to a checkpointed position;
    it must land exactly where drawing word by word would."""

    @pytest.mark.parametrize("drawn", [0, 1, 2, 3, 6])
    @pytest.mark.parametrize("skip", [0, 1, 2, 3, 4, 5, 6, 7, 41, 42, 43, 44])
    def test_fast_forward_equals_drawing_word_by_word(self, kind, drawn, skip):
        # ``drawn`` leaves a partial hash block; ``skip`` covers every
        # distance mod 4.
        stepped, jumped = make_prng("ff", kind), make_prng("ff", kind)
        stepped.next_words(drawn)
        jumped.next_words(drawn)
        for _ in range(skip):
            stepped.next_uint64()
        jumped.fast_forward(drawn + skip)
        assert jumped.draws == stepped.draws == drawn + skip
        assert jumped.next_words(9).tolist() == stepped.next_words(9).tolist()
        assert jumped.next_uint64() == stepped.next_uint64()

    def test_fast_forward_past_one_chunk(self, kind):
        stepped, jumped = make_prng("far", kind), make_prng("far", kind)
        distance = (1 << 16) + 3
        stepped.next_words(distance)
        jumped.fast_forward(distance)
        assert jumped.next_words(5).tolist() == stepped.next_words(5).tolist()

    def test_fast_forward_refuses_to_rewind(self, kind):
        g = make_prng("back", kind)
        g.next_words(5)
        with pytest.raises(CryptoError, match="rewind"):
            g.fast_forward(4)
        assert g.draws == 5


def test_hash_drbg_fast_forward_is_bounded_by_its_block_counter():
    g = make_prng("edge", "hash_drbg")
    last = 4 * (1 << 64) - 1
    g.fast_forward(last)
    assert g.draws == last
    g.next_uint64()
    with pytest.raises(CryptoError, match="64-bit block counter"):
        make_prng("edge", "hash_drbg").fast_forward(last + 1)


@given(
    kind=st.sampled_from(ALL_KINDS),
    seed=st.integers(min_value=0, max_value=2**64),
    count=st.integers(0, 40),
    bits=st.integers(1, 200),
)
@settings(max_examples=60, deadline=None)
def test_property_bits_block_equals_scalar(kind, seed, count, bits):
    """Any kind, any width (incl. >64 bits): block == scalar sequence,
    with matching draw counters and reset behaviour."""
    block, scalar = make_prng(seed, kind), make_prng(seed, kind)
    values = block.next_bits_block(count, bits)
    assert values.tolist() == [scalar.next_bits(bits) for _ in range(count)]
    assert block.draws == scalar.draws
    block.reset()
    scalar.reset()
    assert block.draws == scalar.draws == 0
    assert block.next_bits(bits) == scalar.next_bits(bits)


@given(
    kind=st.sampled_from(ALL_KINDS),
    seed=st.integers(min_value=0, max_value=2**32),
    count=st.integers(0, 30),
    bound=st.integers(1, 2**70),
)
@settings(max_examples=60, deadline=None)
def test_property_below_block_equals_scalar(kind, seed, count, bound):
    block, scalar = make_prng(seed, kind), make_prng(seed, kind)
    values = block.next_below_block(count, bound)
    assert list(values) == [scalar.next_below(bound) for _ in range(count)]
    assert block.draws == scalar.draws


@given(seed=st.integers(min_value=0, max_value=2**64), bits=st.integers(1, 200))
@settings(max_examples=50, deadline=None)
def test_property_reset_alignment(seed, bits):
    """For any seed and width, two instances and a reset instance agree."""
    a = make_prng(seed)
    b = make_prng(seed)
    first = a.next_bits(bits)
    assert first == b.next_bits(bits)
    a.reset()
    assert a.next_bits(bits) == first


@given(seed=st.integers(min_value=0, max_value=2**32), bound=st.integers(1, 10**9))
@settings(max_examples=50, deadline=None)
def test_property_next_below_in_range(seed, bound):
    g = make_prng(seed, "xorshift64star")
    assert 0 <= g.next_below(bound) < bound


def test_uniformity_chi_square():
    """Coarse uniformity of the DRBG: chi-square over 16 bins.

    This is the statistical backbone of the masking argument: masked
    values must look uniform to parties without the seed.
    """
    from scipy.stats import chisquare

    g = HashDRBG("uniformity")
    bins = [0] * 16
    for _ in range(8000):
        bins[g.next_below(16)] += 1
    _stat, p_value = chisquare(bins)
    assert p_value > 0.001
