"""Transcript equality: the fast transport vs the seed implementation.

The transport PR rewrote the channel cipher (one-call PBKDF2 keystream,
shared seal/open keystream inside ``Channel.transmit``) and gave the
wire codec batched integer-run paths.  The contract is the same as the
vectorized protocol engine's: *not a single wire byte changes*.  This
suite pins that against the preserved scalar implementations in
:mod:`repro.crypto.reference` -- per primitive, and frame-for-frame over
full sessions across secure/insecure channels and every PRNG kind.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.session import ClusteringSession
from repro.crypto.prng import available_kinds, make_prng
from repro.crypto.reference import (
    ScalarSymmetricCipher,
    scalar_keystream,
    scalar_transport,
    scalar_xor,
)
from repro.crypto.sym import CounterKeystream, SymmetricCipher, open_sealed, seal
from repro.data.alphabet import DNA_ALPHABET
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.exceptions import ChannelError
from repro.network import serialization
from repro.network.channel import Channel, Eavesdropper
from repro.types import AttributeType

KEY = b"k" * 32


class TestKeystreamEquivalence:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 64, 100, 4096, 100001])
    def test_matches_scalar_keystream(self, length):
        factory = CounterKeystream(KEY)
        nonce = bytes(range(16))
        assert factory.keystream(nonce, length) == scalar_keystream(KEY, nonce, length)

    def test_long_key_matches(self):
        long_key = b"q" * 100  # beyond the SHA-256 block: HMAC hashes it first
        factory = CounterKeystream(long_key)
        assert factory.keystream(b"n" * 16, 96) == scalar_keystream(long_key, b"n" * 16, 96)

    @given(
        key=st.binary(max_size=130),
        nonce=st.binary(min_size=16, max_size=16),
        length=st.integers(0, 5000),
    )
    @example(key=b"k" * 64, nonce=bytes(16), length=5000)  # one block, used as is
    @example(key=b"k" * 65, nonce=bytes(16), length=5000)  # hashed first
    @settings(max_examples=60, deadline=None)
    def test_property_keystream_is_the_spec(self, key, nonce, length):
        """Every key length on both sides of HMAC's 64-byte block (PBKDF2
        gets the raw key), and every length from 0 to 65 at each key: the
        block-0-only, PBKDF2-truncated and whole-block cases."""
        stream = CounterKeystream(key)
        for n in (*range(66), length):
            assert stream.keystream(nonce, n) == scalar_keystream(key, nonce, n)

    @given(data=st.binary(max_size=512))
    @settings(max_examples=50, deadline=None)
    def test_property_xor_roundtrip(self, data):
        stream = scalar_keystream(KEY, b"n" * 16, len(data))
        from repro.crypto.sym import _xor

        assert _xor(data, stream) == scalar_xor(data, stream)
        assert _xor(_xor(data, stream), stream) == data


class TestCipherEquivalence:
    @pytest.mark.parametrize("size", [0, 1, 32, 33, 1000, 65536])
    def test_seal_bytes_identical(self, size):
        message = bytes(i % 256 for i in range(size))
        fast = SymmetricCipher(KEY).seal(message, make_prng(size))
        scalar = ScalarSymmetricCipher(KEY).seal(message, make_prng(size))
        assert fast == scalar

    def test_open_interoperates(self):
        message = b"cross-implementation frame"
        sealed_fast = SymmetricCipher(KEY).seal(message, make_prng(1))
        assert ScalarSymmetricCipher(KEY).open(sealed_fast) == message
        sealed_scalar = ScalarSymmetricCipher(KEY).seal(message, make_prng(2))
        assert SymmetricCipher(KEY).open(sealed_scalar) == message

    def test_transmit_roundtrip_matches_seal(self):
        """The shared-keystream path emits the exact seal() wire bytes
        and consumes the same nonce entropy."""
        cipher = SymmetricCipher(KEY)
        message = b"x" * 1000
        entropy_a, entropy_b = make_prng(3), make_prng(3)
        wire, opened = cipher.transmit_roundtrip(message, entropy_a)
        assert wire == cipher.seal(message, entropy_b)
        assert opened == message
        assert entropy_a.draws == entropy_b.draws

    def test_scalar_transmit_roundtrip_reopens(self):
        cipher = ScalarSymmetricCipher(KEY)
        wire, opened = cipher.transmit_roundtrip(b"payload", make_prng(4))
        assert opened == b"payload"
        assert cipher.open(wire) == b"payload"

    def test_one_shot_helpers_cache_derived_keys(self):
        from repro.crypto import sym

        sym._CIPHER_CACHE.clear()
        sealed = seal(KEY, b"msg", make_prng(5))
        cached = sym._CIPHER_CACHE[KEY]
        assert open_sealed(KEY, sealed) == b"msg"
        assert sym._CIPHER_CACHE[KEY] is cached  # reused, not re-derived

    def test_cipher_cache_bounded(self):
        from repro.crypto import sym

        sym._CIPHER_CACHE.clear()
        for i in range(sym._CIPHER_CACHE_MAX + 8):
            seal(b"k" * 16 + i.to_bytes(16, "big"), b"", make_prng(i))
        assert len(sym._CIPHER_CACHE) <= sym._CIPHER_CACHE_MAX

    @given(data=st.binary(max_size=4096))
    @settings(max_examples=50, deadline=None)
    def test_property_seal_equivalence(self, data):
        fast = SymmetricCipher(KEY).seal(data, make_prng(len(data)))
        scalar = ScalarSymmetricCipher(KEY).seal(data, make_prng(len(data)))
        assert fast == scalar


_INT_RUN = st.lists(
    st.one_of(
        st.integers(-(2**80), 2**80),
        st.integers(-(2**64) - 10, 2**64 + 10),  # densely around the lane bound
        st.integers(-300, 300),
    ),
    max_size=60,
)


_CCM_RUN = [(np.arange(16, dtype=np.uint8) * (i + 1)).reshape(4, 4) for i in range(6)]


@st.composite
def _array_lists(draw, nested=True):
    """Lists of same-dtype, same-shape array runs, broken mid-list by
    other dtypes, shapes, non-arrays and nested lists; zero-size, 0-d,
    non-contiguous and big-endian arrays included."""
    items = []
    kinds = ("run", "run", "other", "nested") if nested else ("run", "other")
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "other":
            items.append(draw(st.one_of(st.integers(-300, 300), st.text(max_size=3))))
        elif kind == "nested":
            items.append(draw(_array_lists(nested=False)))
        else:
            dtype = np.dtype(
                draw(st.sampled_from(["uint8", "int32", "int64", "float64", ">u8", ">f8", ">i4"]))
            )
            shape = draw(st.sampled_from([(), (0,), (3,), (2, 0), (4, 4), (3, 2)]))
            strided = bool(shape) and draw(st.booleans())
            for _ in range(draw(st.integers(1, 5))):
                if strided:
                    wide = draw(hnp.arrays(dtype, shape[:-1] + (2 * shape[-1],)))
                    items.append(wide[..., ::2])
                else:
                    items.append(draw(hnp.arrays(dtype, shape)))
    return items


def _assert_decoded(decoded, expected):
    """Equal structure; arrays of the same dtype (native byte order),
    shape and bit pattern."""
    if isinstance(expected, np.ndarray):
        assert type(decoded) is np.ndarray
        assert decoded.dtype == expected.dtype.newbyteorder("=")
        assert decoded.shape == expected.shape
        assert decoded.tobytes() == expected.astype(decoded.dtype).tobytes()
    elif isinstance(expected, list):
        assert isinstance(decoded, list) and len(decoded) == len(expected)
        for inner, want in zip(decoded, expected):
            _assert_decoded(inner, want)
    else:
        assert decoded == expected


def _arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _arrays_in(item)


def _decode_outcome(data):
    try:
        return "ok", serialization.deserialize(data)
    except ChannelError:
        return "error", None


def _assert_decoders_agree(data):
    """The fast and the scalar decoder raise ChannelError on the same
    inputs (nothing else) and decode the rest to the same payload."""
    fast, fast_value = _decode_outcome(data)
    try:
        serialization._FAST_PATHS = False
        scalar, scalar_value = _decode_outcome(data)
    finally:
        serialization._FAST_PATHS = True
    assert fast == scalar
    if fast == "ok":
        _assert_decoded(fast_value, scalar_value)


class TestCodecEquivalence:
    @given(values=_INT_RUN)
    @settings(max_examples=120, deadline=None)
    def test_property_int_runs_byte_identical(self, values):
        fast = serialization.serialize(values)
        try:
            serialization._FAST_PATHS = False
            assert serialization.serialize(values) == fast
            assert serialization.deserialize(fast) == values
        finally:
            serialization._FAST_PATHS = True
        assert serialization.deserialize(fast) == values
        assert serialization.serialized_size(values) == len(fast)

    def test_mixed_width_runs(self):
        values = [2**(8 * width) - 1 for width in range(1, 12)] * 40
        wire = serialization.serialize(values)
        assert serialization.deserialize(wire) == values
        try:
            serialization._FAST_PATHS = False
            assert serialization.serialize(values) == wire
        finally:
            serialization._FAST_PATHS = True

    def test_long_uniform_run_crosses_chunks(self):
        values = list(range(5000))
        wire = serialization.serialize(values)
        assert serialization.deserialize(wire) == values

    @given(values=_array_lists())
    @settings(max_examples=150, deadline=None)
    def test_property_array_runs_byte_identical(self, values):
        fast = serialization.serialize(values)
        try:
            serialization._FAST_PATHS = False
            assert serialization.serialize(values) == fast
            scalar = serialization.deserialize(fast)
        finally:
            serialization._FAST_PATHS = True
        decoded = serialization.deserialize(fast)
        _assert_decoded(decoded, scalar)
        _assert_decoded(decoded, values)
        assert serialization.serialized_size(values) == len(fast)
        frame = np.frombuffer(fast, dtype=np.uint8)
        for array in _arrays_in(decoded):
            assert array.flags.writeable
            assert not np.may_share_memory(array, frame)

    @pytest.mark.parametrize("record", [1, 3, 5])
    def test_altered_header_mid_run_decodes_like_scalar(self, record):
        """Every header byte of record ``j``, altered two ways: both
        decoders fail alike or decode the same payload."""
        wire = serialization.serialize(_CCM_RUN)
        stride = len(serialization.serialize(_CCM_RUN[0]))
        start = 5 + record * stride  # past the list tag and count
        for offset in range(start, start + stride - _CCM_RUN[0].nbytes):
            for flip in (0x01, 0xFF):
                altered = bytearray(wire)
                altered[offset] ^= flip
                _assert_decoders_agree(bytes(altered))

    @pytest.mark.parametrize("cut", [1, 7, 16, 17, 40])
    def test_truncated_run_raises_like_scalar(self, cut):
        wire = serialization.serialize(_CCM_RUN)[:-cut]
        _assert_decoders_agree(wire)
        with pytest.raises(ChannelError, match="truncated message"):
            serialization.deserialize(wire)

    @pytest.mark.parametrize("count", [0, 3, 7, 60])
    def test_wrong_declared_count_raises_like_scalar(self, count):
        wire = serialization.serialize(_CCM_RUN)
        altered = wire[:1] + count.to_bytes(4, "big") + wire[5:]
        _assert_decoders_agree(altered)
        with pytest.raises(ChannelError):
            serialization.deserialize(altered)


def _session_partitions():
    schema = [
        AttributeSpec("num", AttributeType.NUMERIC, precision=1),
        AttributeSpec("seq", AttributeType.ALPHANUMERIC, alphabet=DNA_ALPHABET),
        AttributeSpec("cat", AttributeType.CATEGORICAL),
    ]
    return {
        "A": DataMatrix(schema, [[1.5, "ACGT", "x"], [5.0, "TTGT", "y"], [9.25, "ACGG", "x"]]),
        "B": DataMatrix(schema, [[2.0, "ACGA", "y"], [7.5, "TTTT", "x"]]),
        "C": DataMatrix(schema, [[3.5, "AGGT", "z"], [8.0, "TAGT", "y"]]),
    }


def _run_tapped(secure: bool, prng_kind: str):
    suite = ProtocolSuiteConfig(secure_channels=secure, prng_kind=prng_kind)
    session = ClusteringSession(
        SessionConfig(num_clusters=2, master_seed=11, suite=suite),
        _session_partitions(),
    )
    taps = {}
    names = sorted(_session_partitions()) + ["TP"]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            tap = Eavesdropper(f"{a}|{b}")
            session.network.attach_tap(a, b, tap)
            taps[(a, b)] = tap
    result = session.run()
    return session, result, taps


class TestSessionTranscriptEquality:
    """Full sessions, fast transport vs the seed transport, frame for frame."""

    @pytest.mark.parametrize("secure", [True, False])
    @pytest.mark.parametrize("prng_kind", sorted(available_kinds()))
    def test_wire_identical_to_seed_transport(self, secure, prng_kind):
        fast_session, fast_result, fast_taps = _run_tapped(secure, prng_kind)
        with scalar_transport():
            seed_session, seed_result, seed_taps = _run_tapped(secure, prng_kind)

        assert fast_result.to_payload() == seed_result.to_payload()
        for link, fast_tap in fast_taps.items():
            seed_tap = seed_taps[link]
            fast_frames = [(f.sender, f.recipient, f.kind, f.tag, f.wire) for f in fast_tap.frames]
            seed_frames = [(f.sender, f.recipient, f.kind, f.tag, f.wire) for f in seed_tap.frames]
            assert fast_frames == seed_frames, f"transcript diverged on link {link}"

    @pytest.mark.parametrize("secure", [True, False])
    def test_stats_identical_to_seed_transport(self, secure):
        fast_session, _, _ = _run_tapped(secure, "hash_drbg")
        with scalar_transport():
            seed_session, _, _ = _run_tapped(secure, "hash_drbg")

        assert fast_session.network.ledger() == seed_session.network.ledger()
        assert fast_session.total_bytes() == seed_session.total_bytes()

    def test_scalar_transport_restores_state(self):
        from repro.network import handshake

        before = handshake.SymmetricCipher
        with scalar_transport():
            assert handshake.SymmetricCipher is ScalarSymmetricCipher
            assert serialization._FAST_PATHS is False
        assert handshake.SymmetricCipher is before
        assert serialization._FAST_PATHS is True

    def test_scalar_channel_matches_fast_channel(self):
        """Channel-level: same key/entropy, byte-identical wire frames."""
        payload = {"attribute": "num", "values": [2**63 + i for i in range(100)]}
        fast = Channel("A", "B", secure=True, key=KEY, entropy=make_prng(1))
        fast_message = fast.transmit("A", "B", "kind", "tag", payload)
        with scalar_transport():
            seed = Channel("A", "B", secure=True, key=KEY, entropy=make_prng(1))
            seed_message = seed.transmit("A", "B", "kind", "tag", payload)
        assert fast_message.payload == seed_message.payload
        assert fast_message.wire_bytes == seed_message.wire_bytes
        assert fast.ledger() == seed.ledger()
