"""Tests for the symmetric channel cipher and deterministic encryption."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.detenc import DeterministicEncryptor
from repro.crypto.prng import make_prng
from repro.crypto.sym import (
    MAX_STREAM_BYTES,
    CounterKeystream,
    SymmetricCipher,
    open_sealed,
    seal,
)
from repro.exceptions import CryptoError, IntegrityError
from repro.network.handshake import LinkCipher

KEY = b"k" * 32


class TestSymmetricCipher:
    def test_roundtrip(self):
        cipher = SymmetricCipher(KEY)
        sealed = cipher.seal(b"attack at dawn", make_prng(1))
        assert cipher.open(sealed) == b"attack at dawn"

    def test_empty_message(self):
        cipher = SymmetricCipher(KEY)
        assert cipher.open(cipher.seal(b"", make_prng(1))) == b""

    def test_overhead_constant(self):
        cipher = SymmetricCipher(KEY)
        for size in (0, 1, 100, 10_000):
            sealed = cipher.seal(b"x" * size, make_prng(size + 1))
            assert len(sealed) == size + SymmetricCipher.OVERHEAD

    def test_ciphertext_differs_from_plaintext(self):
        cipher = SymmetricCipher(KEY)
        plaintext = b"a" * 64
        sealed = cipher.seal(plaintext, make_prng(2))
        assert plaintext not in sealed

    def test_nonce_freshness(self):
        """Equal plaintexts seal to different wires (fresh nonces)."""
        cipher = SymmetricCipher(KEY)
        entropy = make_prng(3)
        assert cipher.seal(b"same", entropy) != cipher.seal(b"same", entropy)

    @pytest.mark.parametrize("position", [0, 10, 20, 45])
    def test_tamper_detected(self, position):
        cipher = SymmetricCipher(KEY)
        sealed = bytearray(cipher.seal(b"x" * 32, make_prng(4)))
        sealed[position] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.open(bytes(sealed))

    @given(
        payload=st.binary(max_size=4096),
        prior=st.integers(0, 3),
        edit=st.sampled_from(["change", "truncate", "extend"]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_link_frame_tamper_detected(self, payload, prior, edit, data):
        """One changed byte, a truncation or an extension of a link frame
        fails to open and leaves the nonce stream where it was; the frame
        as sealed then opens at that position (the transport's replay)."""
        sender, receiver = (
            LinkCipher(("a", "b"), key=KEY, entropy=make_prng(4)) for _ in range(2)
        )
        for i in range(prior):
            assert receiver.open(sender.seal(bytes([i]))) == bytes([i])
        position = receiver.nonce_draws
        frame = sender.seal(payload)
        if edit == "change":
            at = data.draw(st.integers(0, len(frame) - 1))
            flip = data.draw(st.integers(1, 255))
            tampered = frame[:at] + bytes([frame[at] ^ flip]) + frame[at + 1 :]
        elif edit == "truncate":
            tampered = frame[: data.draw(st.integers(0, len(frame) - 1))]
        else:
            tampered = frame + data.draw(st.binary(min_size=1, max_size=64))
        with pytest.raises(IntegrityError):
            receiver.open(tampered)
        assert receiver.nonce_draws == position
        assert receiver.open(frame) == payload
        assert receiver.nonce_draws == sender.nonce_draws

    def test_truncation_detected(self):
        cipher = SymmetricCipher(KEY)
        sealed = cipher.seal(b"hello", make_prng(5))
        with pytest.raises(IntegrityError):
            cipher.open(sealed[: SymmetricCipher.OVERHEAD - 1])

    def test_wrong_key_rejected(self):
        sealed = SymmetricCipher(KEY).seal(b"secret", make_prng(6))
        with pytest.raises(IntegrityError):
            SymmetricCipher(b"w" * 32).open(sealed)

    def test_short_key_rejected(self):
        with pytest.raises(CryptoError):
            SymmetricCipher(b"short")

    def test_keystream_length_bound(self):
        """PBKDF2's output length is a C int: a longer keystream is refused
        before anything is allocated (asked for directly, no plaintext)."""
        with pytest.raises(CryptoError, match="exceeds"):
            CounterKeystream(KEY).keystream(bytes(16), MAX_STREAM_BYTES + 1)

    def test_multi_block_keystream_is_one_pbkdf2_call(self, monkeypatch):
        """Blocks 1 onwards of a frame's keystream come from one PBKDF2
        call: neither a per-block loop nor a call per block."""
        cipher = SymmetricCipher(KEY)
        calls = []
        pbkdf2 = hashlib.pbkdf2_hmac

        def counted(*args, **kwargs):
            calls.append(args)
            return pbkdf2(*args, **kwargs)

        monkeypatch.setattr(hashlib, "pbkdf2_hmac", counted)
        sealed = cipher.seal(b"x" * 4096, make_prng(8))  # 128 blocks
        assert len(calls) == 1
        assert cipher.open(sealed) == b"x" * 4096

    def test_one_shot_helpers(self):
        sealed = seal(KEY, b"msg", make_prng(7))
        assert open_sealed(KEY, sealed) == b"msg"

    @given(data=st.binary(max_size=2048))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, data):
        cipher = SymmetricCipher(KEY)
        assert cipher.open(cipher.seal(data, make_prng(len(data)))) == data


class TestDeterministicEncryptor:
    def test_determinism(self):
        enc = DeterministicEncryptor(KEY)
        assert enc.encrypt("city", "red") == enc.encrypt("city", "red")

    def test_value_separation(self):
        enc = DeterministicEncryptor(KEY)
        assert enc.encrypt("city", "red") != enc.encrypt("city", "blue")

    def test_attribute_scoping(self):
        """Equal values in different columns must not be linkable."""
        enc = DeterministicEncryptor(KEY)
        assert enc.encrypt("city", "red") != enc.encrypt("team", "red")

    def test_key_separation(self):
        a = DeterministicEncryptor(b"a" * 32)
        b = DeterministicEncryptor(b"b" * 32)
        assert a.encrypt("c", "v") != b.encrypt("c", "v")

    def test_ciphertext_size(self):
        for size in (8, 16, 32):
            enc = DeterministicEncryptor(KEY, digest_size=size)
            assert enc.ciphertext_size == size
            assert len(enc.encrypt("a", "v")) == size

    @pytest.mark.parametrize("bad", [4, 33, 0])
    def test_bad_digest_size(self, bad):
        with pytest.raises(CryptoError):
            DeterministicEncryptor(KEY, digest_size=bad)

    def test_short_key_rejected(self):
        with pytest.raises(CryptoError):
            DeterministicEncryptor(b"tiny")

    def test_column_encryption(self):
        enc = DeterministicEncryptor(KEY)
        column = ["x", "y", "x"]
        out = enc.encrypt_column("attr", column)
        assert len(out) == 3
        assert out[0] == out[2] != out[1]

    def test_equality_helper(self):
        enc = DeterministicEncryptor(KEY)
        assert DeterministicEncryptor.equal(
            enc.encrypt("a", "v"), enc.encrypt("a", "v")
        )
        assert not DeterministicEncryptor.equal(
            enc.encrypt("a", "v"), enc.encrypt("a", "w")
        )

    @given(value=st.text(max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_property_injective_on_samples(self, value):
        """Distinct values map to distinct ciphertexts (collision would
        need a SHA-256 birthday event)."""
        enc = DeterministicEncryptor(KEY)
        other = value + "x"
        assert enc.encrypt("attr", value) != enc.encrypt("attr", other)
