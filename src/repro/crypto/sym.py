"""Symmetric authenticated encryption for secure channels.

Section 4.1 of the paper proves that the protocol leaks private values to
an eavesdropper unless the DHJ->DHK and DHK->TP channels are *secured*.
This module is the mechanism that secures them: a stream cipher built from
HMAC-SHA256 in counter mode combined with encrypt-then-MAC authentication.

The construction is deliberately primitive-from-scratch (no external
crypto dependency is available offline) but structurally sound:

* separate sub-keys for encryption and authentication, derived from the
  channel key with labelled HKDF,
* a fresh random nonce per message, included in the MAC,
* constant-time tag comparison via :func:`hmac.compare_digest`.

Throughput
----------
Sealing is the transport hot path -- every protocol message on a secure
channel pays for a full keystream -- so a frame's keystream is one
OpenSSL call: one-iteration PBKDF2-HMAC-SHA256 over the salt
``nonce || 0x00000000`` outputs exactly counter blocks 1, 2, ... (see
:class:`CounterKeystream`), and block 0 comes from cached HMAC midstates,
so a frame of 32 bytes or less makes no PBKDF2 call.  The XOR is one
numpy ``bitwise_xor`` over byte views.  Because the simulation executes
both channel endpoints in one process,
:meth:`SymmetricCipher.transmit_roundtrip` opens without a second
keystream or tag, so the honest secure-channel model does not pay for
every keystream twice.

Wire bytes are byte-identical to the scalar implementation preserved in
:mod:`repro.crypto.reference`; the equivalence suite pins that, and
``benchmarks/test_bench_transport.py`` asserts the >= 5x throughput of
the sealed-transport path (what :class:`repro.network.channel.Channel`
pays per message) over the seed's seal-then-reopen.
"""

from __future__ import annotations

import hashlib
import hmac

import numpy as np

from repro.crypto.keys import derive_key
from repro.crypto.prng import ReseedablePRNG
from repro.exceptions import CryptoError, IntegrityError

_HASH = hashlib.sha256
_HASH_BLOCK = 64  # SHA-256 input block size, for HMAC key padding
_TAG_LEN = 32
_NONCE_LEN = 16
_BLOCK = 32

#: Longest keystream one frame may ask for: 2 GiB, twice the largest
#: frame body.  Blocks 1 onwards are one PBKDF2 output, whose length is a
#: C int.
MAX_STREAM_BYTES = 1 << 31


class CounterKeystream:
    """HMAC-SHA256 counter keystream bound to one encryption key.

    Block ``i`` of a message's keystream is
    ``HMAC(K, nonce || uint64_be(i))``.  One-iteration PBKDF2-HMAC-SHA256
    over the salt ``nonce || 0x00000000`` MACs ``salt || INT32_BE(i)`` for
    its block ``i``: the same message for every ``1 <= i < 2**32``, with
    the raw key passed to HMAC in both.  PBKDF2 never emits counter 0, so
    block 0 comes from the padded-key midstates hashed here.  Output is
    bit-for-bit :func:`repro.crypto.reference.scalar_keystream`.
    """

    def __init__(self, key: bytes) -> None:
        self._key = key
        if len(key) > _HASH_BLOCK:
            key = _HASH(key).digest()
        padded = key.ljust(_HASH_BLOCK, b"\x00")
        self._inner = _HASH(bytes(b ^ 0x36 for b in padded))
        self._outer = _HASH(bytes(b ^ 0x5C for b in padded))

    def keystream(self, nonce: bytes, length: int) -> bytes:
        """Keystream of ``length`` bytes for one message nonce; raises
        :class:`CryptoError`, allocating nothing, above :data:`MAX_STREAM_BYTES`."""
        if length > MAX_STREAM_BYTES:
            raise CryptoError(f"keystream of {length} bytes exceeds {MAX_STREAM_BYTES}")
        inner = self._inner.copy()
        inner.update(nonce + bytes(8))
        first = self._outer.copy()
        first.update(inner.digest())
        if length <= _BLOCK:
            return first.digest()[:length]
        return first.digest() + hashlib.pbkdf2_hmac(
            "sha256", self._key, nonce + bytes(4), 1, length - _BLOCK
        )


def _xor(data: bytes, stream: bytes) -> bytes:
    """One-shot XOR over ``uint8`` views (``len(stream) == len(data)``)."""
    if not data:
        return b""
    return np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8), np.frombuffer(stream, dtype=np.uint8)
    ).tobytes()


class SymmetricCipher:
    """Authenticated symmetric cipher bound to one channel key.

    Wire format of a sealed message::

        nonce (16) || ciphertext (len(plaintext)) || tag (32)

    The 48-byte overhead is charged to the communication-cost accounting
    of secure channels by :mod:`repro.network.channel`, so benchmarks see
    the true price of the paper's "channels must be secured" requirement.
    """

    #: Bytes added to every sealed message (nonce + tag).
    OVERHEAD = _NONCE_LEN + _TAG_LEN

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise CryptoError("channel key must be at least 128 bits")
        self._enc_key = derive_key(key, "channel.enc")
        self._mac_key = derive_key(key, "channel.mac")
        self._keystream = CounterKeystream(self._enc_key)
        self._mac_base = hmac.new(self._mac_key, b"", _HASH)

    def _tag(self, nonce: bytes, ciphertext: bytes) -> bytes:
        mac = self._mac_base.copy()
        mac.update(nonce)
        mac.update(ciphertext)
        return mac.digest()

    def seal(self, plaintext: bytes, entropy: ReseedablePRNG) -> bytes:
        """Encrypt and authenticate ``plaintext``.

        ``entropy`` supplies the per-message nonce; simulations pass a
        seeded generator so transcripts are reproducible.
        """
        nonce = entropy.next_bits(_NONCE_LEN * 8).to_bytes(_NONCE_LEN, "big")
        ciphertext = _xor(plaintext, self._keystream.keystream(nonce, len(plaintext)))
        return nonce + ciphertext + self._tag(nonce, ciphertext)

    def open(self, sealed: bytes) -> bytes:
        """Verify and decrypt a sealed message.

        Raises :class:`IntegrityError` on any tampering; callers treat
        that as a protocol abort, never as recoverable data.
        """
        if len(sealed) < self.OVERHEAD:
            raise IntegrityError("sealed message shorter than overhead")
        nonce = sealed[:_NONCE_LEN]
        tag = sealed[-_TAG_LEN:]
        ciphertext = sealed[_NONCE_LEN:-_TAG_LEN]
        if not hmac.compare_digest(tag, self._tag(nonce, ciphertext)):
            raise IntegrityError("message authentication failed")
        return _xor(ciphertext, self._keystream.keystream(nonce, len(ciphertext)))

    def transmit_roundtrip(
        self, plaintext: bytes, entropy: ReseedablePRNG
    ) -> tuple[bytes, bytes]:
        """Seal, and open at the in-process receiving end.

        The simulator executes both endpoints, where :meth:`open` would
        regenerate the keystream just made and re-verify a tag computed a
        microsecond earlier; the opened bytes are the plaintext by
        construction (``xor(xor(p, ks), ks) == p``).  Returns ``(sealed,
        opened)``, ``sealed`` being :meth:`seal`'s wire bytes.  Bytes
        arriving from outside the process must still go through :meth:`open`.
        """
        return self.seal(plaintext, entropy), plaintext


#: Derived-key cache for the one-shot helpers: HKDF sub-key derivation
#: plus midstate setup dominates small messages, and callers of the
#: convenience API (attack harnesses, examples) reuse few distinct keys.
_CIPHER_CACHE: dict[bytes, SymmetricCipher] = {}
_CIPHER_CACHE_MAX = 64


def _cached_cipher(key: bytes) -> SymmetricCipher:
    cipher = _CIPHER_CACHE.get(key)
    if cipher is None:
        if len(_CIPHER_CACHE) >= _CIPHER_CACHE_MAX:
            _CIPHER_CACHE.pop(next(iter(_CIPHER_CACHE)))
        cipher = _CIPHER_CACHE[key] = SymmetricCipher(key)
    return cipher


def seal(key: bytes, plaintext: bytes, entropy: ReseedablePRNG) -> bytes:
    """One-shot convenience wrapper over :class:`SymmetricCipher`."""
    return _cached_cipher(key).seal(plaintext, entropy)


def open_sealed(key: bytes, sealed: bytes) -> bytes:
    """One-shot verify-and-decrypt."""
    return _cached_cipher(key).open(sealed)
