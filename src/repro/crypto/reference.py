"""Scalar reference implementation of the channel transport.

The production cipher in :mod:`repro.crypto.sym` generates its
HMAC-SHA256 counter keystream with one PBKDF2 call per frame and XORs
with numpy; this module preserves the original one-``hmac.new``-per-block,
XOR-per-byte implementation as the executable specification of the wire
format.  Its contract mirrors :mod:`repro.core.reference` for the
protocol engine: the fast transport must produce *byte-identical* sealed
frames to this cipher for every (key, nonce-entropy, plaintext) triple.
``tests/test_transport_equivalence.py`` pins that equivalence and
``benchmarks/test_bench_transport.py`` measures the speedup against it.

Do not "optimise" this module: its value is being the slow, obviously
RFC-shaped version.

:func:`scalar_transport` additionally reverts the whole transport stack
-- cipher *and* wire-codec fast paths -- to the scalar implementations
for the duration of a ``with`` block, so full sessions can be replayed
on the seed transport and compared frame for frame.
"""

from __future__ import annotations

import hashlib
import hmac
from contextlib import contextmanager
from typing import Iterator

from repro.crypto.keys import derive_key
from repro.crypto.prng import ReseedablePRNG
from repro.exceptions import CryptoError, IntegrityError

_HASH = hashlib.sha256
_TAG_LEN = 32
_NONCE_LEN = 16
_BLOCK = 32


def scalar_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """HMAC-SHA256 counter-mode keystream, one ``hmac.new`` per 32 bytes."""
    blocks = []
    for counter in range((length + _BLOCK - 1) // _BLOCK):
        blocks.append(
            hmac.new(key, nonce + counter.to_bytes(8, "big"), _HASH).digest()
        )
    return b"".join(blocks)[:length]


def scalar_xor(data: bytes, stream: bytes) -> bytes:
    """Byte-at-a-time XOR through a Python generator."""
    return bytes(a ^ b for a, b in zip(data, stream))


class ScalarSymmetricCipher:
    """The seed implementation of :class:`repro.crypto.sym.SymmetricCipher`.

    Same wire format (``nonce || ciphertext || tag``), same sub-key
    derivation, same nonce entropy consumption -- only the keystream
    generation and XOR are the original scalar code paths.
    """

    #: Bytes added to every sealed message (nonce + tag).
    OVERHEAD = _NONCE_LEN + _TAG_LEN

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise CryptoError("channel key must be at least 128 bits")
        self._enc_key = derive_key(key, "channel.enc")
        self._mac_key = derive_key(key, "channel.mac")

    def seal(self, plaintext: bytes, entropy: ReseedablePRNG) -> bytes:
        """Encrypt and authenticate ``plaintext`` (scalar keystream)."""
        nonce = entropy.next_bits(_NONCE_LEN * 8).to_bytes(_NONCE_LEN, "big")
        ciphertext = scalar_xor(
            plaintext, scalar_keystream(self._enc_key, nonce, len(plaintext))
        )
        tag = hmac.new(self._mac_key, nonce + ciphertext, _HASH).digest()
        return nonce + ciphertext + tag

    def open(self, sealed: bytes) -> bytes:
        """Verify and decrypt a sealed message (scalar keystream)."""
        if len(sealed) < self.OVERHEAD:
            raise IntegrityError("sealed message shorter than overhead")
        nonce = sealed[:_NONCE_LEN]
        tag = sealed[-_TAG_LEN:]
        ciphertext = sealed[_NONCE_LEN:-_TAG_LEN]
        expected = hmac.new(self._mac_key, nonce + ciphertext, _HASH).digest()
        if not hmac.compare_digest(tag, expected):
            raise IntegrityError("message authentication failed")
        return scalar_xor(
            ciphertext, scalar_keystream(self._enc_key, nonce, len(ciphertext))
        )

    def transmit_roundtrip(
        self, plaintext: bytes, entropy: ReseedablePRNG
    ) -> tuple[bytes, bytes]:
        """Seal then fully re-open, the way the seed channel paid twice.

        The production cipher shares one keystream between the two
        halves; the reference deliberately regenerates it so benchmarks
        measure the seed's true double cost.
        """
        sealed = self.seal(plaintext, entropy)
        return sealed, self.open(sealed)


@contextmanager
def scalar_transport() -> Iterator[None]:
    """Run the whole transport stack on the seed implementations.

    Within the block, newly created secure links (simulator channels and
    socket link ciphers alike) seal with :class:`ScalarSymmetricCipher`
    and the wire codec takes the generic per-element encode/decode
    paths.  Links created *before* entering keep whatever cipher they
    were built with, so scope sessions inside the block.
    """
    from repro.network import handshake, serialization

    saved_cipher = handshake.SymmetricCipher
    saved_fast = serialization._FAST_PATHS
    handshake.SymmetricCipher = ScalarSymmetricCipher  # type: ignore[misc,assignment]
    serialization._FAST_PATHS = False
    try:
        yield
    finally:
        handshake.SymmetricCipher = saved_cipher  # type: ignore[misc]
        serialization._FAST_PATHS = saved_fast
