"""Re-seedable pseudo-random number generators.

The paper's comparison protocols (Sections 4.1 and 4.2) are built on two
pairwise *shared-seed* generators: ``rng_JK`` between the two data holders
and ``rng_JT`` between the initiating data holder and the third party.
Correctness of the protocols depends on two properties that ordinary
``random.Random`` style APIs do not make explicit:

1. **Exact stream alignment** -- two parties seeded with the same secret
   must draw byte-identical streams, and
2. **Exact reseeding** -- the pseudocode re-initialises a generator with
   its original seed at every row boundary (Figures 5, 6, 8, 10);
   :meth:`ReseedablePRNG.reset` restores the generator to its precise
   post-construction state, including any internal buffering.

Three generators are provided:

* :class:`HashDRBG` -- SHA-256 in counter mode.  This is the default and
  the one that satisfies the paper's assumption of "a high quality
  pseudo-random number generator, that has a long period and that is not
  predictable" (Section 4.1) in the semi-honest model.
* :class:`XorShift64Star` -- fast non-cryptographic generator, useful in
  tests and large benchmark sweeps.
* :class:`Lcg64` -- classic MMIX linear congruential generator.  Its low
  bits are famously weak (the lowest bit alternates with period 2), which
  is exactly why the protocol implementations never consume raw parity:
  :meth:`ReseedablePRNG.next_bits` serves the *most significant* bits.

A note on paper fidelity: the pseudocode writes ``rngJK.Next() % 2`` for
the sign decision.  Taken literally with an LCG that expression is a
deterministic alternation; we read the decision bit from the top of the
word instead, which preserves the protocol (both sharers of the seed
compute the same bit) while remaining sound for every generator here.

Block draws
-----------
The vectorized protocol engine consumes randomness in blocks:
:meth:`ReseedablePRNG.next_words`, :meth:`~ReseedablePRNG.next_bits_block`,
:meth:`~ReseedablePRNG.next_sign_bits` and
:meth:`~ReseedablePRNG.next_below_block` return numpy arrays.  The hard
invariant -- property-tested over every generator kind -- is that a block
draw consumes the *identical word stream* as the corresponding sequence
of scalar draws: ``g.next_words(n)`` equals ``[g.next_uint64() for _ in
range(n)]`` drawn from the same state, and leaves ``draws`` and
:meth:`~ReseedablePRNG.reset` semantics unchanged.  Cross-party alignment
therefore never depends on whether a party drew scalar or blocked.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Any, Callable, ClassVar, Union

import numpy as np

from repro.exceptions import ConfigurationError, CryptoError

SeedLike = Union[int, bytes, str]

_MASK64 = (1 << 64) - 1

#: Words a stepping :meth:`ReseedablePRNG.fast_forward` draws at a time,
#: which bounds its memory whatever the distance.
_SEEK_CHUNK = 1 << 16

#: Blocks a :class:`HashDRBG`'s 64-bit counter can address.
_BLOCK_LIMIT = 1 << 64


def _seed_to_bytes(seed: SeedLike, domain: str) -> bytes:
    """Normalise any supported seed into 32 bytes, domain-separated.

    Domain separation guarantees that e.g. an :class:`Lcg64` and a
    :class:`HashDRBG` constructed from the same shared secret do not leak
    correlated streams.  Seed *types* are domain-separated too: the hash
    input carries a type tag so that ``make_prng(97)``, ``make_prng(b"a")``
    and ``make_prng("a")`` (whose raw byte encodings coincide) emit
    unrelated streams.
    """
    if isinstance(seed, int):
        tag = b"i"
        if seed < 0:
            raw = b"-" + abs(seed).to_bytes((abs(seed).bit_length() + 7) // 8 or 1, "big")
        else:
            raw = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
    elif isinstance(seed, bytes):
        tag = b"b"
        raw = seed
    elif isinstance(seed, str):
        tag = b"s"
        raw = seed.encode("utf-8")
    else:
        raise ConfigurationError(f"unsupported seed type: {type(seed).__name__}")
    return hashlib.sha256(
        b"repro.prng|" + domain.encode() + b"|" + tag + b"|" + raw
    ).digest()


class ReseedablePRNG(abc.ABC):
    """Deterministic generator that can be restored to its seed state.

    Subclasses implement :meth:`_reseed` (derive internal state from the
    normalised seed bytes) and :meth:`_next_word` (produce the next raw
    64-bit word); they may additionally override :meth:`_next_words` with
    a native block implementation and must expose their internal state
    via :meth:`_get_state` / :meth:`_set_state` (used by the exact
    rejection-sampling rewind in :meth:`next_below_block`).  Everything
    else -- top-bit extraction, unbiased range sampling, arbitrary-width
    integers, block adapters -- is shared here.
    """

    name: ClassVar[str] = "abstract"

    def __init__(self, seed: SeedLike) -> None:
        self._seed = seed
        self._seed_bytes = _seed_to_bytes(seed, self.name)
        self._draws = 0
        self._reseed()

    @property
    def seed(self) -> SeedLike:
        """The seed this generator was constructed with."""
        return self._seed

    @property
    def draws(self) -> int:
        """Number of raw 64-bit words produced since the last reset."""
        return self._draws

    def reset(self) -> None:
        """Restore the exact post-construction state (paper's *re-initialise*)."""
        self._draws = 0
        self._reseed()

    @abc.abstractmethod
    def _reseed(self) -> None:
        """Derive the internal state from ``self._seed_bytes``."""

    @abc.abstractmethod
    def _next_word(self) -> int:
        """Produce the next raw 64-bit word."""

    @abc.abstractmethod
    def _get_state(self) -> Any:
        """Snapshot the internal state (for exact block-draw rewinds)."""

    @abc.abstractmethod
    def _set_state(self, state: Any) -> None:
        """Restore a state captured by :meth:`_get_state`."""

    def _next_words(self, count: int) -> np.ndarray:
        """Produce ``count`` raw words as ``uint64``; subclasses override
        with native block stepping."""
        return np.fromiter(
            (self._next_word() for _ in range(count)), dtype=np.uint64, count=count
        )

    def _seek(self, position: int) -> None:
        """Move the internal state to ``position`` words after the seed
        state (never behind the current one).  Steps through the skipped
        words in bounded chunks; random-access generators override."""
        remaining = position - self._draws
        while remaining:
            step = min(remaining, _SEEK_CHUNK)
            self._next_words(step)
            remaining -= step

    # -- scalar draws -------------------------------------------------------

    def next_uint64(self) -> int:
        """Next raw 64-bit word as a non-negative int."""
        self._draws += 1
        return self._next_word()

    def next_bits(self, bits: int) -> int:
        """Uniform integer with exactly ``bits`` random bits.

        Bits are taken from the *top* of each 64-bit word because the top
        bits are the statistically strong ones for congruential
        generators.  Widths above 64 concatenate successive words; each
        word consumed counts as one draw, keeping cross-party stream
        alignment unambiguous.
        """
        if bits <= 0:
            raise ConfigurationError(f"bits must be positive, got {bits}")
        value = 0
        remaining = bits
        while remaining > 0:
            take = min(64, remaining)
            word = self.next_uint64() >> (64 - take)
            value = (value << take) | word
            remaining -= take
        return value

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via unbiased rejection sampling."""
        if bound <= 0:
            raise ConfigurationError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0
        bits = bound.bit_length()
        while True:
            candidate = self.next_bits(bits)
            if candidate < bound:
                return candidate

    def next_sign_bit(self) -> int:
        """Single decision bit (0 or 1); the protocol's ``Next() % 2``."""
        return self.next_bits(1)

    def fast_forward(self, position: int) -> None:
        """Advance to ``position`` words drawn since the last reset, as if
        every word in between had been drawn.

        The restore path of a checkpointed stream.  Raises
        :class:`~repro.exceptions.CryptoError` for a position behind the
        current draw count or beyond the generator's range.
        """
        if position < self._draws:
            raise CryptoError(
                f"cannot rewind a {self.name} stream from {self._draws} "
                f"to {position} draws"
            )
        self._seek(position)
        self._draws = position

    # -- block draws --------------------------------------------------------

    def next_words(self, count: int) -> np.ndarray:
        """Block of ``count`` raw words; identical stream to ``count``
        :meth:`next_uint64` calls."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        words = self._next_words(count)
        self._draws += count
        return words

    def next_bits_block(self, count: int, bits: int) -> np.ndarray:
        """Block of ``count`` values, each of exactly ``bits`` random bits.

        Equals ``[g.next_bits(bits) for _ in range(count)]`` drawn from
        the same state.  Returns a ``uint64`` array for widths up to 64;
        wider values come back as an object array of Python ints (the
        exact-arithmetic fallback the >64-bit mask configurations use).
        """
        if bits <= 0:
            raise ConfigurationError(f"bits must be positive, got {bits}")
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if bits <= 64:
            return self.next_words(count) >> np.uint64(64 - bits)
        words_per_value = (bits + 63) // 64
        words = self.next_words(count * words_per_value).reshape(
            count, words_per_value
        )
        values = [0] * count
        remaining = bits
        for column in range(words_per_value):
            take = min(64, remaining)
            remaining -= take
            chunk = (words[:, column] >> np.uint64(64 - take)).tolist()
            for i in range(count):
                values[i] = (values[i] << take) | chunk[i]
        out = np.empty(count, dtype=object)
        out[:] = values
        return out

    def next_sign_bits(self, count: int) -> np.ndarray:
        """Block of ``count`` decision bits (0/1, ``uint64``); identical
        stream to ``count`` :meth:`next_sign_bit` calls."""
        return self.next_words(count) >> np.uint64(63)

    def next_below_block(self, count: int, bound: int) -> np.ndarray:
        """Block of ``count`` uniform integers in ``[0, bound)``.

        Replays the exact scalar rejection-sampling word stream: candidates
        are drawn speculatively in chunks and the generator is rewound to
        consume precisely as many words as ``count`` scalar
        :meth:`next_below` calls would have.
        """
        if bound <= 0:
            raise ConfigurationError(f"bound must be positive, got {bound}")
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        out = np.zeros(count, dtype=np.int64)
        if bound == 1 or count == 0:
            return out
        bits = bound.bit_length()
        if bits > 63:
            # Wide bounds are outside the protocols' hot path; defer to the
            # scalar sampler (object array keeps arbitrary precision).
            wide = np.empty(count, dtype=object)
            wide[:] = [self.next_below(bound) for _ in range(count)]
            return wide
        accepted = 0
        shift = np.uint64(64 - bits)
        np_bound = np.uint64(bound)
        while accepted < count:
            need = count - accepted
            # Acceptance probability is >= 1/2; x2 plus slack makes a
            # second round rare without over-drawing wildly.
            chunk = 2 * need + 8
            state = self._get_state()
            draws = self._draws
            words = self.next_words(chunk)
            candidates = words >> shift
            ok = candidates < np_bound
            hits = int(ok.sum())
            if accepted + hits >= count:
                # Rewind, then consume exactly the words the scalar
                # sampler would have used for the final acceptance.
                cut = int(np.flatnonzero(ok)[need - 1]) + 1
                self._set_state(state)
                self._draws = draws
                self.next_words(cut)
                out[accepted:] = candidates[ok][:need].astype(np.int64)
                accepted = count
            else:
                out[accepted : accepted + hits] = candidates[ok].astype(np.int64)
                accepted += hits
        return out

    def rand_bits_callable(self) -> Callable[[int], int]:
        """Adapter matching the ``rand_bits(k)`` signature of
        :mod:`repro.crypto.numbers`."""
        return self.next_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # The seed is key material (pairwise streams derive from shared
        # secrets); a repr that printed it would leak through logs and
        # debugger output.  Structure only: type and draw count.
        return f"{type(self).__name__}(seed=<redacted>, draws={self._draws})"


class Lcg64(ReseedablePRNG):
    """MMIX linear congruential generator (Knuth's constants).

    Full 64-bit state transition ``s <- a*s + c mod 2^64``.  Exposed for
    benchmarking and as a worked example of *why* :meth:`next_bits` reads
    top bits: the k-th lowest bit of an LCG has period at most ``2^k``.
    Block draws unroll the recurrence in closed form --
    ``s_i = a^i s_0 + c (a^{i-1} + ... + 1)`` -- with numpy ``uint64``
    cumulative products/sums (which wrap mod 2^64 exactly like the
    scalar transition).
    """

    name: ClassVar[str] = "lcg64"

    _A = 6364136223846793005
    _C = 1442695040888963407

    def _reseed(self) -> None:
        self._state = int.from_bytes(self._seed_bytes[:8], "big")

    def _get_state(self) -> int:
        return self._state

    def _set_state(self, state: int) -> None:
        self._state = state

    def _next_word(self) -> int:
        self._state = (self._A * self._state + self._C) & _MASK64
        return self._state

    def _next_words(self, count: int) -> np.ndarray:
        powers = np.cumprod(np.full(count, self._A, dtype=np.uint64))
        geometric = np.empty(count, dtype=np.uint64)
        geometric[0] = 1
        geometric[1:] = powers[:-1]
        partial_sums = np.cumsum(geometric, dtype=np.uint64)
        words = powers * np.uint64(self._state) + np.uint64(self._C) * partial_sums
        self._state = int(words[-1])
        return words


class XorShift64Star(ReseedablePRNG):
    """Marsaglia xorshift64* generator.

    Requires a non-zero state; the seed normalisation makes an all-zero
    state astronomically unlikely, but we guard anyway.  Block draws run
    the (inherently sequential) xorshift recurrence over Python ints and
    vectorise the output multiply into one numpy ``uint64`` operation.
    """

    name: ClassVar[str] = "xorshift64star"

    _MULT = 2685821657736338717

    def _reseed(self) -> None:
        self._state = int.from_bytes(self._seed_bytes[8:16], "big") or 0x9E3779B97F4A7C15

    def _get_state(self) -> int:
        return self._state

    def _set_state(self, state: int) -> None:
        self._state = state

    def _next_word(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * self._MULT) & _MASK64

    def _next_words(self, count: int) -> np.ndarray:
        states = np.empty(count, dtype=np.uint64)
        x = self._state
        for i in range(count):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            states[i] = x
        self._state = x
        return states * np.uint64(self._MULT)


class HashDRBG(ReseedablePRNG):
    """SHA-256 counter-mode deterministic random bit generator.

    Output block ``i`` is ``SHA-256(seed_bytes || i)``; blocks are buffered
    and served as 64-bit words.  Unpredictable without the seed under
    standard hash assumptions, with period far beyond any protocol run --
    this is the generator the paper's security analysis presumes.  Block
    draws hash many counter blocks at once from a cached SHA-256 midstate
    and split the concatenated digests with one numpy big-endian view.
    """

    name: ClassVar[str] = "hash_drbg"

    def _reseed(self) -> None:
        self._counter = 0
        self._buffer: list[int] = []
        self._midstate = hashlib.sha256(self._seed_bytes)

    def _get_state(self) -> tuple[int, list[int]]:
        return (self._counter, list(self._buffer))

    def _set_state(self, state: tuple[int, list[int]]) -> None:
        self._counter, buffer = state
        self._buffer = list(buffer)

    def _refill(self) -> None:
        block = self._midstate.copy()
        block.update(self._counter.to_bytes(8, "big"))
        digest = block.digest()
        self._counter += 1
        self._buffer = [
            int.from_bytes(digest[off : off + 8], "big") for off in (24, 16, 8, 0)
        ]

    def _next_word(self) -> int:
        if not self._buffer:
            self._refill()
        return self._buffer.pop()

    def _seek(self, position: int) -> None:
        # Counter mode: word ``p`` is word ``p % 4`` of block ``p // 4``.
        block, offset = divmod(position, 4)
        if block >= _BLOCK_LIMIT:
            raise CryptoError(
                f"position {position} lies beyond the 64-bit block counter"
            )
        self._counter = block
        self._buffer = []
        if offset:
            self._refill()
            # Served from the end: drop the block's first ``offset`` words.
            del self._buffer[4 - offset :]

    def _next_words(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.uint64)
        filled = 0
        while self._buffer and filled < count:
            out[filled] = self._buffer.pop()
            filled += 1
        remaining = count - filled
        if remaining:
            blocks = (remaining + 3) // 4
            midstate = self._midstate
            first = self._counter
            digests = bytearray()
            for counter in range(first, first + blocks):
                block = midstate.copy()
                block.update(counter.to_bytes(8, "big"))
                digests += block.digest()
            self._counter = first + blocks
            words = np.frombuffer(bytes(digests), dtype=">u8").astype(np.uint64)
            out[filled:] = words[:remaining]
            # Scalar draws pop from the end, so unconsumed words of the
            # last hash block are stored in reverse serve order.
            self._buffer = [int(w) for w in words[remaining:][::-1]]
        return out


_KINDS: dict[str, type[ReseedablePRNG]] = {
    Lcg64.name: Lcg64,
    XorShift64Star.name: XorShift64Star,
    HashDRBG.name: HashDRBG,
}

#: Generator used when a protocol configuration does not name one.
DEFAULT_PRNG_KIND = HashDRBG.name


def make_prng(seed: SeedLike, kind: str = DEFAULT_PRNG_KIND) -> ReseedablePRNG:
    """Construct a generator by registry name (``hash_drbg`` by default)."""
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown PRNG kind {kind!r}; available: {sorted(_KINDS)}"
        ) from None
    return cls(seed)


def available_kinds() -> tuple[str, ...]:
    """Names accepted by :func:`make_prng`."""
    return tuple(sorted(_KINDS))
