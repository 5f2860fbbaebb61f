"""Socket-session control frames and per-link sealing state.

The socket transports (:mod:`repro.network.tcp`) speak a tiny control
protocol around the protocol's own data frames.  Everything on a
connection is one length-prefixed frame
(:func:`repro.network.serialization.encode_frame`) whose body is a dict
with a ``"t"`` discriminator:

``hello``
    First frame each side sends: names the party, its supervisor-issued
    incarnation number, the session fingerprint (both ends must be
    configured from the same session spec), the sender's current *era*
    and how many data frames it has durably delivered from the peer in
    that era (so the peer replays exactly the unacked tail).
``dh``
    The party's Diffie-Hellman public value.  Sent immediately after
    ``hello``; both ends derive the identical pairwise secret a
    single-process session would have derived, because DH entropy is
    session-deterministic.
``data``
    One protocol message: per-connection sequence number, era, lane
    metadata (``kind``/``tag``) and the sealed (or plaintext, on
    insecure links) serialized payload.
``ack``
    Cumulative delivery acknowledgement, so senders can prune their
    replay outbox.
``hb``
    Heartbeat; carries only the era.  Its arrival (like any frame's)
    feeds the receiver's liveness state machine.

Control frames are plaintext by design: they carry only public values
(party names, counters, DH publics, the spec fingerprint).  Everything
the paper requires secrecy for rides inside ``data`` frames, sealed by
:class:`LinkCipher`.

Era/incarnation model (crash recovery)
--------------------------------------
Every party process has an *incarnation* (1 at first launch, bumped by
the supervisor on each restart) and tracks the latest known incarnation
of every peer.  The **era** is the sum of all known incarnations: a
fresh n-party session is era ``n``, and any restart strictly increases
the era at every party that learns of it.  A ``hello`` carrying a higher
incarnation than known is therefore an unforgeable "peer lost its state"
signal; the transport surfaces it as
:class:`~repro.exceptions.SessionResetError` and the party driver
re-enters the protocol from its checkpoint in the new era.  Data frames
are era-stamped so late frames from a dead era are dropped and early
frames from the next era are parked, never misdelivered.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol

from repro.crypto.prng import ReseedablePRNG
from repro.crypto.sym import SymmetricCipher
from repro.exceptions import ChannelError, CryptoError
from repro.network.serialization import serialize

#: ``"t"`` discriminator values of the socket control protocol.
HELLO = "hello"
DH = "dh"
DATA = "data"
ACK = "ack"
HEARTBEAT = "hb"


# -- frame builders ---------------------------------------------------------


def hello_frame(
    party: str, incarnation: int, fingerprint: bytes, era: int, delivered: int
) -> dict[str, Any]:
    """The first frame either side of a connection sends."""
    return {
        "t": HELLO,
        "party": party,
        "incarnation": incarnation,
        "fingerprint": fingerprint,
        "era": era,
        "delivered": delivered,
    }


def dh_frame(party: str, public: int) -> dict[str, Any]:
    """The party's DH public value (public by definition)."""
    return {"t": DH, "party": party, "public": public}


def data_frame(
    seq: int, era: int, kind: str, tag: str, body: bytes
) -> dict[str, Any]:
    """One protocol message.  ``body`` is the sealed/serialized payload.

    ``body`` is deliberately the *last* dict entry: the codec preserves
    insertion order, so the fault-injection hook that flips a frame's
    final byte lands inside the ciphertext/MAC region, exactly like a
    real tail-truncation or bit rot would.
    """
    return {"t": DATA, "seq": seq, "era": era, "kind": kind, "tag": tag, "body": body}


def ack_frame(seq: int, era: int) -> dict[str, Any]:
    """Cumulative ack: every data frame up to ``seq`` was delivered."""
    return {"t": ACK, "seq": seq, "era": era}


def heartbeat_frame(era: int) -> dict[str, Any]:
    """Liveness probe; any inbound frame refreshes liveness, this one
    exists so an idle-but-alive peer keeps refreshing it."""
    return {"t": HEARTBEAT, "era": era}


# -- parsed frames ----------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    party: str
    incarnation: int
    fingerprint: bytes = field(repr=False)
    era: int
    delivered: int


@dataclass(frozen=True)
class DhOffer:
    party: str
    public: int = field(repr=False)


@dataclass(frozen=True)
class DataFrame:
    seq: int
    era: int
    kind: str
    tag: str
    body: bytes = field(repr=False)


@dataclass(frozen=True)
class Ack:
    seq: int
    era: int


@dataclass(frozen=True)
class Heartbeat:
    era: int


def frame_type(obj: Any) -> str:
    """The ``"t"`` discriminator of a decoded frame dict."""
    if not isinstance(obj, dict) or not isinstance(obj.get("t"), str):
        raise ChannelError("malformed socket frame: missing type discriminator")
    t: str = obj["t"]
    return t


def _require(obj: Mapping[str, Any], name: str, kind: str, typ: type) -> Any:
    value = obj.get(name)
    # bool is an int subclass; counters must be actual ints.
    if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
        raise ChannelError(
            f"malformed {kind!r} frame: field {name!r} missing or mistyped"
        )
    return value


def parse_hello(obj: Mapping[str, Any]) -> Hello:
    return Hello(
        party=str(_require(obj, "party", HELLO, str)),
        incarnation=int(_require(obj, "incarnation", HELLO, int)),
        fingerprint=bytes(_require(obj, "fingerprint", HELLO, bytes)),
        era=int(_require(obj, "era", HELLO, int)),
        delivered=int(_require(obj, "delivered", HELLO, int)),
    )


def parse_dh(obj: Mapping[str, Any]) -> DhOffer:
    return DhOffer(
        party=str(_require(obj, "party", DH, str)),
        public=int(_require(obj, "public", DH, int)),
    )


def parse_data(obj: Mapping[str, Any]) -> DataFrame:
    return DataFrame(
        seq=int(_require(obj, "seq", DATA, int)),
        era=int(_require(obj, "era", DATA, int)),
        kind=str(_require(obj, "kind", DATA, str)),
        tag=str(_require(obj, "tag", DATA, str)),
        body=bytes(_require(obj, "body", DATA, bytes)),
    )


def parse_ack(obj: Mapping[str, Any]) -> Ack:
    return Ack(
        seq=int(_require(obj, "seq", ACK, int)),
        era=int(_require(obj, "era", ACK, int)),
    )


def parse_heartbeat(obj: Mapping[str, Any]) -> Heartbeat:
    return Heartbeat(era=int(_require(obj, "era", HEARTBEAT, int)))


def check_fingerprint(expected: bytes, hello: Hello) -> None:
    """Reject a peer configured from a different session spec.

    The fingerprint is a digest of the shared session spec file -- not a
    secret -- so two processes launched against divergent specs fail the
    handshake immediately instead of producing silently different
    transcripts.
    """
    if hello.fingerprint != expected:
        raise ChannelError(
            f"party {hello.party!r} presented a different session "
            f"fingerprint; both processes must be launched from the same "
            f"session spec file"
        )


# -- per-link sealing -------------------------------------------------------


class LinkCipher:
    """One link's sealing state, shared by both transports.

    The in-process simulator's :class:`~repro.network.channel.Channel`
    holds one ``LinkCipher`` for both of its endpoints and seals through
    :meth:`roundtrip`, so link nonces advance once per frame in frame
    order.  In a multi-process session each endpoint derives its own
    copy of that same stream and keeps it synchronised by construction:

    * :meth:`seal` draws the nonce (:data:`NONCE_WORDS` words, exactly
      what :meth:`repro.crypto.sym.SymmetricCipher.seal` consumes);
    * :meth:`open` advances the local stream by the same
      :data:`NONCE_WORDS` *after* a successful open -- the nonce itself
      arrives on the wire, but the position must account for the words
      the sender drew.

    Because each link's traffic is processed in the same per-link order
    at both ends (the protocol's phase structure guarantees it), the two
    copies never diverge -- which is what makes multi-process sealed
    bytes byte-identical to the simulator transcript, and what lets a
    checkpoint record a single ``draws`` integer per link.

    An authentication failure in :meth:`open` does **not** advance the
    stream: the transport treats the connection as broken and the peer
    replays the frame, which must then open at the original position.

    A ``LinkCipher`` built with ``key=None`` is the insecure variant:
    :meth:`seal`/:meth:`open` pass bytes through unchanged (the paper's
    Section 4.1 eavesdropper scenario), and :attr:`nonce_draws` is
    ``None``.
    """

    #: 64-bit words one sealed frame's nonce consumes (128-bit nonce).
    NONCE_WORDS = 2

    def __init__(
        self,
        pair: tuple[str, str],
        key: bytes | None = None,
        entropy: ReseedablePRNG | None = None,
    ) -> None:
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ChannelError(f"invalid link pair: {pair}")
        self.pair: tuple[str, str] = (
            (pair[1], pair[0]) if pair[0] > pair[1] else (pair[0], pair[1])
        )
        if key is not None and entropy is None:
            raise ChannelError("secure link cipher requires nonce entropy")
        self._cipher = SymmetricCipher(key) if key is not None else None
        self._entropy = entropy if key is not None else None
        #: Serialises draws/advances so seal order equals write order.
        self._lock = threading.Lock()

    @property
    def secure(self) -> bool:
        return self._cipher is not None

    @property
    def nonce_draws(self) -> int | None:
        """Words consumed from the nonce stream (``None`` if insecure)."""
        if self._entropy is None:
            return None
        return self._entropy.draws

    def seal(self, plain: bytes) -> bytes:
        """Seal one serialized payload (pass-through when insecure)."""
        if self._cipher is None:
            return plain
        assert self._entropy is not None
        with self._lock:
            return self._cipher.seal(plain, self._entropy)

    def roundtrip(self, plain: bytes) -> tuple[bytes, bytes]:
        """Seal one payload and open it at the other end, in one process.

        Returns ``(wire, opened)``.  The two halves share one keystream
        (:meth:`repro.crypto.sym.SymmetricCipher.transmit_roundtrip`), so
        the wire bytes equal :meth:`seal`'s and the stream advances by one
        frame's nonce; bytes pass through unchanged when insecure.
        """
        if self._cipher is None:
            return plain, plain
        assert self._entropy is not None
        with self._lock:
            return self._cipher.transmit_roundtrip(plain, self._entropy)

    def open(self, body: bytes) -> bytes:
        """Open one received frame body, then advance the nonce stream.

        Raises :class:`~repro.exceptions.IntegrityError` on tampering,
        in which case the stream does *not* advance (the frame will be
        replayed and must open at the same position).
        """
        if self._cipher is None:
            return body
        assert self._entropy is not None
        with self._lock:
            plain = self._cipher.open(body)
            self._entropy.next_words(self.NONCE_WORDS)
            return plain

    def advance(self, target: int) -> None:
        """Fast-forward the nonce stream to ``target`` drawn words.

        Restore path: a freshly derived stream is advanced to the
        checkpointed position so post-restore frames seal with exactly
        the nonces the uninterrupted run would have used.
        """
        if self._entropy is None:
            raise ChannelError("insecure link has no nonce stream to advance")
        with self._lock:
            try:
                self._entropy.fast_forward(target)
            except CryptoError as exc:
                raise ChannelError(f"link nonce stream: {exc}") from None

    def seal_payload(self, payload: Any) -> bytes:
        """Serialize and seal a protocol payload in one step."""
        return self.seal(serialize(payload))


class LinkSecurity(Protocol):
    """What a socket transport needs from the session's key schedule.

    The network layer never imports :mod:`repro.core`; the party runner
    builds a provider from the session's master seed and label grammar
    and injects it here.  Determinism contract: for a given session
    spec, :meth:`dh_entropy` must return the exact DH entropy stream a
    single-process session would hand :func:`repro.crypto.keys.agree_pairwise`,
    and :meth:`link_cipher` must derive the channel cipher the simulator
    would build for the same pair -- those two properties are the whole
    reason socket transcripts are byte-identical to simulator ones.
    """

    def dh_entropy(self) -> ReseedablePRNG:
        """Entropy stream for the local party's DH private exponent."""
        ...

    def link_cipher(self, local: str, peer: str, shared: bytes) -> LinkCipher:
        """Build the link cipher for ``{local, peer}`` from a DH secret
        (a plaintext :class:`LinkCipher` when channels are insecure)."""
        ...
