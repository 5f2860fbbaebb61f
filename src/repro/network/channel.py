"""Point-to-point channels with security and byte accounting.

Section 4.1 devotes a full subsection to *why the channels must be
secured*: a third party listening on the DHJ->DHK link learns ``r +- x``
and already knows ``r``, so it narrows ``x`` to two candidates; likewise
DHJ listening on DHK->TP narrows ``y``.  We model both channel flavours:

* a **secure** channel seals every payload through its link's
  :class:`~repro.network.handshake.LinkCipher`, the sealing state the
  socket transport uses too (eavesdroppers see only ciphertext, and the
  accounting honestly charges the sealing overhead),
* an **insecure** channel transmits the serialized payload as-is, and
  any registered :class:`Eavesdropper` receives a verbatim copy --
  which is exactly the capability the attack harness needs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.prng import ReseedablePRNG
from repro.exceptions import ChannelError
from repro.network.handshake import LinkCipher
from repro.network.message import Message
from repro.network.serialization import deserialize, serialize


@dataclass
class ChannelStats:
    """Accumulated traffic counters for one direction of a channel."""

    messages: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0

    def record(self, payload_size: int, wire_size: int) -> None:
        self.messages += 1
        self.payload_bytes += payload_size
        self.wire_bytes += wire_size


@dataclass(frozen=True)
class TappedFrame:
    """What an eavesdropper captures: raw wire bytes plus metadata."""

    sender: str
    recipient: str
    kind: str
    tag: str
    # Captured ciphertext/plaintext bytes; reprs of tapped frames end up
    # in test output and eavesdropper reports, so keep them metadata-only.
    wire: bytes = field(repr=False)
    sealed: bool

    def try_read_payload(self) -> Any:
        """Attempt to recover the payload from the captured frame.

        Succeeds on insecure channels; on secure channels the frame is
        ciphertext and this raises :class:`ChannelError` -- the empirical
        content of the paper's "channels must be secured" requirement.
        """
        if self.sealed:
            raise ChannelError("frame is sealed; eavesdropper cannot decode it")
        return deserialize(self.wire)


class Eavesdropper:
    """Passive wiretap collecting every frame that crosses a channel.

    Captures are lock-protected: one tap may observe several channels,
    and under the parallel construction schedule those channels transmit
    concurrently.  Each capture is atomic with the sending channel's
    accounting (the channel calls :meth:`capture` under its own transmit
    lock), so a tap never sees a frame whose bytes are uncounted.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        # guarded-by: self._lock
        self.frames: list[TappedFrame] = []
        self._lock = threading.Lock()

    def capture(self, frame: TappedFrame) -> None:
        with self._lock:
            self.frames.append(frame)

    def frames_between(self, sender: str, recipient: str) -> list[TappedFrame]:
        """Captured frames for one direction of one link."""
        return [
            f for f in self.frames if f.sender == sender and f.recipient == recipient
        ]


class Channel:
    """Bidirectional link between two named parties.

    ``secure=True`` requires a shared ``key``; both endpoints seal with
    the one :attr:`link` cipher (the simulation executes both ends
    in-process).  ``entropy`` feeds nonce generation and is required
    only for secure channels.
    """

    def __init__(
        self,
        party_a: str,
        party_b: str,
        secure: bool = True,
        key: bytes | None = None,
        entropy: ReseedablePRNG | None = None,
    ) -> None:
        if party_a == party_b:
            raise ChannelError("channel endpoints must differ")
        self.endpoints = frozenset((party_a, party_b))
        self.secure = secure
        if secure and (key is None or entropy is None):
            raise ChannelError("secure channel requires key and entropy")
        #: The link's sealing state; its nonce position is what a
        #: session checkpoint records per link.
        self.link = (
            LinkCipher((party_a, party_b), key, entropy)
            if secure
            else LinkCipher((party_a, party_b))
        )
        # guarded-by: self._lock
        self._stats: dict[tuple[str, str], ChannelStats] = {}
        # guarded-by: self._lock
        self._kind_stats: dict[tuple[str, str, str], ChannelStats] = {}
        # guarded-by: self._lock
        self._tag_stats: dict[str, ChannelStats] = {}
        # guarded-by: self._lock
        self._taps: list[Eavesdropper] = []
        #: Serialises sealing, counter updates and tap captures:
        #: concurrent transmits on one link account exactly, and a tap's
        #: view is consistent with the counters.  Serialization and
        #: deserialization stay outside the lock -- they are pure and
        #: dominate a big frame's CPU cost.
        #: Re-entrant because :meth:`transmit` records through the same
        #: ``stats``/``kind_stats`` accessors readers use.
        self._lock = threading.RLock()

    def attach_tap(self, tap: Eavesdropper) -> None:
        """Register a passive eavesdropper on this link."""
        with self._lock:
            self._taps.append(tap)

    def stats(self, sender: str, recipient: str) -> ChannelStats:
        """Traffic counters for the ``sender -> recipient`` direction."""
        self._require_endpoint(sender)
        self._require_endpoint(recipient)
        with self._lock:
            return self._stats.setdefault((sender, recipient), ChannelStats())

    def kind_stats(self, sender: str, recipient: str, kind: str) -> ChannelStats:
        """Traffic counters for one message kind in one direction.

        Lets the cost benchmarks separate e.g. local-matrix transfers
        from comparison-matrix transfers on the same link, matching the
        paper's itemised O(.) terms.
        """
        self._require_endpoint(sender)
        self._require_endpoint(recipient)
        with self._lock:
            return self._kind_stats.setdefault((sender, recipient, kind), ChannelStats())

    def tag_totals(self) -> dict[str, ChannelStats]:
        """Traffic counters grouped by accounting tag (both directions)."""
        with self._lock:
            return dict(self._tag_stats)

    def _require_endpoint(self, name: str) -> None:
        if name not in self.endpoints:
            raise ChannelError(f"{name!r} is not an endpoint of {set(self.endpoints)}")

    def transmit(self, sender: str, recipient: str, kind: str, tag: str, payload: Any) -> Message:
        """Serialize, optionally seal, account, tap, and deliver."""
        self._require_endpoint(sender)
        self._require_endpoint(recipient)
        if sender == recipient:
            raise ChannelError("sender and recipient must differ")
        plain = serialize(payload)
        with self._lock:
            wire, plain = self.link.roundtrip(plain)
            self.stats(sender, recipient).record(len(plain), len(wire))
            self.kind_stats(sender, recipient, kind).record(len(plain), len(wire))
            self._tag_stats.setdefault(tag, ChannelStats()).record(len(plain), len(wire))
            frame = TappedFrame(
                sender=sender,
                recipient=recipient,
                kind=kind,
                tag=tag,
                wire=wire,
                sealed=self.secure,
            )
            for tap in self._taps:
                tap.capture(frame)
        return Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            tag=tag,
            payload=deserialize(plain),
            wire_bytes=len(wire),
            sealed=self.secure,
        )
