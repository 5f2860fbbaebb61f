"""The pluggable transport interface every party speaks through.

Parties (:mod:`repro.parties`) never see sockets, queues or channels --
their whole I/O surface is :meth:`Transport.send` and
:meth:`Transport.receive` plus the drain/accounting hooks a session uses
to assert clean completion.  This module pins that surface as an
abstract base class so the same protocol code runs unchanged over:

* :class:`repro.network.simulator.Network` -- the in-process simulator
  (lanes, fault injection, exact byte accounting), used by tests,
  benchmarks and the single-process apps;
* :class:`repro.network.tcp.SocketTransport` -- real asyncio TCP or
  unix-domain-socket connections between separate party *processes*,
  with DH handshake, heartbeat liveness, and reconnect/resume (see
  ``repro.apps.cluster`` for the process supervisor).

The delivery contract is one piece of code: both implementations queue
delivered messages in a :class:`~repro.network.lanes.LaneInbox` per
local party, which chooses what a receive takes and words its errors.

* Messages land in *lanes* keyed by ``(sender, kind, tag)``; a lane is
  strictly FIFO.
* A **lane receive** (``tag`` given, which requires ``kind`` and
  ``sender``, else :class:`~repro.exceptions.ChannelError`) takes that
  lane's head and nothing else.
* A **tagless receive** takes the oldest message -- the oldest from
  ``sender`` when one is given.  If its kind is not the asserted
  ``kind``, it raises :class:`~repro.exceptions.ProtocolError` after
  taking it, naming the taken message and what is still queued.
* With nothing to take, the simulator raises
  :class:`~repro.exceptions.ProtocolError` at once (every send has
  already landed), while a socket endpoint waits until the message
  arrives, its receive deadline passes, or the sender is declared dead.
* Payload bytes are produced by :mod:`repro.network.serialization` and
  sealed by the channel cipher when the link is secure, so wire bytes
  are transport-independent: the socket gate test pins a 3-process
  session's per-lane transcript byte-identical to the simulator's.

Each transport recovers where its faults are known.  The simulator's
links are synchronous, so its send retransmits a faulted frame at once
and a receive only takes; the socket transport's connections break
asynchronously, so it keeps per-connection sequence numbers, acks and a
replay outbox -- the one reliability protocol in the package.
"""

from __future__ import annotations

import abc
from typing import Any, Iterable, Mapping

from repro.exceptions import ProtocolError
from repro.network.message import Message


class Transport(abc.ABC):
    """Abstract lane-structured message transport between named parties."""

    @abc.abstractmethod
    def send(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any,
        tag: str = "",
    ) -> None:
        """Route one message into the recipient's ``(sender, kind, tag)``
        lane.  Serialization, sealing and byte accounting happen here."""

    @abc.abstractmethod
    def receive(
        self,
        recipient: str,
        kind: str | None = None,
        sender: str | None = None,
        tag: str | None = None,
    ) -> Message:
        """Take the next message for ``recipient`` (see module contract)."""

    @abc.abstractmethod
    def pending(self, recipient: str) -> int:
        """Number of delivered-but-unconsumed messages for a party."""

    @abc.abstractmethod
    def drain(self, recipient: str | None = None) -> int:
        """Discard queued messages (one party's, or every local party's);
        returns how many were thrown away."""

    @property
    @abc.abstractmethod
    def parties(self) -> frozenset[str]:
        """Parties whose inbound queues this transport endpoint owns.

        For the simulator that is every registered party; for a socket
        transport it is the one local party (remote queues live in the
        remote processes).
        """

    @abc.abstractmethod
    def permanently_down(self, party: str) -> bool:
        """Whether ``party`` is known to be gone for good: a crashed
        party on the simulator, a peer declared dead on a socket.  A
        degraded session publishes to no such party."""

    @abc.abstractmethod
    def nonce_positions(self) -> dict[str, int]:
        """Nonce-stream draw counts of this endpoint's secure links, keyed
        by the sorted pair ``"a|b"`` (what a checkpoint records)."""

    @abc.abstractmethod
    def advance_nonce_positions(self, positions: Mapping[str, int]) -> None:
        """Fast-forward link nonce streams to checkpointed positions, so
        sealed frames after a restore use exactly the nonces the
        uninterrupted run would have."""

    def assert_drained(self, parties: Iterable[str] | None = None) -> None:
        """Raise unless every local queue is empty (clean completion)."""
        names = list(parties) if parties is not None else sorted(self.parties)
        leftovers = {name: self.pending(name) for name in names}
        leftovers = {name: count for name, count in leftovers.items() if count}
        if leftovers:
            raise ProtocolError(f"undelivered messages remain: {leftovers}")
