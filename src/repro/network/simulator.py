"""The simulated network: parties, links, lanes and traffic accounting.

A :class:`Network` is the single shared object every party holds.  It
owns all channels, delivers messages into one
:class:`~repro.network.lanes.LaneInbox` per recipient, and aggregates
the byte counters the communication-cost benchmarks read out.

The network is **concurrency-safe**: the construction scheduler's
``"parallel"`` policy runs protocol steps on real worker threads, so
delivery, accounting and eavesdropper taps are all lock-protected.
Every message lands in its recipient's ``(sender, kind, tag)`` lane, and
receives follow the contract of :mod:`repro.network.transport`: a lane
receive (``tag`` given) takes that lane's head and nothing else; a
tagless receive takes the oldest message, or the oldest from
``sender``.  Tags are attribute-scoped (``"numeric/age"``), so runs of
different attributes never share a lane.  Runs of one attribute can:
with three or more sites, a responder's lane into the third party
carries one block per initiator, in whatever order the schedule sends
them.

**Recovery happens at send.**  The simulated links are synchronous, so
a frame's fate is known the moment it is sent: :meth:`Network.send`
delivers each frame or records it as lost, and a receive only takes.
Installing a :class:`~repro.network.faults.FaultPlan` makes the links
unreliable on purpose, and send recovers under the
:class:`~repro.network.retry.RetryPolicy`:

* a **dropped** frame, or one lost to a **crash** outage, is
  retransmitted through its channel -- recovery honestly pays wire
  bytes;
* a **corrupted** frame would fail authenticated open, so it is counted
  and retransmitted the same way;
* a **duplicated** frame's second copy is counted and never queued;
* a **delayed** frame is counted and delivered in order;
* a permanently crashed party's own sends and receives raise
  :class:`~repro.exceptions.PartyCrashError`.

A frame the retry budget cannot save enters its lane as a lost-frame
record, and the receive that takes it raises
:class:`~repro.exceptions.LaneTimeoutError` naming the lane and the
attempt count; the other frames of its lane stay deliverable.  What
recovery deliberately does *not* change: payload bytes, message order
within a lane, and therefore every matrix a masked fault schedule
produces -- the differential suite (``tests/test_fault_tolerance.py``)
pins final results bit-identical to the fault-free run.  What it does
change: total wire bytes (retransmits cost), nonce-to-frame assignment,
and realized traces.

``latency`` models per-message link delay (sleep on send, outside all
locks).  It exists for deployment realism: protocol rounds of a real
consortium spend most wall-clock time in flight, and overlapping those
round trips is exactly what the parallel scheduler buys.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping

from repro.crypto.prng import ReseedablePRNG
from repro.exceptions import ChannelError, LaneTimeoutError, PartyCrashError
from repro.network.channel import Channel, ChannelStats, Eavesdropper, LedgerKey
from repro.network.faults import FaultDecision, FaultPlan
from repro.network.lanes import LaneInbox
from repro.network.message import Message
from repro.network.retry import RetryPolicy
from repro.network.transport import Transport

#: The fate of a transmission to a party that is down.
_LOST = FaultDecision(deliver=False)


class Network(Transport):
    """Registry of parties and channels with lane-structured delivery.

    This is the in-process implementation of the
    :class:`~repro.network.transport.Transport` interface: every party
    of the session shares this one object, so "the network" is a table
    of queues rather than sockets.  The socket transports
    (:mod:`repro.network.tcp`) implement the same interface per party
    process.
    """

    def __init__(
        self,
        latency: float = 0.0,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if latency < 0:
            raise ChannelError(f"link latency must be >= 0, got {latency}")
        self.latency = float(latency)
        #: Active fault schedule (``None`` = perfect links).
        self.fault_plan = fault_plan
        #: Attempt budget and pacing of recovery at send.
        self.retry_policy = retry if retry is not None else RetryPolicy()
        # guarded-by: self._registry_lock
        self._parties: set[str] = set()
        # guarded-by: self._registry_lock
        self._channels: dict[frozenset[str], Channel] = {}
        #: Per recipient: its lane inbox of messages and lost-frame
        #: records.  Registration populates the dict; delivery mutates
        #: an inbox under its recipient's lock.
        # guarded-by: self._registry_lock | self._locks[*]
        self._inboxes: dict[str, LaneInbox[Message | LaneTimeoutError]] = {}
        #: Per recipient: guards that recipient's inbox and counters.
        # guarded-by: self._registry_lock
        self._locks: dict[str, threading.Lock] = {}
        #: Recovery counters (:meth:`reliability_stats`).
        # guarded-by: self._stats_lock
        self._rel_stats: dict[str, int] = {
            "retransmits": 0,
            "duplicates_suppressed": 0,
            "corrupt_detected": 0,
            "delayed_deliveries": 0,
            "crash_losses": 0,
            "frames_abandoned": 0,
        }
        self._stats_lock = threading.Lock()
        #: Guards party/channel registration (setup is usually serial,
        #: but nothing stops a test hammering topology concurrently).
        self._registry_lock = threading.Lock()

    def install_fault_plan(
        self, plan: FaultPlan, retry: RetryPolicy | None = None
    ) -> None:
        """Arm (or re-arm) fault injection on a running network.

        Exists for chaos tests and the checkpoint suite, which build a
        healthy session first and pull the rug mid-history.  Frames
        already queued are unaffected.
        """
        self.fault_plan = plan
        if retry is not None:
            self.retry_policy = retry

    # -- topology ----------------------------------------------------------

    def add_party(self, name: str) -> None:
        """Register a party; names must be unique and non-empty."""
        if not name:
            raise ChannelError("party name must be non-empty")
        with self._registry_lock:
            if name in self._parties:
                raise ChannelError(f"party {name!r} already registered")
            self._parties.add(name)
            self._inboxes[name] = LaneInbox(name)
            self._locks[name] = threading.Lock()

    @property
    def parties(self) -> frozenset[str]:
        return frozenset(self._parties)

    def connect(
        self,
        party_a: str,
        party_b: str,
        secure: bool = True,
        key: bytes | None = None,
        entropy: ReseedablePRNG | None = None,
    ) -> Channel:
        """Create the (single) channel between two registered parties."""
        for name in (party_a, party_b):
            if name not in self._parties:
                raise ChannelError(f"unknown party {name!r}")
        link = frozenset((party_a, party_b))
        with self._registry_lock:
            if link in self._channels:
                raise ChannelError(f"channel {set(link)} already exists")
            channel = Channel(party_a, party_b, secure=secure, key=key, entropy=entropy)
            self._channels[link] = channel
        return channel

    def _require_party(self, name: str) -> None:
        if name not in self._parties:
            raise ChannelError(f"unknown party {name!r}")

    def channel(self, party_a: str, party_b: str) -> Channel:
        """Look up an existing channel."""
        try:
            return self._channels[frozenset((party_a, party_b))]
        except KeyError:
            raise ChannelError(f"no channel between {party_a!r} and {party_b!r}") from None

    def attach_tap(self, party_a: str, party_b: str, tap: Eavesdropper) -> None:
        """Wiretap the link between two parties."""
        self.channel(party_a, party_b).attach_tap(tap)

    # -- messaging -----------------------------------------------------------

    def send(self, sender: str, recipient: str, kind: str, payload: Any, tag: str = "") -> None:
        """Route one message; it lands in the recipient's ``(sender,
        kind, tag)`` lane after the configured link latency.

        With a fault plan installed, a frame the links lose or damage is
        retransmitted here until it arrives intact; one the retry budget
        cannot save lands as a lost-frame record instead.
        """
        plan = self.fault_plan
        if plan is not None and plan.permanently_down(sender):
            raise PartyCrashError(
                sender, f"party {sender!r} has crashed and cannot send {kind!r}"
            )
        channel = self.channel(sender, recipient)
        message = channel.transmit(sender, recipient, kind, tag, payload)
        if self.latency:
            # Models time-in-flight.  Deliberately outside every lock:
            # messages of independent protocol runs overlap in flight,
            # which is the concurrency a real deployment has.
            time.sleep(self.latency)  # reprolint: disable=RL103 -- models time-in-flight only; no protocol value ever depends on the clock
        self._require_party(recipient)
        entry = message if plan is None else self._recover(plan, channel, message, payload)
        with self._locks[recipient]:
            self._inboxes[recipient].put((sender, kind, tag), entry)

    def _recover(
        self, plan: FaultPlan, channel: Channel, message: Message, payload: Any
    ) -> Message | LaneTimeoutError:
        """Retransmit one frame until the links deliver it intact.

        The first transmission is ``message``; every retransmission
        re-sends the original payload through ``channel``, so recovery
        never changes protocol bytes -- it only charges the wire again.
        Returns the delivered message, or the lost-frame record once
        the retry budget is spent or the recipient has crashed for good.
        """
        sender, recipient, kind, tag = message.sender, message.recipient, message.kind, message.tag
        policy = self.retry_policy
        started = policy.start_clock()
        attempts = 1
        fate = self._fate(plan, sender, recipient, kind, tag, retransmission=False)
        while True:
            if fate.deliver:
                if fate.duplicate:
                    self._bump("duplicates_suppressed")
                if not fate.corrupt:
                    if fate.delayed:
                        self._bump("delayed_deliveries")
                    return message
                # Would fail authenticated open: handled like a drop.
                self._bump("corrupt_detected")
            if (
                attempts >= policy.max_attempts
                or policy.expired(started)
                or plan.permanently_down(recipient)
            ):
                state = "corrupt" if fate.deliver else "lost"
                return LaneTimeoutError(
                    sender,
                    recipient,
                    kind,
                    tag,
                    attempts=attempts,
                    reason=f"frame still {state} after {attempts - 1} retransmit(s)",
                )
            policy.backoff(attempts)
            message = channel.transmit(sender, recipient, kind, tag, payload)
            self._bump("retransmits")
            attempts += 1
            fate = self._fate(plan, sender, recipient, kind, tag, retransmission=True)

    def _fate(
        self,
        plan: FaultPlan,
        sender: str,
        recipient: str,
        kind: str,
        tag: str,
        retransmission: bool,
    ) -> FaultDecision:
        """What the links do to one transmission; frames to a party that
        is down are lost."""
        lost = plan.absorb_frame_to(recipient)
        fate = plan.decide(sender, recipient, kind, tag, retransmission=retransmission)
        if not lost:
            return fate
        self._bump("crash_losses")
        return _LOST

    def _bump(self, counter: str) -> None:
        with self._stats_lock:
            self._rel_stats[counter] += 1

    def receive(
        self,
        recipient: str,
        kind: str | None = None,
        sender: str | None = None,
        tag: str | None = None,
    ) -> Message:
        """Take the next message for ``recipient``.

        A lane receive (``tag``, which requires ``kind`` and ``sender``)
        takes the head of exactly the ``(sender, kind, tag)`` lane -- the
        receive a concurrent protocol run uses, immune to whatever other
        runs have in flight.  A tagless receive takes the oldest message,
        or the oldest from ``sender``, and raises :class:`ProtocolError`
        after taking it when its kind is not ``kind``: the protocol
        state machines have diverged, and the error names the queue
        state so the mis-scheduling is diagnosable.  Nothing to take
        raises :class:`ProtocolError` at once.

        Taking a lost-frame record raises its
        :class:`~repro.exceptions.LaneTimeoutError` instead, before any
        kind check, and counts it in ``frames_abandoned``.
        """
        self._require_party(recipient)
        plan = self.fault_plan
        if plan is not None and plan.permanently_down(recipient):
            raise PartyCrashError(
                recipient, f"party {recipient!r} has crashed and cannot receive"
            )
        with self._locks[recipient]:
            inbox = self._inboxes[recipient]
            lane = inbox.select(kind, sender, tag)
            if lane is None:
                raise inbox.missing(kind, sender, tag)
            entry = inbox.pop(lane)
            if isinstance(entry, Message):
                inbox.check_kind(lane, kind)
                return entry
        self._bump("frames_abandoned")
        raise entry

    def pending(self, recipient: str) -> int:
        """Number of undelivered messages for a party."""
        self._require_party(recipient)
        with self._locks[recipient]:
            return len(self._inboxes[recipient])

    def drain(self, recipient: str | None = None) -> int:
        """Discard every queued frame (one party's or everyone's).

        Returns the number of frames thrown away.  Degraded sessions use
        this to clean up lanes that a cancelled step will never read;
        see DESIGN.md "Fault model & recovery" for which lanes a failed
        parallel run can leave undrained.
        """
        names = [recipient] if recipient is not None else sorted(self._parties)
        dropped = 0
        for name in names:
            self._require_party(name)
            with self._locks[name]:
                dropped += self._inboxes[name].clear()
        return dropped

    def reliability_stats(self) -> dict[str, int]:
        """Recovery counters (all zero on perfect links)."""
        with self._stats_lock:
            return dict(self._rel_stats)

    def permanently_down(self, party: str) -> bool:
        plan = self.fault_plan
        return plan is not None and plan.permanently_down(party)

    # -- checkpointing ---------------------------------------------------------

    def nonce_positions(self) -> dict[str, int]:
        positions: dict[str, int] = {}
        for link, channel in self._channels.items():
            draws = channel.link.nonce_draws
            if draws is not None:
                a, b = sorted(link)
                positions[f"{a}|{b}"] = draws
        return positions

    def advance_nonce_positions(self, positions: Mapping[str, int]) -> None:
        for label, target in positions.items():
            a, _, b = label.partition("|")
            self.channel(a, b).link.advance(int(target))

    # -- accounting ------------------------------------------------------------

    def ledger(self) -> dict[LedgerKey, ChannelStats]:
        """A snapshot of every link's traffic, one row per ``(sender,
        recipient, kind, tag)``; the byte and message counts below are
        views over it."""
        rows: dict[LedgerKey, ChannelStats] = {}
        for channel in list(self._channels.values()):
            rows.update(channel.ledger())
        return rows

    def bytes_sent_by(self, party: str) -> int:
        """Total wire bytes this party transmitted (all links)."""
        return sum(row.wire_bytes for key, row in self.ledger().items() if key[0] == party)

    def bytes_on_link(self, party_a: str, party_b: str) -> int:
        """Total wire bytes in both directions of one link."""
        return sum(row.wire_bytes for row in self.channel(party_a, party_b).ledger().values())

    def total_bytes(self) -> int:
        """Grand total of wire bytes across the whole network."""
        return sum(row.wire_bytes for row in self.ledger().values())

    def bytes_of_kind(self, sender: str, recipient: str, kind: str) -> int:
        """Wire bytes of one message kind on one directed link."""
        return sum(
            row.wire_bytes
            for key, row in self.channel(sender, recipient).ledger().items()
            if key[:3] == (sender, recipient, kind)
        )

    def bytes_by_tag(self) -> dict[str, int]:
        """Network-wide wire bytes grouped by accounting tag.

        Tags are attribute-scoped (``"numeric/age"``), so this is the
        per-attribute cost breakdown of a whole session.
        """
        totals: dict[str, int] = {}
        for key, row in self.ledger().items():
            totals[key[3]] = totals.get(key[3], 0) + row.wire_bytes
        return totals

    def messages_sent_by(self, party: str) -> int:
        """Total message count this party transmitted."""
        return sum(row.messages for key, row in self.ledger().items() if key[0] == party)
