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
``sender``.  Tags are attribute-scoped (``"numeric/age"``), so one lane
carries exactly one protocol run's message stream per holder pair
direction -- concurrent runs on the same link never contend for a
queue head.

Every receive is the **reliable-delivery shim**'s loop.  Each frame
carries a per-lane sequence number and the sending channel's payload
CRC, and a receive NACKs and retransmits under a
:class:`~repro.network.retry.RetryPolicy`; on perfect links it delivers
on its first scan.  Installing a :class:`~repro.network.faults.FaultPlan`
makes the links unreliable on purpose, and the loop recovers:

* **dropped** frames stay in the lane as placeholders (so FIFO order
  and "was this ever sent?" stay unambiguous) and are repaired by
  re-transmitting the original payload through the channel -- recovery
  honestly pays wire bytes;
* **corrupted** frames fail the CRC integrity check on open and are
  repaired the same way;
* **duplicated** frames share their original's sequence number and are
  suppressed when the original is delivered;
* **delayed** frames become deliverable after a bounded number of
  receive polls;
* frames to a **crashed** party are lost while the outage lasts; a
  permanently crashed party's own sends and receives raise
  :class:`~repro.exceptions.PartyCrashError`.

A lane whose frame cannot be recovered within the retry budget raises
:class:`~repro.exceptions.LaneTimeoutError` naming the lane and the
attempt count.  What the shim deliberately does *not* change: payload
bytes, message order within a lane, and therefore every matrix a masked
fault schedule produces -- the differential suite
(``tests/test_fault_tolerance.py``) pins final results bit-identical to
the fault-free run.  What it does change: total wire bytes (retransmits
cost), nonce-to-frame assignment, and realized traces.

``latency`` models per-message link delay (sleep on send, outside all
locks).  It exists for deployment realism: protocol rounds of a real
consortium spend most wall-clock time in flight, and overlapping those
round trips is exactly what the parallel scheduler buys.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.crypto.prng import ReseedablePRNG
from repro.exceptions import ChannelError, LaneTimeoutError, PartyCrashError
from repro.network.channel import Channel, Eavesdropper
from repro.network.faults import FaultDecision, FaultPlan
from repro.network.lanes import Lane, LaneInbox
from repro.network.message import Message
from repro.network.retry import RetryPolicy
from repro.network.transport import Transport

#: The fate of a transmission without a fault plan, and of one to a
#: party that is down.
_PERFECT = FaultDecision()
_LOST = FaultDecision(deliver=False)


@dataclass
class _Frame:
    """One queued delivery: a message plus its wire-side fate.

    ``crc`` is what "arrived" -- it equals ``message.crc`` unless the
    fault layer tampered with the frame, in which case the receive
    path's integrity check catches the mismatch.  ``status`` tracks
    placeholder states: ``"dropped"`` (lost in flight, awaiting
    retransmit) and ``"delayed"`` (deliverable after ``delay_polls``
    receive polls).  Mutated only under the recipient's lock.
    """

    message: Message
    seq: int
    crc: int = 0
    status: str = "ok"
    delay_polls: int = 0
    retransmits: int = 0

    def arrive(self, message: Message, fate: FaultDecision) -> None:
        """Record one transmission of this frame and what the links did
        to it (``FaultPlan.decide`` never both corrupts and delays)."""
        self.message = message
        self.crc = message.crc ^ fate.tamper if fate.corrupt else message.crc
        self.status, self.delay_polls = "ok", 0
        if not fate.deliver:
            self.status = "dropped"
        elif fate.delay_polls:
            self.status, self.delay_polls = "delayed", fate.delay_polls


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
        #: Attempt budget and pacing of the receive loop's recovery.
        self.retry_policy = retry if retry is not None else RetryPolicy()
        # guarded-by: self._registry_lock
        self._parties: set[str] = set()
        # guarded-by: self._registry_lock
        self._channels: dict[frozenset[str], Channel] = {}
        #: Per recipient: its lane inbox.  Registration populates the
        #: dict; delivery mutates an inbox under its recipient's lock.
        # guarded-by: self._registry_lock | self._locks[*]
        self._inboxes: dict[str, LaneInbox[_Frame]] = {}
        #: Per recipient: next outbound sequence number per lane.
        # guarded-by: self._registry_lock | self._locks[*]
        self._next_seq: dict[str, dict[Lane, int]] = {}
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
            self._next_seq[name] = {}
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

        With a fault plan installed the frame may instead be dropped,
        duplicated, corrupted or delayed -- always leaving a placeholder
        in the lane, so the receive loop can tell "lost in flight" from
        "never sent" and recover the former by retransmit.
        """
        plan = self.fault_plan
        if plan is not None and plan.permanently_down(sender):
            raise PartyCrashError(
                sender, f"party {sender!r} has crashed and cannot send {kind!r}"
            )
        message = self.channel(sender, recipient).transmit(
            sender, recipient, kind, tag, payload
        )
        if self.latency:
            # Models time-in-flight.  Deliberately outside every lock:
            # messages of independent protocol runs overlap in flight,
            # which is the concurrency a real deployment has.
            time.sleep(self.latency)  # reprolint: disable=RL103 -- models time-in-flight only; no protocol value ever depends on the clock
        self._require_party(recipient)
        fate = self._fate(sender, recipient, kind, tag, retransmission=False)
        lane: Lane = (sender, kind, tag)
        with self._locks[recipient]:
            seqs = self._next_seq[recipient]
            seq = seqs.get(lane, 0)
            seqs[lane] = seq + 1
            frame = _Frame(message=message, seq=seq)
            frame.arrive(message, fate)
            inbox = self._inboxes[recipient]
            inbox.put(lane, frame)
            if fate.duplicate and fate.deliver:
                # A network-level duplicate: same wire frame twice, so it
                # shares the original's seq/crc and charges no new bytes.
                inbox.put(lane, _Frame(message=message, seq=seq, crc=frame.crc))

    def _fate(
        self, sender: str, recipient: str, kind: str, tag: str, retransmission: bool
    ) -> FaultDecision:
        """What the links do to one transmission (always a clean pass on
        perfect links); frames to a party that is down are lost."""
        plan = self.fault_plan
        if plan is None:
            return _PERFECT
        lost = plan.absorb_frame_to(recipient)
        fate = plan.decide(sender, recipient, kind, tag, retransmission=retransmission)
        if not lost:
            return fate
        self._bump("crash_losses")
        return _LOST

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._rel_stats[counter] += amount

    def _scan_locked(self, inbox: LaneInbox[_Frame], lane: Lane, frame: _Frame) -> str:
        """Resolve a lane's head ``frame`` toward delivery (caller holds
        the recipient's lock): ``"deliver"`` takes it and the duplicates
        queued behind it; ``"wait"`` and ``"retransmit"`` leave it."""
        if frame.status == "dropped":
            return "retransmit"
        if frame.status == "delayed":
            frame.delay_polls -= 1
            if frame.delay_polls > 0:
                return "wait"
            frame.status = "ok"
            self._bump("delayed_deliveries")
        if frame.crc != frame.message.crc:
            # Integrity check on open failed: the frame was corrupted in
            # flight.  Treat like a drop -- NACK and retransmit.
            self._bump("corrupt_detected")
            return "retransmit"
        inbox.pop(lane)
        while (dup := inbox.head(lane)) is not None and dup.seq <= frame.seq:
            inbox.pop(lane)
            self._bump("duplicates_suppressed")
        return "deliver"

    def _retransmit(self, recipient: str, lane: Lane, frame: _Frame) -> None:
        """Re-send one lost/damaged frame through its channel.

        The retransmitted payload is the original one, so recovery never
        changes protocol bytes -- it only charges the wire again.  The
        fault plan sees the retransmission too (crash outages absorb it;
        rate faults only with ``fault_retransmits``).
        """
        sender, kind, tag = lane
        message = self.channel(sender, recipient).transmit(
            sender, recipient, kind, tag, frame.message.payload
        )
        fate = self._fate(sender, recipient, kind, tag, retransmission=True)
        self._bump("retransmits")
        with self._locks[recipient]:
            frame.retransmits += 1
            frame.arrive(message, fate)

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

        The head is recovered first: lost or damaged frames are NACKed
        and retransmitted under the :class:`RetryPolicy`, duplicates
        are suppressed, and a lane that cannot be recovered raises
        :class:`~repro.exceptions.LaneTimeoutError`.
        """
        self._require_party(recipient)
        plan = self.fault_plan
        if plan is not None and plan.permanently_down(recipient):
            raise PartyCrashError(
                recipient, f"party {recipient!r} has crashed and cannot receive"
            )
        policy = self.retry_policy
        started = policy.start_clock()
        attempts = 0
        while True:
            with self._locks[recipient]:
                inbox = self._inboxes[recipient]
                lane = inbox.select(kind, sender, tag)
                frame = inbox.head(lane) if lane is not None else None
                if lane is None or frame is None:
                    raise inbox.missing(kind, sender, tag)
                action = self._scan_locked(inbox, lane, frame)
                if action == "deliver":
                    inbox.check_kind(lane, kind)
                    return frame.message
            # "retransmit" or "wait": spend one attempt, then recover.
            attempts += 1
            if attempts >= policy.max_attempts or policy.expired(started):
                reason = (
                    f"frame seq {frame.seq} still {frame.status!r} "
                    f"after {frame.retransmits} retransmit(s)"
                )
                # Abandon the dead frame and its lane: nobody will ever
                # receive them, so pending()/drain() must not count them.
                self._abandon_frame(recipient, lane, frame)
                lane_sender, lane_kind, lane_tag = lane
                raise LaneTimeoutError(
                    lane_sender,
                    recipient,
                    lane_kind,
                    lane_tag,
                    attempts=attempts,
                    reason=reason,
                )
            policy.backoff(attempts)
            if action == "retransmit":
                self._retransmit(recipient, lane, frame)

    def _abandon_frame(self, recipient: str, lane: Lane, frame: _Frame) -> None:
        """Discard an unrecoverable frame *and the lane queued behind it*.

        A lane is FIFO: once its head has exhausted the retry budget,
        every frame queued behind the dead head belongs to the same
        protocol run the degraded scheduler is about to cancel -- nobody
        will ever pop them.  Purging the whole lane (counted in
        ``reliability_stats()["frames_abandoned"]``) keeps
        :meth:`pending`/:meth:`drain`/:meth:`assert_drained` honest
        after a *tolerated* timeout: the network reports clean instead
        of leaking the abandoned entries forever.
        """
        with self._locks[recipient]:
            inbox = self._inboxes[recipient]
            abandoned = inbox.discard(lane) if inbox.head(lane) is frame else 0
        if abandoned:
            self._bump("frames_abandoned", abandoned)

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
        """Recovery counters of the reliable shim (all zero on perfect links)."""
        with self._stats_lock:
            return dict(self._rel_stats)

    # -- checkpointing ---------------------------------------------------------

    def channel_entropy_positions(self) -> dict[str, int]:
        """Nonce-entropy draw counts per secure link, keyed ``"A|B"``.

        Part of a session checkpoint: restoring fast-forwards each
        link's freshly derived entropy to these positions
        (:meth:`advance_channel_entropy`), so post-restore sealed frames
        use exactly the nonces the uninterrupted run would have.
        """
        positions: dict[str, int] = {}
        for link, channel in self._channels.items():
            draws = channel.entropy_draws()
            if draws is not None:
                a, b = sorted(link)
                positions[f"{a}|{b}"] = draws
        return positions

    def advance_channel_entropy(self, positions: Mapping[str, int]) -> None:
        """Fast-forward link nonce entropies to checkpointed positions."""
        for label, target in positions.items():
            a, _, b = label.partition("|")
            self.channel(a, b).advance_entropy(int(target))

    # -- accounting ------------------------------------------------------------

    def bytes_sent_by(self, party: str) -> int:
        """Total wire bytes this party transmitted (all links)."""
        total = 0
        for link, channel in self._channels.items():
            if party in link:
                (other,) = link - {party}
                total += channel.stats(party, other).wire_bytes
        return total

    def bytes_on_link(self, party_a: str, party_b: str) -> int:
        """Total wire bytes in both directions of one link."""
        channel = self.channel(party_a, party_b)
        return (
            channel.stats(party_a, party_b).wire_bytes
            + channel.stats(party_b, party_a).wire_bytes
        )

    def total_bytes(self) -> int:
        """Grand total of wire bytes across the whole network."""
        total = 0
        for link, channel in self._channels.items():
            a, b = sorted(link)
            total += channel.stats(a, b).wire_bytes
            total += channel.stats(b, a).wire_bytes
        return total

    def bytes_of_kind(self, sender: str, recipient: str, kind: str) -> int:
        """Wire bytes of one message kind on one directed link."""
        return self.channel(sender, recipient).kind_stats(sender, recipient, kind).wire_bytes

    def bytes_by_tag(self) -> dict[str, int]:
        """Network-wide wire bytes grouped by accounting tag.

        Tags are attribute-scoped (``"numeric/age"``), so this is the
        per-attribute cost breakdown of a whole session.
        """
        totals: dict[str, int] = {}
        for channel in self._channels.values():
            for tag, stats in channel.tag_totals().items():
                totals[tag] = totals.get(tag, 0) + stats.wire_bytes
        return totals

    def messages_sent_by(self, party: str) -> int:
        """Total message count this party transmitted."""
        total = 0
        for link, channel in self._channels.items():
            if party in link:
                (other,) = link - {party}
                total += channel.stats(party, other).messages
        return total
