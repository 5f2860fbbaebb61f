"""The simulated network: parties, links, lanes and traffic accounting.

A :class:`Network` is the single shared object every party holds.  It
owns all channels, delivers messages into per-recipient FIFO queues, and
aggregates the byte counters the communication-cost benchmarks read out.

Since the parallel-execution PR the network is **concurrency-safe**:
the construction scheduler's ``"parallel"`` policy runs protocol steps
on real worker threads, so delivery, accounting and eavesdropper taps
are all lock-protected.  Delivery queues are organised as *lanes*:

* Every message lands in the lane keyed by ``(sender, kind, tag)`` of
  its recipient's queue table.  Tags are attribute-scoped
  (``"numeric/age"``), so one lane carries exactly one protocol run's
  message stream per holder pair direction -- concurrent runs on the
  same link never contend for queue-head gating.
* A *lane receive* (``tag`` given) pops that lane's head and nothing
  else; protocol runs on different attributes or pairs can therefore
  drain their messages in any interleaving without mis-delivery.
* A *legacy receive* (no ``tag``) pops the recipient's global FIFO head
  -- the message with the lowest arrival number across all lanes --
  which is byte-for-byte the pre-lane behaviour: single-threaded
  drivers and the sequential schedule are unchanged.

Since the fault-tolerance PR the network can also be **unreliable on
purpose**: installing a :class:`~repro.network.faults.FaultPlan` (or
passing ``retry``) arms the *reliable-delivery shim*.  Every frame then
carries a per-lane sequence number and the sending channel's payload
CRC; the receive path becomes a NACK/retransmit loop driven by a
:class:`~repro.network.retry.RetryPolicy`:

* **dropped** frames stay in the lane as placeholders (so FIFO order
  and "was this ever sent?" stay unambiguous) and are repaired by
  re-transmitting the original payload through the channel -- recovery
  honestly pays wire bytes;
* **corrupted** frames fail the CRC integrity check on open and are
  repaired the same way;
* **duplicated** frames share their original's sequence number and are
  suppressed at delivery;
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
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.crypto.prng import ReseedablePRNG
from repro.exceptions import (
    ChannelError,
    LaneTimeoutError,
    PartyCrashError,
    ProtocolError,
)
from repro.network.channel import Channel, Eavesdropper
from repro.network.faults import FaultPlan
from repro.network.message import Message
from repro.network.retry import RetryPolicy
from repro.network.transport import Transport

#: Lane key: ``(sender, kind, tag)`` of a message, per recipient.
LaneKey = tuple[str, str, str]

#: How many queued messages a diagnostic snapshot lists before truncating.
_SNAPSHOT_LIMIT = 12


@dataclass
class _Frame:
    """One queued delivery: a message plus its wire-side fate.

    ``crc`` is what "arrived" -- it equals ``message.crc`` unless the
    fault layer tampered with the frame, in which case the receive
    path's integrity check catches the mismatch.  ``status`` tracks
    placeholder states: ``"dropped"`` (lost in flight, awaiting
    retransmit), ``"delayed"`` (deliverable after ``delay_polls``
    receive polls) and ``"dup"`` (network-duplicated copy, suppressed
    at delivery).  Mutated only under the recipient's lock.
    """

    message: Message
    seq: int
    crc: int
    status: str = "ok"
    delay_polls: int = 0
    retransmits: int = 0


@dataclass(frozen=True)
class _Scan:
    """Outcome of one locked lane scan."""

    action: str  # "deliver" | "wait" | "retransmit" | "missing"
    lane: LaneKey | None = None
    frame: _Frame | None = None


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
        #: Retry policy of the reliable shim; set iff the shim is armed.
        self.retry_policy: RetryPolicy | None = None
        if fault_plan is not None or retry is not None:
            self.retry_policy = retry if retry is not None else RetryPolicy()
        # guarded-by: self._registry_lock
        self._parties: set[str] = set()
        # guarded-by: self._registry_lock
        self._channels: dict[frozenset[str], Channel] = {}
        #: Per recipient: lane key -> deque of (arrival number, frame).
        #: Registration populates the outer dict; delivery mutates a
        #: recipient's lane table under that recipient's own lock.
        # guarded-by: self._registry_lock | self._locks[*]
        self._lanes: dict[str, dict[LaneKey, deque[tuple[int, _Frame]]]] = {}
        #: Per recipient: next arrival number (global FIFO order in lanes).
        # guarded-by: self._registry_lock | self._locks[*]
        self._arrivals: dict[str, int] = {}
        #: Per recipient: next outbound sequence number per lane.
        # guarded-by: self._registry_lock | self._locks[*]
        self._next_seq: dict[str, dict[LaneKey, int]] = {}
        #: Per recipient: next expected sequence number per lane (what
        #: duplicate suppression measures against).
        # guarded-by: self._registry_lock | self._locks[*]
        self._expected: dict[str, dict[LaneKey, int]] = {}
        #: Per recipient: guards that recipient's lane table and counters.
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

    @property
    def reliable(self) -> bool:
        """Whether the reliable-delivery shim is armed."""
        return self.retry_policy is not None

    def install_fault_plan(
        self, plan: FaultPlan, retry: RetryPolicy | None = None
    ) -> None:
        """Arm (or re-arm) fault injection on a running network.

        Exists for chaos tests and the checkpoint suite, which build a
        healthy session first and pull the rug mid-history.  Frames
        already queued are unaffected.
        """
        self.fault_plan = plan
        if retry is not None or self.retry_policy is None:
            self.retry_policy = retry if retry is not None else RetryPolicy()

    # -- topology ----------------------------------------------------------

    def add_party(self, name: str) -> None:
        """Register a party; names must be unique and non-empty."""
        if not name:
            raise ChannelError("party name must be non-empty")
        with self._registry_lock:
            if name in self._parties:
                raise ChannelError(f"party {name!r} already registered")
            self._parties.add(name)
            self._lanes[name] = {}
            self._arrivals[name] = 0
            self._next_seq[name] = {}
            self._expected[name] = {}
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
        in the lane, so the reliable receive path can tell "lost in
        flight" from "never sent" and recover the former by retransmit.
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
        lost_to_crash = False
        decision = None
        if plan is not None:
            lost_to_crash = plan.absorb_frame_to(recipient)
            decision = plan.decide(sender, recipient, kind, tag)
        if lost_to_crash:
            with self._stats_lock:
                self._rel_stats["crash_losses"] += 1
        with self._locks[recipient]:
            lanes = self._lanes[recipient]
            lane_key: LaneKey = (sender, kind, tag)
            lane = lanes.get(lane_key)
            if lane is None:
                lane = lanes[lane_key] = deque()
            seq = self._next_seq[recipient].get(lane_key, 0)
            self._next_seq[recipient][lane_key] = seq + 1
            frame = _Frame(message=message, seq=seq, crc=message.crc)
            if lost_to_crash or (decision is not None and not decision.deliver):
                frame.status = "dropped"
            elif decision is not None and decision.corrupt:
                frame.crc = message.crc ^ decision.tamper
            elif decision is not None and decision.delay_polls:
                frame.status = "delayed"
                frame.delay_polls = decision.delay_polls
            arrival = self._arrivals[recipient]
            self._arrivals[recipient] = arrival + 1
            lane.append((arrival, frame))
            if decision is not None and decision.duplicate and frame.status != "dropped":
                # A network-level duplicate: same wire frame twice, so it
                # shares the original's seq/crc and charges no new bytes.
                dup = _Frame(
                    message=message, seq=seq, crc=frame.crc, status="dup"
                )
                dup_arrival = self._arrivals[recipient]
                self._arrivals[recipient] = dup_arrival + 1
                lane.append((dup_arrival, dup))

    def _snapshot_locked(self, recipient: str) -> str:
        """Human-readable queue state (kinds + senders, FIFO order,
        truncated) -- must hold the recipient's lock."""
        queued = sorted(
            (arrival, key)
            for key, lane in self._lanes[recipient].items()
            for arrival, _ in lane
        )
        if not queued:
            return "queue empty"
        shown = [
            f"{kind}<-{sender}" + (f" [{tag}]" if tag else "")
            for _, (sender, kind, tag) in queued[:_SNAPSHOT_LIMIT]
        ]
        more = len(queued) - len(shown)
        suffix = f", ... +{more} more" if more else ""
        return f"queued: {', '.join(shown)}{suffix}"

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._rel_stats[counter] += amount

    # -- reliable scanning (all *_locked: caller holds recipient's lock) ---

    def _purge_stale_locked(self, recipient: str, key: LaneKey) -> None:
        """Drop suppressed frames (dups / already-delivered seqs) at the
        head of one lane; deletes the lane when it empties."""
        lanes = self._lanes[recipient]
        lane = lanes.get(key)
        if lane is None:
            return
        expected = self._expected[recipient].get(key, 0)
        while lane and (
            lane[0][1].seq < expected or lane[0][1].status == "dup"
        ):
            lane.popleft()
            self._bump("duplicates_suppressed")
        if not lane:
            del lanes[key]

    def _scan_lane_locked(self, recipient: str, key: LaneKey) -> _Scan:
        """Resolve one lane's head toward delivery (reliable mode)."""
        self._purge_stale_locked(recipient, key)
        lanes = self._lanes[recipient]
        lane = lanes.get(key)
        if not lane:
            return _Scan("missing", key)
        _, frame = lane[0]
        if frame.status == "dropped":
            return _Scan("retransmit", key, frame)
        if frame.status == "delayed":
            frame.delay_polls -= 1
            if frame.delay_polls > 0:
                return _Scan("wait", key, frame)
            frame.status = "ok"
            self._bump("delayed_deliveries")
        if frame.crc != frame.message.crc:
            # Integrity check on open failed: the frame was corrupted in
            # flight.  Treat like a drop -- NACK and retransmit.
            self._bump("corrupt_detected")
            return _Scan("retransmit", key, frame)
        lane.popleft()
        self._expected[recipient][key] = frame.seq + 1
        self._purge_stale_locked(recipient, key)
        return _Scan("deliver", key, frame)

    def _head_lane_locked(self, recipient: str) -> LaneKey | None:
        """Lane holding the global FIFO head (stale frames purged)."""
        lanes = self._lanes[recipient]
        for key in list(lanes):
            self._purge_stale_locked(recipient, key)
        best_key: LaneKey | None = None
        best_arrival = -1
        for key, lane in lanes.items():
            arrival = lane[0][0]
            if best_key is None or arrival < best_arrival:
                best_key, best_arrival = key, arrival
        return best_key

    def _retransmit(self, recipient: str, key: LaneKey, frame: _Frame) -> None:
        """Re-send one lost/damaged frame through its channel.

        The retransmitted payload is the original one, so recovery never
        changes protocol bytes -- it only charges the wire again.  The
        fault plan sees the retransmission too (crash outages absorb it;
        rate faults only with ``fault_retransmits``).
        """
        sender, kind, tag = key
        plan = self.fault_plan
        message = self.channel(sender, recipient).transmit(
            sender, recipient, kind, tag, frame.message.payload
        )
        lost = False
        decision = None
        if plan is not None:
            lost = plan.absorb_frame_to(recipient)
            decision = plan.decide(sender, recipient, kind, tag, retransmission=True)
        self._bump("retransmits")
        if lost:
            self._bump("crash_losses")
        with self._locks[recipient]:
            frame.retransmits += 1
            if lost or (decision is not None and not decision.deliver):
                frame.status = "dropped"
                return
            frame.message = message
            frame.crc = message.crc
            if decision is not None and decision.corrupt:
                frame.crc = message.crc ^ decision.tamper
            if decision is not None and decision.delay_polls:
                frame.status = "delayed"
                frame.delay_polls = decision.delay_polls
            else:
                frame.status = "ok"
                frame.delay_polls = 0

    def _receive_reliable(
        self,
        recipient: str,
        kind: str | None,
        sender: str | None,
        tag: str | None,
    ) -> Message:
        """The NACK/retransmit receive loop (fault plan or retry armed)."""
        policy = self.retry_policy
        assert policy is not None
        started = policy.start_clock()
        attempts = 0
        lane_key: LaneKey | None = (
            (sender, kind, tag)
            if tag is not None and kind is not None and sender is not None
            else None
        )
        while True:
            with self._locks[recipient]:
                if lane_key is not None:
                    scan = self._scan_lane_locked(recipient, lane_key)
                else:
                    head_key = self._head_lane_locked(recipient)
                    if head_key is None:
                        scan = _Scan("missing")
                    else:
                        scan = self._scan_lane_locked(recipient, head_key)
                if scan.action == "missing":
                    if lane_key is not None:
                        raise ProtocolError(
                            f"{recipient!r} has no pending {kind!r} from "
                            f"{sender!r} on lane {tag!r}; "
                            f"{self._snapshot_locked(recipient)}"
                        )
                    raise ProtocolError(f"{recipient!r} has no pending messages")
                if scan.action == "deliver":
                    assert scan.frame is not None
                    message = scan.frame.message
                    if kind is not None and message.kind != kind:
                        raise ProtocolError(
                            f"{recipient!r} expected kind {kind!r}, got "
                            f"{message.kind!r} from {message.sender!r}; after "
                            f"popping the head, {self._snapshot_locked(recipient)}"
                        )
                    if sender is not None and message.sender != sender:
                        raise ProtocolError(
                            f"{recipient!r} expected sender {sender!r}, got "
                            f"{message.sender!r} (kind {message.kind!r}); after "
                            f"popping the head, {self._snapshot_locked(recipient)}"
                        )
                    return message
            # "retransmit" or "wait": spend one attempt, then recover.
            attempts += 1
            assert scan.lane is not None and scan.frame is not None
            if attempts >= policy.max_attempts or policy.expired(started):
                lane_sender, lane_kind, lane_tag = scan.lane
                reason = (
                    f"frame seq {scan.frame.seq} still "
                    f"{scan.frame.status!r} after {scan.frame.retransmits} retransmit(s)"
                )
                # Abandon the dead frame: discard it from its lane so
                # later traffic -- and the serial scheduler's queue-head
                # gating -- can move past it instead of deadlocking on a
                # placeholder that will never be recovered.
                self._abandon_frame(recipient, scan.lane, scan.frame)
                raise LaneTimeoutError(
                    lane_sender,
                    recipient,
                    lane_kind,
                    lane_tag,
                    attempts=attempts,
                    reason=reason,
                )
            policy.backoff(attempts)
            if scan.action == "retransmit":
                self._retransmit(recipient, scan.lane, scan.frame)

    def _abandon_frame(self, recipient: str, key: LaneKey, frame: _Frame) -> None:
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
        abandoned = 0
        with self._locks[recipient]:
            lanes = self._lanes[recipient]
            lane = lanes.get(key)
            if lane and lane[0][1] is frame:
                abandoned = len(lane)
                highest = max(queued.seq for _, queued in lane)
                lane.clear()
                self._expected[recipient][key] = highest + 1
                del lanes[key]
        if abandoned:
            self._bump("frames_abandoned", abandoned)

    def receive(
        self,
        recipient: str,
        kind: str | None = None,
        sender: str | None = None,
        tag: str | None = None,
    ) -> Message:
        """Pop the next queued message for ``recipient``.

        With ``tag`` (which requires ``kind`` and ``sender``), pops the
        head of exactly the ``(sender, kind, tag)`` lane -- the receive a
        concurrent protocol run uses, immune to whatever other runs have
        in flight.  Without ``tag``, pops the recipient's global FIFO
        head; ``kind``/``sender`` then act as assertions: a mismatch
        means the protocol state machines have diverged, so we raise
        :class:`ProtocolError` (naming the full queue state, so a
        mis-scheduling is diagnosable) rather than mis-deliver.

        With the reliable shim armed, this is the recovery loop: lost or
        damaged frames are NACKed and retransmitted under the
        :class:`RetryPolicy`, duplicates are suppressed, and a lane that
        cannot be recovered raises
        :class:`~repro.exceptions.LaneTimeoutError`.
        """
        self._require_party(recipient)
        if tag is not None and (kind is None or sender is None):
            raise ChannelError(
                "lane receive requires kind and sender alongside tag"
            )
        plan = self.fault_plan
        if plan is not None and plan.permanently_down(recipient):
            raise PartyCrashError(
                recipient, f"party {recipient!r} has crashed and cannot receive"
            )
        if self.reliable:
            return self._receive_reliable(recipient, kind, sender, tag)
        with self._locks[recipient]:
            if tag is not None:
                assert kind is not None and sender is not None
                lanes = self._lanes[recipient]
                lane = lanes.get((sender, kind, tag))
                if not lane:
                    raise ProtocolError(
                        f"{recipient!r} has no pending {kind!r} from {sender!r} "
                        f"on lane {tag!r}; {self._snapshot_locked(recipient)}"
                    )
                _, frame = lane.popleft()
                if not lane:
                    del lanes[(sender, kind, tag)]
                return frame.message
            message = self._pop_head_locked(recipient)
            if message is None:
                raise ProtocolError(f"{recipient!r} has no pending messages")
            if kind is not None and message.kind != kind:
                raise ProtocolError(
                    f"{recipient!r} expected kind {kind!r}, got {message.kind!r} "
                    f"from {message.sender!r}; after popping the head, "
                    f"{self._snapshot_locked(recipient)}"
                )
            if sender is not None and message.sender != sender:
                raise ProtocolError(
                    f"{recipient!r} expected sender {sender!r}, got "
                    f"{message.sender!r} (kind {message.kind!r}); after popping "
                    f"the head, {self._snapshot_locked(recipient)}"
                )
            return message

    def _pop_head_locked(self, recipient: str) -> Message | None:
        """Pop the global FIFO head across lanes (lowest arrival)."""
        lanes = self._lanes[recipient]
        best_key: LaneKey | None = None
        best_arrival = -1
        for key, lane in lanes.items():
            arrival = lane[0][0]
            if best_key is None or arrival < best_arrival:
                best_key, best_arrival = key, arrival
        if best_key is None:
            return None
        lane = lanes[best_key]
        _, frame = lane.popleft()
        if not lane:
            del lanes[best_key]
        return frame.message

    def pending(self, recipient: str) -> int:
        """Number of undelivered messages for a party."""
        self._require_party(recipient)
        with self._locks[recipient]:
            return sum(len(lane) for lane in self._lanes[recipient].values())

    def peek(self, recipient: str) -> Message | None:
        """The message a legacy :meth:`receive` would pop next.

        The sequential construction schedule uses this to gate a receive
        step on its message actually being the FIFO head -- steps never
        mis-deliver no matter how they are ordered.  Under the
        reliable shim, placeholders of dropped/delayed frames *are* the
        logical head (they will be recovered and delivered), so gating
        still sees the schedule the fault-free run would.
        """
        self._require_party(recipient)
        with self._locks[recipient]:
            if self.reliable:
                key = self._head_lane_locked(recipient)
                if key is None:
                    return None
                return self._lanes[recipient][key][0][1].message
            lanes = self._lanes[recipient]
            best: tuple[int, _Frame] | None = None
            for lane in lanes.values():
                if best is None or lane[0][0] < best[0]:
                    best = lane[0]
            return best[1].message if best else None

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
                for lane in self._lanes[name].values():
                    dropped += len(lane)
                self._lanes[name].clear()
        return dropped

    def reliability_stats(self) -> dict[str, int]:
        """Recovery counters of the reliable shim (all zero when off)."""
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

    def assert_drained(self, parties: Iterable[str] | None = None) -> None:
        """Raise unless every queue is empty (protocol completed cleanly)."""
        names = list(parties) if parties is not None else sorted(self._parties)
        leftovers = {name: self.pending(name) for name in names}
        leftovers = {name: count for name, count in leftovers.items() if count}
        if leftovers:
            raise ProtocolError(f"undelivered messages remain: {leftovers}")
