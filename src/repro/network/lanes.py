"""The lane inbox: one recipient's queued messages, for both transports.

A :class:`LaneInbox` keeps one FIFO deque per *lane* -- the ``(sender,
kind, tag)`` of a message -- and numbers every entry in the recipient's
global arrival order.  The simulator holds one inbox per party and the
socket transport one for its local party, so the receive contract of
:mod:`repro.network.transport` is this module's code on both:

* a **lane receive** (``tag`` given) takes the head of exactly that lane;
* a **tagless receive** takes the oldest entry, or the oldest from
  ``sender`` when one is given, and -- after taking it -- raises
  :class:`~repro.exceptions.ProtocolError` when its kind is not the
  asserted one.

The inbox has no lock: its owner guards every call (the simulator's
per-recipient lock, the socket transport's condition variable).
Entries are opaque to it -- the simulator queues messages and records
of frames lost for good, the socket transport messages -- so error
texts name lanes only, never payloads.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

from repro.exceptions import ChannelError, ProtocolError

#: Lane key: ``(sender, kind, tag)`` of a message, per recipient.
Lane = tuple[str, str, str]

#: How many queued messages a diagnostic snapshot lists before truncating.
_SNAPSHOT_LIMIT = 12

EntryT = TypeVar("EntryT")


class LaneInbox(Generic[EntryT]):
    """Lane-keyed FIFO queues of one recipient, in global arrival order."""

    def __init__(self, owner: str) -> None:
        self._owner = owner
        self._lanes: dict[Lane, deque[tuple[int, EntryT]]] = {}
        self._arrivals = 0

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._lanes.values())

    def put(self, lane: Lane, entry: EntryT) -> None:
        """Queue one entry at the tail of its lane."""
        queue = self._lanes.get(lane)
        if queue is None:
            queue = self._lanes[lane] = deque()
        queue.append((self._arrivals, entry))
        self._arrivals += 1

    def pop(self, lane: Lane) -> EntryT:
        """Take the lane's oldest entry (the lane must be non-empty)."""
        queue = self._lanes[lane]
        _, entry = queue.popleft()
        if not queue:
            del self._lanes[lane]
        return entry

    def clear(self) -> int:
        """Discard every entry; returns how many there were."""
        dropped = len(self)
        self._lanes.clear()
        return dropped

    def select(self, kind: str | None, sender: str | None, tag: str | None) -> Lane | None:
        """The lane a receive takes from, or ``None`` if it has nothing.

        With ``tag``, the ``(sender, kind, tag)`` lane; without, the lane
        whose head arrived first -- among ``sender``'s lanes when given.
        """
        if tag is not None:
            if kind is None or sender is None:
                raise ChannelError("lane receive requires kind and sender alongside tag")
            lane = (sender, kind, tag)
            return lane if lane in self._lanes else None
        best: Lane | None = None
        best_arrival = -1
        for lane, queue in self._lanes.items():
            if sender is not None and lane[0] != sender:
                continue
            arrival = queue[0][0]
            if best is None or arrival < best_arrival:
                best, best_arrival = lane, arrival
        return best

    def take(self, kind: str | None, sender: str | None, tag: str | None) -> EntryT | None:
        """One receive: take the selected entry and check its kind."""
        lane = self.select(kind, sender, tag)
        if lane is None:
            return None
        entry = self.pop(lane)
        self.check_kind(lane, kind)
        return entry

    def check_kind(self, lane: Lane, kind: str | None) -> None:
        """Raise if a just-taken entry of ``lane`` is not of ``kind``."""
        if kind is not None and lane[1] != kind:
            raise ProtocolError(
                f"{self._owner!r} expected kind {kind!r}, got {lane[1]!r} "
                f"from {lane[0]!r}; after taking it, {self.snapshot()}"
            )

    def missing(self, kind: str | None, sender: str | None, tag: str | None) -> ProtocolError:
        """The error of a receive that found nothing to take."""
        if tag is not None:
            return ProtocolError(
                f"{self._owner!r} has no pending {kind!r} from {sender!r} "
                f"on lane {tag!r}; {self.snapshot()}"
            )
        if sender is not None:
            return ProtocolError(
                f"{self._owner!r} expected sender {sender!r}, but nothing "
                f"from it is queued; {self.snapshot()}"
            )
        return ProtocolError(f"{self._owner!r} has no pending messages")

    def snapshot(self) -> str:
        """Queued lanes in arrival order (kinds, senders and tags only,
        truncated) -- what receive errors report."""
        queued = sorted(
            (arrival, lane)
            for lane, queue in self._lanes.items()
            for arrival, _ in queue
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
