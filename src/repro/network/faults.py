"""Seeded fault injection for the simulated network.

A :class:`FaultPlan` decides, frame by frame, whether the network
drops, duplicates, corrupts or delays a transmission, and whether the
recipient is currently down (scripted crash).  Decisions are driven by
the repo's own labeled PRNGs -- one stream per delivery lane, seeded as
``fault|<plan seed>|<sender>-><recipient>|<kind>|<tag>`` -- so a plan
is reproducible: the n-th frame of a lane always meets the same fate,
regardless of how other lanes interleave with it.

Two scheduling layers compose:

* **Rates**: a plan-wide default plus per-``(sender, recipient, kind)``
  :class:`FaultRule` overrides, each rolled against the lane stream.
* **Scripts**: an explicit action list per directed ``(sender,
  recipient, kind)`` triple -- ``("pass", "drop", ...)`` applied to
  that triple's 1st, 2nd, ... frame -- for tests that need one exact
  fault at one exact point.  Scripted frames consume no lane-stream
  words, so adding a script never shifts the rate-based decisions of
  other frames.

Crash events model parties going dark.  A *transient* crash
(``down_for`` given) is a partition: frames addressed to the party are
lost until ``down_for`` further delivery attempts have been absorbed,
after which the party is reachable again.  The simulator's send
retransmits a frame lost to an outage at once, so the frame that meets
the outage absorbs it attempt by attempt and then gets through:
transient crashes are maskable while ``down_for`` stays under the retry
budget.  A *permanent* crash (``down_for=None``) additionally makes the
party's own sends and receives raise
:class:`~repro.exceptions.PartyCrashError`; only the scheduler's
degraded mode survives that.

A *delayed* frame arrives late but intact and in order.  The simulated
links are synchronous, so a delay changes nothing a receive can see; it
is counted (``delayed_deliveries``) and otherwise delivered as is.

Retransmissions bypass the rate layer by default (``fault_retransmits``
turns them back on): the recovery path is modelled as clean, which is
what makes "rates the retry layer can mask" a guarantee rather than a
probability -- one retransmit always repairs a dropped or damaged
frame unless the recipient is down.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.crypto.prng import DEFAULT_PRNG_KIND, ReseedablePRNG, make_prng
from repro.exceptions import ConfigurationError

#: Built-in chaos presets for the CI chaos-smoke matrix.
PRESETS = ("lossy", "crashy")

_WORD_SCALE = float(2**64)


def _check_rate(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class FaultRule:
    """Rate overrides for frames matching a lane pattern.

    ``sender``/``recipient``/``kind`` of ``None`` match anything; the
    first matching rule (in plan order) wins over the plan defaults.
    """

    sender: str | None = None
    recipient: str | None = None
    kind: str | None = None
    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt", "delay"):
            _check_rate(name, getattr(self, name))

    def matches(self, sender: str, recipient: str, kind: str) -> bool:
        return (
            (self.sender is None or self.sender == sender)
            and (self.recipient is None or self.recipient == recipient)
            and (self.kind is None or self.kind == kind)
        )


@dataclass(frozen=True)
class CrashEvent:
    """One scripted party outage.

    The party goes down once ``after_frames`` frames addressed to it
    have been delivered (or absorbed by an earlier outage).  With
    ``down_for=n`` the next ``n`` delivery attempts to the party are
    lost and then it recovers (a maskable partition); ``down_for=None``
    is a permanent crash.
    """

    party: str
    after_frames: int
    down_for: int | None = None

    def __post_init__(self) -> None:
        if self.after_frames < 0:
            raise ConfigurationError(
                f"after_frames must be >= 0, got {self.after_frames}"
            )
        if self.down_for is not None and self.down_for < 1:
            raise ConfigurationError(
                f"down_for must be >= 1 or None, got {self.down_for}"
            )


@dataclass(frozen=True)
class FaultDecision:
    """What the plan does to one transmission: loses it, or delivers it,
    possibly duplicated and either corrupted or delayed."""

    deliver: bool = True
    duplicate: bool = False
    corrupt: bool = False
    delayed: bool = False


_CLEAN = FaultDecision()

#: Recognised scripted actions and the decision each stands for.
_SCRIPTED = {
    "pass": _CLEAN,
    "drop": FaultDecision(deliver=False),
    "duplicate": FaultDecision(duplicate=True),
    "corrupt": FaultDecision(corrupt=True),
    "delay": FaultDecision(delayed=True),
}


class _CrashState:
    """Mutable outage bookkeeping for one party (plan-lock guarded)."""

    def __init__(self, events: Sequence[CrashEvent]) -> None:
        self.pending = sorted(events, key=lambda e: e.after_frames)
        self.frames = 0
        self.remaining = 0
        self.permanent = False

    def absorb(self) -> bool:
        """Account one delivery attempt; ``True`` means the frame is lost."""
        if self.permanent:
            return True
        if self.remaining > 0:
            self.remaining -= 1
            return True
        self.frames += 1
        if self.pending and self.frames > self.pending[0].after_frames:
            event = self.pending.pop(0)
            if event.down_for is None:
                self.permanent = True
            else:
                # This frame triggered the outage and is its first loss.
                self.remaining = event.down_for - 1
            return True
        return False


class FaultPlan:
    """A seeded, reproducible schedule of network faults.

    Parameters
    ----------
    seed:
        Root of every lane stream.  Two plans with equal seeds and
        parameters make identical decisions.
    drop, duplicate, corrupt, delay:
        Default per-frame fault rates, overridable per lane pattern via
        ``rules``.
    rules:
        :class:`FaultRule` overrides; first match wins.
    crashes:
        Scripted :class:`CrashEvent` outages.
    script:
        ``{(sender, recipient, kind): ("pass", "drop", ...)}`` -- exact
        actions for a triple's first frames; later frames fall back to
        the rate layer.
    fault_retransmits:
        Apply the rate layer to retransmitted frames too (off by
        default; turning it on makes *no* fault schedule guaranteed
        maskable, which is what the timeout tests need).
    prng_kind:
        Which :mod:`repro.crypto.prng` generator realises the streams.
    """

    def __init__(
        self,
        seed: int | str,
        *,
        drop: float = 0.0,
        duplicate: float = 0.0,
        corrupt: float = 0.0,
        delay: float = 0.0,
        rules: Sequence[FaultRule] = (),
        crashes: Sequence[CrashEvent] = (),
        script: Mapping[tuple[str, str, str], Sequence[str]] | None = None,
        fault_retransmits: bool = False,
        prng_kind: str = DEFAULT_PRNG_KIND,
    ) -> None:
        self.drop = _check_rate("drop", drop)
        self.duplicate = _check_rate("duplicate", duplicate)
        self.corrupt = _check_rate("corrupt", corrupt)
        self.delay = _check_rate("delay", delay)
        self.rules = tuple(rules)
        self.fault_retransmits = bool(fault_retransmits)
        self._seed = seed
        self._prng_kind = prng_kind
        self._script = {
            key: tuple(actions) for key, actions in (script or {}).items()
        }
        for triple, actions in self._script.items():
            for action in actions:
                if action not in _SCRIPTED:
                    raise ConfigurationError(
                        f"unknown scripted action {action!r} for {triple}"
                    )
        events: dict[str, list[CrashEvent]] = {}
        for event in crashes:
            events.setdefault(event.party, []).append(event)
        #: Guards every mutable decision structure below.
        self._lock = threading.Lock()
        # guarded-by: self._lock
        self._lane_prngs: dict[tuple[str, str, str, str], ReseedablePRNG] = {}
        #: Frames seen per scripted triple (script cursor).
        # guarded-by: self._lock
        self._script_cursor: dict[tuple[str, str, str], int] = {}
        # guarded-by: self._lock
        self._crash_state: dict[str, _CrashState] = {
            party: _CrashState(party_events)
            for party, party_events in events.items()
        }

    # -- presets -----------------------------------------------------------

    @classmethod
    def preset(
        cls, name: str, seed: int | str, parties: Sequence[str] = ()
    ) -> "FaultPlan":
        """A named chaos profile (CI's chaos-smoke matrix runs these).

        ``"lossy"`` exercises every frame fault at rates the default
        retry budget masks; ``"crashy"`` adds one seeded *transient*
        outage per given party (holders, typically) on top of milder
        rates -- still maskable, so the determinism suites must pass
        unchanged under either preset.
        """
        if name == "lossy":
            return cls(
                seed,
                drop=0.12,
                duplicate=0.08,
                corrupt=0.08,
                delay=0.15,
                prng_kind=DEFAULT_PRNG_KIND,
            )
        if name == "crashy":
            prng = make_prng(f"fault-preset|{seed}|crashy", DEFAULT_PRNG_KIND)
            crashes = tuple(
                CrashEvent(
                    party,
                    after_frames=6 + prng.next_below(30),
                    down_for=2 + prng.next_below(3),
                )
                for party in parties
            )
            return cls(
                seed,
                drop=0.05,
                duplicate=0.04,
                corrupt=0.04,
                delay=0.08,
                crashes=crashes,
                prng_kind=DEFAULT_PRNG_KIND,
            )
        raise ConfigurationError(
            f"unknown fault preset {name!r}; available: {PRESETS}"
        )

    # -- decisions ---------------------------------------------------------

    def _rates(
        self, sender: str, recipient: str, kind: str
    ) -> tuple[float, float, float, float]:
        for rule in self.rules:
            if rule.matches(sender, recipient, kind):
                return (rule.drop, rule.duplicate, rule.corrupt, rule.delay)
        return (self.drop, self.duplicate, self.corrupt, self.delay)

    def _scripted(self, sender: str, recipient: str, kind: str) -> str | None:
        """Pop the next scripted action for a triple (``None`` = rates)."""
        key = (sender, recipient, kind)
        actions = self._script.get(key)
        if actions is None:
            return None
        with self._lock:
            cursor = self._script_cursor.get(key, 0)
            self._script_cursor[key] = cursor + 1
        if cursor >= len(actions):
            return "pass"
        return actions[cursor]

    def _lane_prng(
        self, sender: str, recipient: str, kind: str, tag: str
    ) -> ReseedablePRNG:
        key = (sender, recipient, kind, tag)
        prng = self._lane_prngs.get(key)
        if prng is None:
            with self._lock:
                prng = self._lane_prngs.get(key)
                if prng is None:
                    label = f"fault|{self._seed}|{sender}->{recipient}|{kind}|{tag}"
                    prng = make_prng(label, self._prng_kind)
                    self._lane_prngs[key] = prng
        return prng

    def decide(
        self,
        sender: str,
        recipient: str,
        kind: str,
        tag: str,
        retransmission: bool = False,
    ) -> FaultDecision:
        """The fate of one frame about to enter ``recipient``'s lane.

        Scripted triples consume their script cursor; everything else
        rolls the lane stream (always the same number of words per
        frame, so a lane's n-th frame meets a seed-determined fate).
        Retransmissions are clean unless ``fault_retransmits``.
        """
        scripted = None if retransmission else self._scripted(sender, recipient, kind)
        if scripted is not None:
            return _SCRIPTED[scripted]
        if retransmission and not self.fault_retransmits:
            return _CLEAN
        drop, duplicate, corrupt, delay = self._rates(sender, recipient, kind)
        if not (drop or duplicate or corrupt or delay):
            return _CLEAN
        prng = self._lane_prng(sender, recipient, kind, tag)
        with self._lock:
            # Six words per frame, two of them unused: the draw count is
            # what places every later frame of the lane on its stream.
            words = prng.next_words(6)
        rolls = [int(w) / _WORD_SCALE for w in words[:4]]
        if rolls[0] < drop:
            return FaultDecision(deliver=False)
        dup = rolls[1] < duplicate
        if rolls[2] < corrupt:
            return FaultDecision(duplicate=dup, corrupt=True)
        return FaultDecision(duplicate=dup, delayed=rolls[3] < delay)

    # -- crash bookkeeping -------------------------------------------------

    def absorb_frame_to(self, party: str) -> bool:
        """Account one delivery attempt to ``party``.

        Returns ``True`` when the frame is lost to an outage; ticks
        transient outages toward recovery either way.
        """
        state = self._crash_state.get(party)
        if state is None:
            return False
        with self._lock:
            return state.absorb()

    def permanently_down(self, party: str) -> bool:
        """Whether ``party`` has hit a permanent crash event."""
        state = self._crash_state.get(party)
        if state is None:
            return False
        with self._lock:
            return state.permanent

    def crashed_parties(self) -> list[str]:
        """Parties currently permanently down, in sorted order."""
        with self._lock:
            return sorted(
                party
                for party, state in self._crash_state.items()
                if state.permanent
            )
