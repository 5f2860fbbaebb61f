"""Retry/backoff policy for recovery on faulty links.

The simulator's send retransmits a frame the links dropped or damaged
until it arrives intact; the socket transport paces its redials and
bounds its receives with the same policy.  This module owns *how hard*
recovery tries: an attempt budget, a capped exponential backoff between
attempts, and an optional wall-clock ``deadline`` after which the
frame is declared lost.

Determinism note: nothing protocol-visible ever depends on these clock
reads.  Backoff only spaces retransmit attempts in wall-clock time (it
defaults to 0 so the in-process simulator never sleeps), and the
deadline only converts a hopeless retry loop into a structured
:class:`~repro.exceptions.LaneTimeoutError` *earlier* than the attempt
budget would -- whether a maskable fault is masked is decided purely by
the attempt budget, which is configuration, not time.  That is why the
two clock calls below carry justified RL103 waivers instead of moving
the module out of the linted network layer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """How recovery paces and bounds its attempts.

    Attributes
    ----------
    max_attempts:
        Delivery attempts per frame (first try plus retransmits) before
        the frame is lost and the receive that takes it raises
        :class:`~repro.exceptions.LaneTimeoutError`.
        This is the knob that decides which fault rates are *maskable*:
        a frame must survive one of ``max_attempts`` independent rolls.
    backoff_base:
        Sleep before retry ``n`` is ``backoff_base * 2**(n - 1)``,
        capped at ``backoff_cap``.  Defaults to 0: the in-process
        simulator retransmits instantly, and tests stay fast.
    backoff_cap:
        Upper bound on a single backoff sleep, in seconds.
    deadline:
        Optional wall-clock budget in seconds for one frame's recovery
        (for one receive, on the socket transport).  ``None`` (the
        default) bounds recovery by ``max_attempts`` alone.
    """

    max_attempts: int = 6
    backoff_base: float = 0.0
    backoff_cap: float = 0.05
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not math.isfinite(self.backoff_base) or not math.isfinite(self.backoff_cap):
            # NaN compares false against every bound below, and an
            # infinite base/cap would turn one retransmit pause into an
            # unbounded sleep -- both must fail loudly at construction.
            raise ConfigurationError(
                "backoff_base and backoff_cap must be finite, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError(
                "backoff_base and backoff_cap must be >= 0, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )
        if self.deadline is not None:
            if not math.isfinite(self.deadline):
                raise ConfigurationError(
                    f"deadline must be finite (use None for no deadline), "
                    f"got {self.deadline}"
                )
            if self.deadline <= 0:
                raise ConfigurationError(
                    f"deadline must be > 0 seconds, got {self.deadline}"
                )

    def backoff_delay(self, attempt: int) -> float:
        """Capped exponential delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        return min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_cap)

    def backoff(self, attempt: int) -> None:
        """Sleep the backoff delay (no-op at the default base of 0)."""
        delay = self.backoff_delay(attempt)
        if delay > 0:
            time.sleep(delay)  # reprolint: disable=RL103 -- paces retransmits in wall-clock time only; masks/results never depend on it

    def start_clock(self) -> float | None:
        """Deadline anchor for one receive (``None`` when unbounded)."""
        if self.deadline is None:
            return None
        return time.monotonic()  # reprolint: disable=RL103 -- bounds a retry loop's wall-clock budget; which faults get masked is decided by max_attempts alone

    def expired(self, started: float | None) -> bool:
        """Whether the deadline budget for one receive is spent."""
        if started is None or self.deadline is None:
            return False
        return time.monotonic() - started >= self.deadline  # reprolint: disable=RL103 -- see start_clock; deadline check only turns a dead lane into a structured error sooner
