"""Message envelope for the simulated network."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Message:
    """One delivered protocol message.

    Attributes
    ----------
    sender, recipient:
        Party names.
    kind:
        Protocol-level message type, e.g. ``"masked_vector"`` or
        ``"comparison_matrix"``.  Receivers assert the kind they expect,
        turning out-of-order protocol execution into a loud failure.
    tag:
        Free-form accounting label (``"numeric/age"``); benchmarks group
        byte counts by tag.
    payload:
        The deserialized payload object.
    wire_bytes:
        Exact size this message occupied on the wire, including secure
        channel sealing overhead when applicable.
    sealed:
        Whether the channel encrypted the message in transit.
    """

    sender: str
    recipient: str
    kind: str
    tag: str
    payload: Any = field(repr=False)
    wire_bytes: int
    sealed: bool
