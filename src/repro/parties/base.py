"""Common machinery for protocol participants."""

from __future__ import annotations

from typing import Any

from repro.crypto.keys import PairwiseSecret
from repro.exceptions import ProtocolError
from repro.network.message import Message
from repro.network.transport import Transport


class Party:
    """A named participant bound to a session transport.

    Subclasses add role behaviour; this base provides messaging plus the
    pairwise-secret store every role needs (Section 4.1: each relevant
    pair of parties shares a secret number).  The transport may be the
    in-process simulator or a per-process socket endpoint
    (:mod:`repro.network.tcp`) -- protocol code cannot tell the
    difference.
    """

    def __init__(self, name: str, network: Transport) -> None:
        if not name:
            raise ProtocolError("party name must be non-empty")
        self.name = name
        self._network = network
        self._secrets: dict[str, PairwiseSecret] = {}

    # -- secrets -----------------------------------------------------------

    def set_secret(self, peer: str, secret: PairwiseSecret) -> None:
        """Install the shared secret with ``peer`` (from key agreement)."""
        if peer == self.name:
            raise ProtocolError("cannot share a secret with oneself")
        if set(secret.pair) != {self.name, peer}:
            raise ProtocolError(
                f"secret binds {secret.pair}, not ({self.name!r}, {peer!r})"
            )
        self._secrets[peer] = secret

    def secret_with(self, peer: str) -> PairwiseSecret:
        """The shared secret with ``peer``; raises if never established."""
        try:
            return self._secrets[peer]
        except KeyError:
            raise ProtocolError(
                f"{self.name!r} holds no shared secret with {peer!r}"
            ) from None

    # -- messaging ---------------------------------------------------------

    def send(self, recipient: str, kind: str, payload: Any, tag: str = "") -> None:
        """Transmit a protocol message over the (possibly secured) channel."""
        self._network.send(self.name, recipient, kind, payload, tag=tag)

    def receive(
        self,
        kind: str | None = None,
        sender: str | None = None,
        tag: str | None = None,
    ) -> Message:
        """Receive the oldest queued message (from ``sender`` when
        given), asserting its kind.

        With ``tag``, takes the head of the ``(sender, kind, tag)``
        delivery lane instead of the oldest message -- the form every
        scheduler-driven protocol step uses, so concurrent runs on other
        attributes or pairs can never be mis-delivered to this one.
        """
        return self._network.receive(self.name, kind=kind, sender=sender, tag=tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
