"""Derivation labels shared by data holders and the third party.

Every PRNG stream and key in the system is derived from a pairwise secret
plus a *label*.  Labels must (a) be computable by both endpoints without
communication and (b) never collide across attributes, protocol kinds,
role assignments or pair members -- stream reuse would void the masking
arguments of Sections 4.1-4.2.  Centralising the label grammar here keeps
holders and the TP in exact agreement.
"""

from __future__ import annotations

from dataclasses import dataclass


def attribute_tag(spec) -> str:
    """Wire/accounting tag of one attribute's protocol traffic.

    Shared by holders (tagging every frame they send), the third party
    and the construction scheduler (selecting the delivery *lane* a
    receive step pops from), so all three always agree on which lane a
    run's messages ride.  ``spec`` is any object with ``attr_type`` and
    ``name`` (an :class:`repro.data.matrix.AttributeSpec`).
    """
    return f"{spec.attr_type.value}/{spec.name}"


def numeric_jk(attribute: str, initiator: str, responder: str) -> str:
    """``rng_JK`` for the numeric protocol (shared by the two holders)."""
    return f"num-jk|{attribute}|{initiator}>{responder}"


def numeric_jt(attribute: str, initiator: str, responder: str) -> str:
    """``rng_JT`` for the numeric protocol (initiator and third party).

    Includes the responder so each (J, K) pairing gets an independent
    mask stream even though the secret binds only J and TP.
    """
    return f"num-jt|{attribute}|{initiator}>{responder}"


def alnum_jt(attribute: str, initiator: str, responder: str) -> str:
    """``rng_JT`` for the alphanumeric protocol."""
    return f"alnum-jt|{attribute}|{initiator}>{responder}"


#: Delta-construction run parts (:mod:`repro.core.delta`).  The grown
#: site always responds with its arrival rows; ``"grow"`` compares them
#: against the initiator's *full* column, ``"base"`` against the
#: initiator's *pre-epoch base* only (its own arrivals already met the
#: responder's in the pair's ``"grow"`` run).  Together they cover each
#: new cross pair exactly once.
DELTA_PARTS = ("grow", "base")


@dataclass(frozen=True)
class RunScope:
    """Names one run of a comparison protocol.

    ``RunScope()`` is the initial construction; ``RunScope(epoch, part)``
    is one delta run, whose labels gain ``|delta{epoch}|{part}``.  The
    suffix names the ingest *epoch* (a counter every party tracks) and the
    run *part*, never global matrix positions, so a pair's transcript does
    not depend on how other sites grew; the epoch keeps mask streams
    unique over a session's history, even when a site shrinks and regrows
    over the same local ids.
    """

    epoch: int = 0
    part: str | None = None

    def __post_init__(self) -> None:
        if self.is_initial:
            return
        if self.part not in DELTA_PARTS:
            raise ValueError(
                f"unknown delta part {self.part!r}; available: {DELTA_PARTS}"
            )
        if self.epoch < 1:
            raise ValueError(f"delta epoch must be >= 1, got {self.epoch}")

    @property
    def is_initial(self) -> bool:
        return self.epoch == 0 and self.part is None

    def label(self, base: str) -> str:
        """The run's PRNG label for the initial run's ``base`` label."""
        if self.is_initial:
            return base
        return f"{base}|delta{self.epoch}|{self.part}"

    def meta(self) -> dict[str, object]:
        """Payload fields naming the run: none for the initial run."""
        if self.is_initial:
            return {}
        return {"part": self.part, "epoch": self.epoch}


def channel_key(party_a: str, party_b: str) -> str:
    """Symmetric key securing the link between two parties."""
    first, second = sorted((party_a, party_b))
    return f"channel|{first}|{second}"


def group_key_label() -> str:
    """Label under which the holder group's categorical key is wrapped
    for distribution (the key itself is random, not derived)."""
    return "categorical-group-key"
