"""Dissimilarity matrix construction (paper Section 5, Figure 11).

For each attribute chosen for clustering, the third party

1. requests every holder's local dissimilarity matrix (numeric and
   alphanumeric attributes; categorical columns arrive encrypted
   instead), and
2. runs the pairwise comparison protocol between every holder pair --
   ``C(k, 2)`` runs per attribute, initiator chosen as the
   lexicographically smaller site so all parties agree without
   negotiation --

then normalises the completed matrix into [0, 1] (Figure 11 step 4).

Since the transport PR this sequence is expressed as a step graph and
executed by :class:`repro.core.scheduler.ConstructionScheduler`: the
``"sequential"`` policy replays the seed's exact order, while
``"parallel"`` runs independent local-matrix transfers, protocol rounds
and TP block-writes on a worker pool.  These functions are
the deterministic drivers over the in-process parties; they perform no
unmasking or maths themselves.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.scheduler import ConstructionOutcome, ConstructionScheduler
from repro.data.matrix import AttributeSpec
from repro.parties.holder import DataHolder
from repro.parties.third_party import ThirdParty


def construct_attribute(
    spec: AttributeSpec,
    holders: Mapping[str, DataHolder],
    third_party: ThirdParty,
) -> None:
    """Build the global dissimilarity matrix for one attribute.

    Drives holders and the third party through the Figure 11 sequence
    (seed order); on return ``third_party.attribute_matrix(spec.name)``
    is available.
    """
    construct_attributes([spec], holders, third_party)


def construct_attributes(
    specs: Iterable[AttributeSpec],
    holders: Mapping[str, DataHolder],
    third_party: ThirdParty,
    policy: str = "sequential",
    max_workers: int = 4,
    tolerate_faults: bool = False,
    watchdog_timeout: float | None = None,
) -> ConstructionOutcome:
    """Build the global matrices for many attributes under one schedule.

    ``max_workers`` sizes the worker pool of the ``"parallel"`` policy
    (ignored by the sequential schedule).  Returns a
    :class:`~repro.core.scheduler.ConstructionOutcome`: the realized
    step schedule (useful to assert pipelining in tests and to debug
    protocol choreography) and a degradation report.

    With ``tolerate_faults=True`` a crashed or unreachable party no
    longer aborts the run: only the affected attributes' steps fail (and
    their dependents are cancelled), the rest complete normally, and the
    report names exactly what was lost -- a partial result set instead
    of an exception.  ``watchdog_timeout`` arms the parallel policy's
    stall watchdog.
    """
    scheduler = ConstructionScheduler(
        holders,
        third_party,
        policy=policy,
        max_workers=max_workers,
        tolerate_faults=tolerate_faults,
        watchdog_timeout=watchdog_timeout,
    )
    for spec in specs:
        scheduler.add_attribute(spec)
    return scheduler.run()
