"""Pipelined construction scheduling (Figure 11 as a step graph).

The seed drove matrix construction as one strictly sequential loop:
every holder's local matrix shipped and landed before the first
comparison run started, and every attribute completed before the next
began.  Nothing in the protocol requires that -- each of the ``C(k, 2)``
comparison runs per attribute uses its own pairwise-derived generators,
and the third party's block writes touch disjoint regions -- so this
module decomposes construction into *schedulable steps* (ship local
matrix, initiate, respond, absorb a block, finalize) with explicit
dependencies, and executes any interleaving the dependency graph and the
FIFO network admit.

Two ordering policies ship:

* ``"sequential"`` replays the seed's exact global order -- on sealed
  channels every wire byte, including each frame's position in the
  per-channel nonce stream, is byte-identical to the seed transcript.
* ``"parallel"`` executes runnable steps on a real
  :class:`~concurrent.futures.ThreadPoolExecutor` (``max_workers``
  threads).  The numpy-heavy protocol steps release the GIL, so
  independent (attribute, pair) runs genuinely overlap on multicore
  hardware, and messages of independent runs overlap in flight when the
  network models link latency.  Each receive step pops from its run's
  delivery *lane* (``(sender, kind, tag)`` --
  :meth:`repro.network.simulator.Network.receive`), so no interleaving
  of workers can mis-deliver.

Correctness under reordering rests on two mechanisms.  *PRNG isolation*:
every protocol run derives its generators from pairwise secrets under
attribute-and-pair-scoped labels (:mod:`repro.core.labels`), so no
schedule can change any party's protocol PRNG stream -- the protocol
*messages* are byte-identical under every policy, and the property tests
pin that.  *Queue gating*: a step that consumes a message runs only when
that exact message (kind and sender) is at the head of its party's FIFO
queue (:meth:`repro.network.simulator.Network.peek`), so interleaving
can never mis-deliver; an impossible schedule degrades to a
:class:`~repro.exceptions.ProtocolError` deadlock report, never to a
wrong matrix.  What *does* legitimately differ between policies is the
assignment of channel nonces to frames (a sealed frame's position in its
channel's nonce stream depends on the schedule), which changes no
payload, no byte count and no statistic.

Under the parallel policy a third mechanism joins them: *disjoint block
writes*.  Every step the executor may run concurrently touches either a
different attribute's matrix or a disjoint region of the same one (the
third party's off-diagonal blocks), and per-attribute finalizes are
sequenced after all of that attribute's blocks by explicit dependencies
-- so for any worker count the final per-attribute and merged matrices
are bit-identical to the sequential policy's.  The determinism suite
(``tests/test_parallel_determinism.py``) holds every policy and worker
count to that.  What legitimately differs, beyond nonce-to-frame
assignment, is only the realized step trace and each lane's interleaving
against other lanes -- never any payload, byte count or result.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core import labels
from repro.data.matrix import AttributeSpec
from repro.exceptions import (
    ConfigurationError,
    LaneTimeoutError,
    PartyCrashError,
    ProtocolError,
    SchedulerStallError,
)
from repro.parties.holder import DataHolder
from repro.parties.third_party import ThirdParty
from repro.types import AttributeType

#: Ordering policies accepted by :class:`ConstructionScheduler`.
SCHEDULE_POLICIES = ("sequential", "parallel")

#: Failures a fault-tolerant run degrades on (everything else still
#: aborts: a wrong matrix is never an acceptable degradation).
_FAULT_ERRORS = (PartyCrashError, LaneTimeoutError)

# Wave ranks for the parallel policy's submission order: steps of one wave
# across all attributes and pairs are submitted before the next wave's.
_SEND_LOCAL, _RECV_LOCAL, _INITIATE, _RESPOND, _RECV_BLOCK, _FINALIZE = range(6)


@dataclass
class Step:
    """One schedulable unit of the construction choreography.

    ``receives`` gates execution on ``(party, kind, sender)`` being the
    head of ``party``'s delivery queue; ``None`` means the step only
    sends or computes.  ``order`` is the policy-assigned priority key --
    the executor always runs the lowest-ordered runnable step, so the
    key fully determines the schedule among admissible ones.
    """

    name: str
    run: Callable[[], None]
    deps: tuple[str, ...] = ()
    receives: tuple[str, str, str] | None = None
    order: tuple = ()
    #: The party whose process executes this step.  The in-process
    #: scheduler ignores it (every step runs locally); the socket
    #: runner (:mod:`repro.parties.runner`) slices the graph by owner
    #: so each party process executes exactly its own steps, in
    #: registration order.
    owner: str = ""

    @property
    def group(self) -> str:
        """The attribute this step builds (step names are ``attr:phase``)."""
        return self.name.split(":", 1)[0]


@dataclass(frozen=True)
class DegradedReport:
    """What a fault-tolerant construction run lost, and what survived.

    ``failed_steps`` maps each step that raised a tolerated fault
    (:class:`~repro.exceptions.PartyCrashError` or
    :class:`~repro.exceptions.LaneTimeoutError`) to a one-line error
    summary; ``cancelled_steps`` are the transitive dependents that were
    never run because of those failures.  An attribute is *failed* as
    soon as any of its steps failed or was cancelled -- its matrix must
    not be trusted -- and *completed* otherwise (its finalize ran, its
    matrix is exactly the fault-free one).
    """

    failed_steps: tuple[tuple[str, str], ...]
    cancelled_steps: tuple[str, ...]
    failed_attributes: tuple[str, ...]
    completed_attributes: tuple[str, ...]

    @property
    def degraded(self) -> bool:
        return bool(self.failed_steps or self.cancelled_steps)

    def summary(self) -> str:
        if not self.degraded:
            return "construction completed without degradation"
        failures = "; ".join(f"{name}: {error}" for name, error in self.failed_steps)
        return (
            f"construction degraded: {len(self.failed_steps)} step(s) failed "
            f"({failures}), {len(self.cancelled_steps)} cancelled; lost "
            f"attributes {list(self.failed_attributes)}, kept "
            f"{list(self.completed_attributes)}"
        )


@dataclass(frozen=True)
class ConstructionOutcome:
    """Realized schedule plus the degradation report of a tolerant run."""

    trace: tuple[str, ...]
    report: DegradedReport

    @property
    def degraded(self) -> bool:
        return self.report.degraded


class ConstructionScheduler:
    """Builds and executes the step graph for a set of attributes.

    Parameters
    ----------
    holders:
        ``{site: DataHolder}`` -- must match the third party's index.
    third_party:
        The TP whose matrices the steps fill.
    policy:
        One of :data:`SCHEDULE_POLICIES`.
    tolerate_faults:
        ``False`` (the default) re-raises the first step failure, as the
        pre-fault-tolerance scheduler always did.  ``True`` degrades
        instead: a step failing with :class:`PartyCrashError` or
        :class:`LaneTimeoutError` marks only its attribute as failed,
        transitively cancels the steps that depended on it, and lets
        every other attribute finish; :meth:`run` then returns a
        :class:`ConstructionOutcome` whose report names exactly what was
        lost.  Any other exception still aborts the run.
    watchdog_timeout:
        Optional stall watchdog for the ``"parallel"`` policy, in
        seconds.  When no step completes for this long while work is
        outstanding, the run raises
        :class:`~repro.exceptions.SchedulerStallError` naming every
        pending step -- a deadlock report instead of a silent hang.
        ``None`` (the default) waits forever, as before.
    """

    def __init__(
        self,
        holders: Mapping[str, DataHolder],
        third_party: ThirdParty,
        policy: str = "sequential",
        max_workers: int = 4,
        tolerate_faults: bool = False,
        watchdog_timeout: float | None = None,
    ) -> None:
        if policy not in SCHEDULE_POLICIES:
            raise ConfigurationError(
                f"unknown schedule policy {policy!r}; available: {SCHEDULE_POLICIES}"
            )
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if watchdog_timeout is not None and watchdog_timeout <= 0:
            raise ConfigurationError(
                f"watchdog_timeout must be > 0 seconds, got {watchdog_timeout}"
            )
        sites = list(third_party.index.sites)
        if set(sites) != set(holders):
            raise ProtocolError(
                f"holders {sorted(holders)} do not match index sites {sites}"
            )
        self.policy = policy
        self.max_workers = int(max_workers)
        self.tolerate_faults = bool(tolerate_faults)
        self.watchdog_timeout = watchdog_timeout
        self._holders = dict(holders)
        self._tp = third_party
        self._sites = sites
        self._steps: list[Step] = []
        self._names: set[str] = set()
        self._attr_index = 0
        self._seq = 0

    # -- graph construction ------------------------------------------------

    def _add(
        self,
        name: str,
        run: Callable[[], None],
        wave: int,
        lane: int,
        deps: tuple[str, ...] = (),
        receives: tuple[str, str, str] | None = None,
        owner: str = "",
    ) -> str:
        """Register a step; ``lane`` spreads one wave across pairs/sites."""
        if name in self._names:
            raise ProtocolError(f"duplicate construction step {name!r}")
        if self.policy == "sequential":
            order: tuple = (self._seq,)
        else:
            # The parallel executor submits ready steps in this order,
            # which front-loads sends so receives find their lanes
            # populated.
            order = (wave, lane, self._attr_index, self._seq)
        self._seq += 1
        self._names.add(name)
        self._steps.append(
            Step(
                name=name,
                run=run,
                deps=deps,
                receives=receives,
                order=order,
                owner=owner,
            )
        )
        return name

    def party_plan(self, owner: str) -> list[Step]:
        """One party's slice of the graph, in registration order.

        Registration order is the sequential policy's global order, so
        each party executing its own slice serially -- with blocking
        receives standing in for queue-head gating -- realizes exactly
        the schedule the sequential in-process run would: every lane's
        frames are produced and consumed in the same order, which is
        what makes multi-process transcripts byte-identical.
        """
        return [step for step in self._steps if step.owner == owner]

    def add_attribute(self, spec: AttributeSpec) -> None:
        """Append the Figure 11 steps for one attribute to the graph."""
        tp = self._tp
        sites = self._sites
        attr = spec.name
        tag = labels.attribute_tag(spec)
        finalize_deps: list[str] = []

        if spec.attr_type is AttributeType.CATEGORICAL:
            for lane, site in enumerate(sites):
                sent = self._add(
                    f"{attr}:send_encrypted[{site}]",
                    lambda site=site: self._holders[site].send_categorical(spec, tp.name),
                    wave=_SEND_LOCAL,
                    lane=lane,
                    owner=site,
                )
                finalize_deps.append(
                    self._add(
                        f"{attr}:recv_encrypted[{site}]",
                        lambda site=site, t=tag: tp.receive_encrypted_column(
                            site, tag=t
                        ),
                        wave=_RECV_LOCAL,
                        lane=lane,
                        deps=(sent,),
                        receives=(tp.name, "encrypted_column", site),
                        owner=tp.name,
                    )
                )
            self._add(
                f"{attr}:finalize",
                lambda: (tp.finalize_categorical(attr), tp.finalize_attribute(attr)),
                wave=_FINALIZE,
                lane=0,
                deps=tuple(finalize_deps),
                owner=tp.name,
            )
            self._attr_index += 1
            return

        numeric = spec.attr_type is AttributeType.NUMERIC
        for lane, site in enumerate(sites):
            sent = self._add(
                f"{attr}:send_local[{site}]",
                lambda site=site: self._holders[site].send_local_matrix(tp.name, spec),
                wave=_SEND_LOCAL,
                lane=lane,
                owner=site,
            )
            finalize_deps.append(
                self._add(
                    f"{attr}:recv_local[{site}]",
                    lambda site=site, t=tag: tp.receive_local_matrix(site, tag=t),
                    wave=_RECV_LOCAL,
                    lane=lane,
                    deps=(sent,),
                    receives=(tp.name, "local_matrix", site),
                    owner=tp.name,
                )
            )

        masked_kind = (
            ("masked_vector" if tp.suite.batch_numeric else "masked_matrix")
            if numeric
            else "masked_strings"
        )
        block_kind = "comparison_matrix" if numeric else "ccm_matrices"
        pair_lane = 0
        for j_index, initiator in enumerate(sites):
            for responder in sites[j_index + 1 :]:
                pair = f"{initiator}->{responder}"
                if numeric:
                    initiated = self._add(
                        f"{attr}:initiate[{pair}]",
                        lambda i=initiator, r=responder: self._holders[i].numeric_initiate(
                            spec, r, tp.name, responder_size=tp.index.size_of(r)
                        ),
                        wave=_INITIATE,
                        lane=pair_lane,
                        owner=initiator,
                    )
                    responded = self._add(
                        f"{attr}:respond[{pair}]",
                        lambda i=initiator, r=responder: self._holders[r].numeric_respond(
                            spec, i, tp.name
                        ),
                        wave=_RESPOND,
                        lane=pair_lane,
                        deps=(initiated,),
                        receives=(responder, masked_kind, initiator),
                        owner=responder,
                    )
                    absorb = lambda r=responder, t=tag: tp.receive_numeric_block(
                        r, tag=t
                    )
                else:
                    initiated = self._add(
                        f"{attr}:initiate[{pair}]",
                        lambda i=initiator, r=responder: self._holders[i].alnum_initiate(
                            spec, r, tp.name
                        ),
                        wave=_INITIATE,
                        lane=pair_lane,
                        owner=initiator,
                    )
                    responded = self._add(
                        f"{attr}:respond[{pair}]",
                        lambda i=initiator, r=responder: self._holders[r].alnum_respond(
                            spec, i, tp.name
                        ),
                        wave=_RESPOND,
                        lane=pair_lane,
                        deps=(initiated,),
                        receives=(responder, masked_kind, initiator),
                        owner=responder,
                    )
                    absorb = lambda r=responder, t=tag: tp.receive_alnum_block(r, tag=t)
                finalize_deps.append(
                    self._add(
                        f"{attr}:recv_block[{pair}]",
                        absorb,
                        wave=_RECV_BLOCK,
                        lane=pair_lane,
                        deps=(responded,),
                        receives=(tp.name, block_kind, responder),
                        owner=tp.name,
                    )
                )
                pair_lane += 1

        self._add(
            f"{attr}:finalize",
            lambda: tp.finalize_attribute(attr),
            wave=_FINALIZE,
            lane=0,
            deps=tuple(finalize_deps),
            owner=tp.name,
        )
        self._attr_index += 1

    def add_attribute_delta(self, spec: AttributeSpec, plan) -> None:
        """Append one attribute's delta rounds for an ingest epoch.

        Same wave structure as :meth:`add_attribute`, restricted to the
        pairs an arrival touches: grown sites ship local tails (or
        arrival ciphertexts), and each ordered holder pair runs at most
        two sub-column comparison rounds (``"grow"``: initiator arrivals
        x all responder records; ``"base"``: initiator base x responder
        arrivals) -- every new pair exactly once, no old pair ever
        re-proven.  The third party's finalize re-normalises the patched
        matrix, since arrivals may move the [0, 1] peak.
        """
        tp = self._tp
        sites = self._sites
        attr = spec.name
        tag = labels.attribute_tag(spec)
        epoch = plan.epoch
        grown = [site for site in sites if plan.site(site).added]
        if not grown:
            raise ProtocolError(f"delta plan for {attr!r} has no arrivals")
        finalize_deps: list[str] = []
        suffix = f"@{epoch}"

        if spec.attr_type is AttributeType.CATEGORICAL:
            for lane, site in enumerate(grown):
                sent = self._add(
                    f"{attr}:send_encrypted_delta[{site}]{suffix}",
                    lambda site=site: self._holders[site].send_categorical_delta(
                        spec, tp.name, plan.site(site).old_size
                    ),
                    wave=_SEND_LOCAL,
                    lane=lane,
                    owner=site,
                )
                finalize_deps.append(
                    self._add(
                        f"{attr}:recv_encrypted_delta[{site}]{suffix}",
                        lambda site=site, t=tag: tp.receive_encrypted_delta(
                            site, tag=t
                        ),
                        wave=_RECV_LOCAL,
                        lane=lane,
                        deps=(sent,),
                        receives=(tp.name, "encrypted_column_delta", site),
                        owner=tp.name,
                    )
                )
            self._add(
                f"{attr}:finalize{suffix}",
                lambda: (tp.finalize_categorical_delta(attr), tp.finalize_attribute(attr)),
                wave=_FINALIZE,
                lane=0,
                deps=tuple(finalize_deps),
                owner=tp.name,
            )
            self._attr_index += 1
            return

        numeric = spec.attr_type is AttributeType.NUMERIC
        for lane, site in enumerate(grown):
            sent = self._add(
                f"{attr}:send_local_delta[{site}]{suffix}",
                lambda site=site: self._holders[site].send_local_delta(
                    tp.name, spec, plan.site(site).old_size
                ),
                wave=_SEND_LOCAL,
                lane=lane,
                owner=site,
            )
            finalize_deps.append(
                self._add(
                    f"{attr}:recv_local_delta[{site}]{suffix}",
                    lambda site=site, t=tag: tp.receive_local_delta(site, tag=t),
                    wave=_RECV_LOCAL,
                    lane=lane,
                    deps=(sent,),
                    receives=(tp.name, "local_matrix_delta", site),
                    owner=tp.name,
                )
            )

        masked_kind = (
            ("masked_vector" if tp.suite.batch_numeric else "masked_matrix")
            if numeric
            else "masked_strings"
        )
        block_kind = "comparison_matrix" if numeric else "ccm_matrices"
        pair_lane = 0
        for j_index, first in enumerate(sites):
            for second in sites[j_index + 1 :]:
                grow_first = plan.site(first)
                grow_second = plan.site(second)
                # The grown site always *responds* with its arrival rows:
                # per-row costs (responder matrix rows, serializer runs,
                # TP row unmasks) then scale with the batch, not with the
                # peer's whole partition.
                runs = []
                if grow_first.added:
                    # Second's full column x first's arrivals.
                    runs.append(
                        (
                            "grow",
                            second,
                            first,
                            (0, grow_second.new_size),
                            (grow_first.old_size, grow_first.new_size),
                        )
                    )
                if grow_second.added:
                    # First's base x second's arrivals (first's own
                    # arrivals already met second's in the "grow" run).
                    runs.append(
                        (
                            "base",
                            first,
                            second,
                            (0, grow_first.old_size),
                            (grow_second.old_size, grow_second.new_size),
                        )
                    )
                for part, initiator, responder, initiator_range, responder_range in runs:
                    pair = f"{initiator}->{responder}|{part}"
                    if numeric:
                        initiated = self._add(
                            f"{attr}:initiate[{pair}]{suffix}",
                            lambda i=initiator, r=responder, p=part, ir=initiator_range, rr=responder_range: self._holders[
                                i
                            ].numeric_initiate_delta(
                                spec,
                                r,
                                tp.name,
                                p,
                                epoch,
                                ir,
                                responder_size=rr[1] - rr[0],
                            ),
                            wave=_INITIATE,
                            lane=pair_lane,
                            owner=initiator,
                        )
                        responded = self._add(
                            f"{attr}:respond[{pair}]{suffix}",
                            lambda i=initiator, r=responder, p=part, rr=responder_range: self._holders[
                                r
                            ].numeric_respond_delta(spec, i, tp.name, p, epoch, rr),
                            wave=_RESPOND,
                            lane=pair_lane,
                            deps=(initiated,),
                            receives=(responder, masked_kind, initiator),
                            owner=responder,
                        )
                        absorb = lambda r=responder, t=tag: tp.receive_numeric_delta_block(
                            r, tag=t
                        )
                    else:
                        initiated = self._add(
                            f"{attr}:initiate[{pair}]{suffix}",
                            lambda i=initiator, r=responder, p=part, ir=initiator_range: self._holders[
                                i
                            ].alnum_initiate_delta(spec, r, tp.name, p, epoch, ir),
                            wave=_INITIATE,
                            lane=pair_lane,
                            owner=initiator,
                        )
                        responded = self._add(
                            f"{attr}:respond[{pair}]{suffix}",
                            lambda i=initiator, r=responder, p=part, rr=responder_range: self._holders[
                                r
                            ].alnum_respond_delta(spec, i, tp.name, p, epoch, rr),
                            wave=_RESPOND,
                            lane=pair_lane,
                            deps=(initiated,),
                            receives=(responder, masked_kind, initiator),
                            owner=responder,
                        )
                        absorb = lambda r=responder, t=tag: tp.receive_alnum_delta_block(
                            r, tag=t
                        )
                    finalize_deps.append(
                        self._add(
                            f"{attr}:recv_block[{pair}]{suffix}",
                            absorb,
                            wave=_RECV_BLOCK,
                            lane=pair_lane,
                            deps=(responded,),
                            receives=(tp.name, block_kind, responder),
                            owner=tp.name,
                        )
                    )
                    pair_lane += 1

        self._add(
            f"{attr}:finalize{suffix}",
            lambda: tp.finalize_attribute(attr),
            wave=_FINALIZE,
            lane=0,
            deps=tuple(finalize_deps),
            owner=tp.name,
        )
        self._attr_index += 1

    # -- execution ---------------------------------------------------------

    def _runnable(self, step: Step, done: set[str]) -> bool:
        if any(dep not in done for dep in step.deps):
            return False
        if step.receives is not None:
            party, kind, sender = step.receives
            if self.tolerate_faults:
                plan = self._tp.network.fault_plan
                if plan is not None and plan.permanently_down(party):
                    # The receive will raise PartyCrashError immediately;
                    # run it now so the failure is recorded instead of
                    # gating forever on a dead party's queue head.
                    return True
            head = self._tp.network.peek(party)
            if head is None or head.kind != kind or head.sender != sender:
                return False
        return True

    def _dependents(self) -> dict[str, list[str]]:
        """Reverse dependency edges over the whole graph."""
        dependents: dict[str, list[str]] = {step.name: [] for step in self._steps}
        for step in self._steps:
            for dep in step.deps:
                dependents[dep].append(step.name)
        return dependents

    def _doomed(self, failed: str, dependents: Mapping[str, list[str]]) -> set[str]:
        """Every step transitively depending on a failed one.

        Cancellation is complete because every receive step's ``deps``
        include the step that sends its message: a failed sender never
        leaves a receiver waiting forever -- the receiver is cancelled.
        """
        doomed: set[str] = set()
        stack = list(dependents[failed])
        while stack:
            name = stack.pop()
            if name in doomed:
                continue
            doomed.add(name)
            stack.extend(dependents[name])
        return doomed

    def _report(
        self, failed: Mapping[str, str], cancelled: tuple[str, ...]
    ) -> DegradedReport:
        lost_groups = {name.split(":", 1)[0] for name in failed}
        lost_groups.update(name.split(":", 1)[0] for name in cancelled)
        groups: list[str] = []
        for step in self._steps:
            if step.group not in groups:
                groups.append(step.group)
        return DegradedReport(
            failed_steps=tuple(sorted(failed.items())),
            cancelled_steps=cancelled,
            failed_attributes=tuple(g for g in groups if g in lost_groups),
            completed_attributes=tuple(g for g in groups if g not in lost_groups),
        )

    def run(self) -> list[str] | ConstructionOutcome:
        """Execute every step; returns the realized schedule (step names).

        The ``"sequential"`` policy always runs the lowest-ordered
        runnable step, so its execution is deterministic.  The
        ``"parallel"`` policy executes steps on worker threads as their
        dependencies complete; its realized trace is completion order
        (informational -- every *result* is bit-identical regardless).
        The serial scan is O(steps^2) in the worst case, which is
        irrelevant next to the protocol work a step performs (sessions
        schedule at most a few thousand steps).

        With ``tolerate_faults=True`` the return type changes to
        :class:`ConstructionOutcome`: the realized trace plus a
        :class:`DegradedReport` of the steps and attributes lost to
        tolerated faults (empty when the run was clean or every fault
        was masked by the network's retry layer).
        """
        if self.policy == "parallel":
            trace, failed, cancelled = _ParallelRun(
                list(self._steps),
                self.max_workers,
                tolerate_faults=self.tolerate_faults,
                watchdog_timeout=self.watchdog_timeout,
            ).run()
        else:
            trace, failed, cancelled = self._run_serial()
        if not self.tolerate_faults:
            return trace
        return ConstructionOutcome(
            trace=tuple(trace), report=self._report(failed, cancelled)
        )

    def _run_serial(self) -> tuple[list[str], dict[str, str], tuple[str, ...]]:
        pending = sorted(self._steps, key=lambda step: step.order)
        done: set[str] = set()
        trace: list[str] = []
        failed: dict[str, str] = {}
        cancelled: list[str] = []
        dependents = self._dependents() if self.tolerate_faults else {}
        while pending:
            for index, step in enumerate(pending):
                if self._runnable(step, done):
                    del pending[index]
                    if self.tolerate_faults:
                        try:
                            step.run()
                        except _FAULT_ERRORS as exc:
                            failed[step.name] = f"{type(exc).__name__}: {exc}"
                            doomed = self._doomed(step.name, dependents)
                            cancelled.extend(
                                s.name for s in pending if s.name in doomed
                            )
                            pending = [s for s in pending if s.name not in doomed]
                            break
                    else:
                        step.run()
                    done.add(step.name)
                    trace.append(step.name)
                    break
            else:
                blocked = [step.name for step in pending]
                raise ProtocolError(
                    f"construction schedule deadlocked; blocked steps: {blocked}"
                )
        return trace, failed, tuple(cancelled)


class _ParallelRun:
    """Mutable state of one parallel schedule execution.

    Dependency-driven execution on a thread pool.  Receive steps need no
    queue-head gating here: each pops from its run's exclusive delivery
    lane, and its ``deps`` always include the step that sent the lane's
    message, so by the time a step is submitted its input is either in
    the lane or owed to it by a concurrently-arriving send of the same
    lane (lanes are FIFO and hold one run's stream, so any available
    message is the right one).

    The worker threads and the submission loop share their state on this
    object, declared ``guarded-by`` the run's single condition variable,
    and every mutation happens inside ``with self._wake`` -- which the
    lock-discipline lint (``reprolint`` RL301) verifies lexically.

    Failure handling: by default a step failure stops submission, drains
    in-flight work and re-raises the original exception.  With
    ``tolerate_faults``, a step failing with one of :data:`_FAULT_ERRORS`
    instead records the failure, transitively cancels its dependents and
    lets independent steps keep running.  ``watchdog_timeout`` bounds how
    long the submission loop waits without any step completing before it
    declares a stall.
    """

    def __init__(
        self,
        steps: list[Step],
        max_workers: int,
        tolerate_faults: bool = False,
        watchdog_timeout: float | None = None,
    ) -> None:
        self.max_workers = max_workers
        self.tolerate_faults = tolerate_faults
        self.watchdog_timeout = watchdog_timeout
        self._step_table = {step.name: step for step in steps}
        dependents: dict[str, list[str]] = {name: [] for name in self._step_table}
        unmet: dict[str, int] = {}
        for step in steps:
            unknown = [dep for dep in step.deps if dep not in self._step_table]
            if unknown:
                raise ProtocolError(
                    f"step {step.name!r} depends on unknown steps {unknown}"
                )
            unmet[step.name] = len(step.deps)
            for dep in step.deps:
                dependents[dep].append(step.name)
        #: Reverse dependency edges; immutable once built.
        self._dependents = dependents
        self._wake = threading.Condition()
        #: Per step: count of unfinished dependencies.
        # guarded-by: self._wake
        self._unmet = unmet
        #: Steps whose dependencies are all met, in submission order.
        # guarded-by: self._wake
        self._ready: list[Step] = sorted(
            (step for step in steps if not unmet[step.name]),
            key=lambda step: step.order,
        )
        #: Names of completed steps, in completion order.
        # guarded-by: self._wake
        self._trace: list[str] = []
        #: Exceptions raised by steps; the first one is re-raised.
        # guarded-by: self._wake
        self._failures: list[BaseException] = []
        #: Tolerated step failures: name -> one-line error summary.
        # guarded-by: self._wake
        self._failed: dict[str, str] = {}
        #: Steps cancelled because a dependency failed, in cancel order.
        # guarded-by: self._wake
        self._cancelled: list[str] = []
        #: Steps submitted but not yet finished.
        # guarded-by: self._wake
        self._running = 0

    def _cancel_dependents_locked(self, name: str) -> None:
        """Transitively cancel everything depending on a failed step."""
        doomed: set[str] = set()
        stack = list(self._dependents[name])
        while stack:
            candidate = stack.pop()
            if candidate in doomed:
                continue
            doomed.add(candidate)
            stack.extend(self._dependents[candidate])
        for step in sorted(doomed & set(self._unmet), key=lambda n: self._step_table[n].order):
            if step not in self._cancelled:
                self._cancelled.append(step)
        self._ready = [s for s in self._ready if s.name not in doomed]

    def _execute(self, step: Step) -> None:
        """Worker-thread body: run one step, then publish its outcome."""
        error: BaseException | None = None
        try:
            step.run()
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            error = exc
        with self._wake:
            self._running -= 1
            if error is not None and self.tolerate_faults and isinstance(
                error, _FAULT_ERRORS
            ):
                self._failed[step.name] = f"{type(error).__name__}: {error}"
                self._cancel_dependents_locked(step.name)
            elif error is not None:
                self._failures.append(error)
            else:
                self._trace.append(step.name)
                released = []
                for name in self._dependents[step.name]:
                    self._unmet[name] -= 1
                    if not self._unmet[name]:
                        released.append(self._step_table[name])
                cancelled = set(self._cancelled)
                self._ready.extend(
                    sorted(
                        (s for s in released if s.name not in cancelled),
                        key=lambda s: s.order,
                    )
                )
            self._wake.notify_all()

    def _settled_locked(self) -> int:
        """Steps whose fate is decided (completed, failed or cancelled)."""
        return len(self._trace) + len(self._failed) + len(self._cancelled)

    def _stall_locked(self) -> SchedulerStallError:
        """Build the watchdog's deadlock report (names pending steps)."""
        settled = set(self._trace) | set(self._failed) | set(self._cancelled)
        pending = sorted(set(self._step_table) - settled)
        return SchedulerStallError(
            f"parallel construction made no progress for "
            f"{self.watchdog_timeout} s with {self._running} step(s) running; "
            f"pending steps: {pending}"
        )

    def run(self) -> tuple[list[str], dict[str, str], tuple[str, ...]]:
        stalled = False
        pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="construction"
        )
        try:
            with self._wake:
                while True:
                    while self._ready and not self._failures:
                        self._running += 1
                        pool.submit(self._execute, self._ready.pop(0))
                    if self._failures:
                        break
                    if not self._running:
                        break
                    settled = self._settled_locked()
                    if not self._wake.wait(self.watchdog_timeout):
                        if self._settled_locked() == settled:
                            stalled = True
                            raise self._stall_locked()
                while self._running:
                    if not self._wake.wait(self.watchdog_timeout):
                        # Draining after a failure can stall too; give up
                        # on the stuck worker and surface the failure.
                        stalled = True
                        break
        finally:
            # A stalled worker is blocked inside a step; waiting for it
            # would turn the stall report back into a hang.
            pool.shutdown(wait=not stalled, cancel_futures=stalled)
        if self._failures:
            raise self._failures[0]
        if self._settled_locked() != len(self._step_table):
            blocked = sorted(
                set(self._step_table)
                - set(self._trace)
                - set(self._failed)
                - set(self._cancelled)
            )
            raise ProtocolError(
                f"construction schedule deadlocked; blocked steps: {blocked}"
            )
        return self._trace, dict(self._failed), tuple(self._cancelled)
