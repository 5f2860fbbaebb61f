"""Pipelined construction scheduling (Figure 11 as a step graph).

The seed drove matrix construction as one strictly sequential loop:
every holder's local matrix shipped and landed before the first
comparison run started, and every attribute completed before the next
began.  Nothing in the protocol requires that -- each of the ``C(k, 2)``
comparison runs per attribute uses its own pairwise-derived generators,
and the third party's block writes touch disjoint regions -- so this
module decomposes construction into *schedulable steps* (ship local
matrix, initiate, respond, absorb a block, finalize) with explicit
dependencies.  One registration skeleton lays that graph out for a full
construction and for an ingest epoch's delta rounds alike.

Two ordering policies ship:

* ``"sequential"`` runs the steps in registration order, which is the
  seed's exact global order -- on sealed channels every wire byte,
  including each frame's position in the per-channel nonce stream, is
  byte-identical to the seed transcript.  The same in-order executor
  runs one party's slice of the graph in a party process
  (:class:`repro.parties.runner.PartyRunner`), where a receive blocks
  until another process's step has sent.
* ``"parallel"`` executes runnable steps on a real
  :class:`~concurrent.futures.ThreadPoolExecutor` (``max_workers``
  threads).  The numpy-heavy protocol steps release the GIL, so
  independent (attribute, pair) runs genuinely overlap on multicore
  hardware, and messages of independent runs overlap in flight when the
  network models link latency.

Correctness under reordering rests on two mechanisms.  *PRNG isolation*:
every protocol run derives its generators from pairwise secrets under
attribute-and-pair-scoped labels (:mod:`repro.core.labels`), so no
schedule can change any party's protocol PRNG stream -- the protocol
*messages* are byte-identical under every policy, and the property tests
pin that.  *Lanes*: every receive step takes the head of its run's own
delivery lane (``(sender, kind, tag)``, :mod:`repro.network.lanes`), and
its ``deps`` include the step that sent that message, so no order of
execution can mis-deliver; a message that was never sent raises the
transport's :class:`~repro.exceptions.ProtocolError`, never a wrong
matrix.  What *does* legitimately differ between policies is the
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
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence

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
FAULT_ERRORS = (PartyCrashError, LaneTimeoutError)

# Wave ranks for the parallel policy's submission order: steps of one wave
# across all attributes and pairs are submitted before the next wave's.
_SEND_LOCAL, _RECV_LOCAL, _INITIATE, _RESPOND, _RECV_BLOCK, _FINALIZE = range(6)

#: A step body (its return value, if any, is ignored).
_Call = Callable[[], object]


@dataclass
class Step:
    """One schedulable unit of the construction choreography.

    ``order`` is the parallel policy's submission key: among ready steps
    the executor submits the lowest-ordered first.
    """

    name: str
    run: _Call
    deps: tuple[str, ...] = ()
    order: tuple = ()
    #: The party whose process executes this step.  The in-process run
    #: executes every step locally; a party process runs only its own
    #: (:meth:`ConstructionScheduler.run` with ``owner``).
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
    """Realized schedule plus the degradation report of a run."""

    trace: tuple[str, ...]
    report: DegradedReport

    @property
    def degraded(self) -> bool:
        return self.report.degraded


def _reverse_edges(steps: Sequence[Step]) -> dict[str, list[str]]:
    """Dependents of every step, after checking the graph.

    Every dependency must name a step registered *before* its dependent.
    That is what lets the in-order executor run registration order as
    is, and it rules out cycles, on which the parallel executor would
    wait forever.
    """
    dependents: dict[str, list[str]] = {}
    for step in steps:
        unknown = [dep for dep in step.deps if dep not in dependents]
        if unknown:
            raise ProtocolError(
                f"step {step.name!r} depends on unknown steps {unknown} "
                f"(never registered, or registered after it)"
            )
        for dep in step.deps:
            dependents[dep].append(step.name)
        dependents[step.name] = []
    return dependents


def _downstream(name: str, dependents: Mapping[str, list[str]]) -> set[str]:
    """Every step transitively depending on ``name``.

    Cancellation is complete because every receive step's ``deps``
    include the step that sends its message: a failed sender never
    leaves a receiver waiting forever -- the receiver is cancelled.
    """
    doomed: set[str] = set()
    stack = list(dependents[name])
    while stack:
        candidate = stack.pop()
        if candidate not in doomed:
            doomed.add(candidate)
            stack.extend(dependents[candidate])
    return doomed


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
        ``False`` (the default) re-raises the first step failure.
        ``True`` degrades instead: a step failing with
        :class:`PartyCrashError` or :class:`LaneTimeoutError` marks only
        its attribute as failed, transitively cancels the steps that
        depended on it, and lets every other attribute finish; the
        report :meth:`run` returns names exactly what was lost.  Any
        other exception still aborts the run.
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

    # -- graph construction ------------------------------------------------

    def _register(
        self,
        attr: str,
        suffix: str,
        ship: str,
        sites: Sequence[str],
        send: Callable[[str], object],
        receive: Callable[[str], object],
        runs: Sequence[tuple[str, str, str, _Call, _Call, _Call]],
        finalize: _Call,
    ) -> None:
        """Register one attribute's steps: the skeleton both graphs share.

        Each of ``sites`` ships its local matrix (or its encrypted
        column) with ``send(site)``, and the third party absorbs it with
        ``receive(site)``.  ``runs`` are ``(pair, initiator, responder,
        initiate, respond, absorb)``: one comparison protocol run and the
        third party's absorb of its block.  The finalize waits for every
        absorb.  Registration order is the sequential schedule, and
        ``(wave, lane)`` the parallel one.
        """
        tp = self._tp.name

        def add(
            phase: str, run: _Call, wave: int, lane: int, owner: str, *deps: str
        ) -> str:
            name = f"{attr}:{phase}{suffix}"
            if name in self._names:
                raise ProtocolError(f"duplicate construction step {name!r}")
            self._names.add(name)
            # The parallel executor submits ready steps in this order
            # (``lane`` spreads one wave across sites and pairs), which
            # front-loads sends so receives find their lanes populated.
            order = (wave, lane, self._attr_index, len(self._steps))
            self._steps.append(Step(name, run, deps, order, owner))
            return name

        absorbed: list[str] = []
        for lane, site in enumerate(sites):
            send_site, receive_site = partial(send, site), partial(receive, site)
            sent = add(f"send_{ship}[{site}]", send_site, _SEND_LOCAL, lane, site)
            absorbed.append(
                add(f"recv_{ship}[{site}]", receive_site, _RECV_LOCAL, lane, tp, sent)
            )
        for lane, (pair, i, r, initiate, respond, absorb) in enumerate(runs):
            initiated = add(f"initiate[{pair}]", initiate, _INITIATE, lane, i)
            responded = add(f"respond[{pair}]", respond, _RESPOND, lane, r, initiated)
            absorbed.append(
                add(f"recv_block[{pair}]", absorb, _RECV_BLOCK, lane, tp, responded)
            )
        add("finalize", finalize, _FINALIZE, 0, tp, *absorbed)
        self._attr_index += 1

    def _pairs(self) -> Iterator[tuple[str, str]]:
        """Every holder pair once, the lexicographically smaller first."""
        for j_index, first in enumerate(self._sites):
            for second in self._sites[j_index + 1 :]:
                yield first, second

    def add_attribute(self, spec: AttributeSpec) -> None:
        """Append the Figure 11 steps for one attribute to the graph."""
        tp = self._tp
        holders = self._holders
        attr = spec.name
        tag = labels.attribute_tag(spec)
        if spec.attr_type is AttributeType.CATEGORICAL:
            self._register(
                attr,
                "",
                "encrypted",
                self._sites,
                lambda site: holders[site].send_categorical(spec, tp.name),
                lambda site: tp.receive_encrypted_column(site, tag=tag),
                [],
                lambda: (tp.finalize_categorical(attr), tp.finalize_attribute(attr)),
            )
            return
        numeric = spec.attr_type is AttributeType.NUMERIC

        def run(i: str, r: str) -> tuple[str, str, str, _Call, _Call, _Call]:
            if numeric:
                return (
                    f"{i}->{r}", i, r,
                    lambda: holders[i].numeric_initiate(
                        spec, r, tp.name, responder_size=tp.index.size_of(r)
                    ),
                    lambda: holders[r].numeric_respond(spec, i, tp.name),
                    lambda: tp.receive_numeric_block(r, tag=tag),
                )
            return (
                f"{i}->{r}", i, r,
                lambda: holders[i].alnum_initiate(spec, r, tp.name),
                lambda: holders[r].alnum_respond(spec, i, tp.name),
                lambda: tp.receive_alnum_block(r, tag=tag),
            )

        self._register(
            attr,
            "",
            "local",
            self._sites,
            lambda site: holders[site].send_local_matrix(tp.name, spec),
            lambda site: tp.receive_local_matrix(site, tag=tag),
            [run(i, r) for i, r in self._pairs()],
            lambda: tp.finalize_attribute(attr),
        )

    def add_attribute_delta(self, spec: AttributeSpec, plan) -> None:
        """Append one attribute's delta rounds for an ingest epoch.

        Same skeleton as :meth:`add_attribute`, restricted to the pairs
        an arrival touches: grown sites ship local tails (or arrival
        ciphertexts), and each ordered holder pair runs at most two
        sub-column comparison rounds (``"grow"``: initiator arrivals x
        all responder records; ``"base"``: initiator base x responder
        arrivals) -- every new pair exactly once, no old pair ever
        re-proven.  The third party's finalize re-normalises the patched
        matrix, since arrivals may move the [0, 1] peak.
        """
        tp = self._tp
        holders = self._holders
        attr = spec.name
        tag = labels.attribute_tag(spec)
        epoch = plan.epoch
        grown = [site for site in self._sites if plan.site(site).added]
        if not grown:
            raise ProtocolError(f"delta plan for {attr!r} has no arrivals")
        suffix = f"@{epoch}"
        if spec.attr_type is AttributeType.CATEGORICAL:
            self._register(
                attr,
                suffix,
                "encrypted_delta",
                grown,
                lambda site: holders[site].send_categorical_delta(
                    spec, tp.name, plan.site(site).old_size
                ),
                lambda site: tp.receive_encrypted_delta(site, tag=tag),
                [],
                lambda: (tp.finalize_categorical_delta(attr), tp.finalize_attribute(attr)),
            )
            return
        numeric = spec.attr_type is AttributeType.NUMERIC

        def run(
            part: str, i: str, r: str, i_rows: tuple[int, int], r_rows: tuple[int, int]
        ) -> tuple[str, str, str, _Call, _Call, _Call]:
            pair = f"{i}->{r}|{part}"
            if numeric:
                return (
                    pair, i, r,
                    lambda: holders[i].numeric_initiate_delta(
                        spec, r, tp.name, part, epoch, i_rows,
                        responder_size=r_rows[1] - r_rows[0],
                    ),
                    lambda: holders[r].numeric_respond_delta(
                        spec, i, tp.name, part, epoch, r_rows
                    ),
                    lambda: tp.receive_numeric_delta_block(r, tag=tag),
                )
            return (
                pair, i, r,
                lambda: holders[i].alnum_initiate_delta(
                    spec, r, tp.name, part, epoch, i_rows
                ),
                lambda: holders[r].alnum_respond_delta(
                    spec, i, tp.name, part, epoch, r_rows
                ),
                lambda: tp.receive_alnum_delta_block(r, tag=tag),
            )

        # The grown site always *responds* with its arrival rows: per-row
        # costs (responder matrix rows, serializer runs, TP row unmasks)
        # then scale with the batch, not with the peer's whole partition.
        runs = []
        for first, second in self._pairs():
            one, two = plan.site(first), plan.site(second)
            arrivals_one = (one.old_size, one.new_size)
            arrivals_two = (two.old_size, two.new_size)
            if one.added:
                # Second's full column x first's arrivals.
                runs.append(run("grow", second, first, (0, two.new_size), arrivals_one))
            if two.added:
                # First's base x second's arrivals (first's own arrivals
                # already met second's in the "grow" run).
                runs.append(run("base", first, second, (0, one.old_size), arrivals_two))
        self._register(
            attr,
            suffix,
            "local_delta",
            grown,
            lambda site: holders[site].send_local_delta(
                tp.name, spec, plan.site(site).old_size
            ),
            lambda site: tp.receive_local_delta(site, tag=tag),
            runs,
            lambda: tp.finalize_attribute(attr),
        )

    # -- execution ---------------------------------------------------------

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

    def run(
        self,
        owner: str | None = None,
        after_step: Callable[[str], None] | None = None,
    ) -> ConstructionOutcome:
        """Execute the graph; returns the realized schedule and its report.

        The ``"sequential"`` policy runs the steps in registration order,
        and so does a run that ``owner`` restricts to one party's steps
        (the slice a party process executes), under either policy.  An
        in-order run calls ``after_step`` with each step's name once the
        step completed.  The ``"parallel"`` policy runs the whole graph
        on worker threads as dependencies complete; its trace is
        completion order (every *result* is bit-identical).

        Raises :class:`ProtocolError` before any step runs when a step
        depends on one that is unknown or registered after it.  The
        report is empty unless ``tolerate_faults`` turned faults into
        failed and cancelled steps (without it the fault is re-raised).
        """
        if self.policy == "parallel" and owner is None:
            trace, failed, cancelled = _ParallelRun(
                self._steps,
                self.max_workers,
                tolerate_faults=self.tolerate_faults,
                watchdog_timeout=self.watchdog_timeout,
            ).run()
        else:
            trace, failed, cancelled = self._run_in_order(owner, after_step)
        return ConstructionOutcome(
            trace=tuple(trace), report=self._report(failed, cancelled)
        )

    def _run_in_order(
        self, owner: str | None, after_step: Callable[[str], None] | None
    ) -> tuple[list[str], dict[str, str], tuple[str, ...]]:
        dependents = _reverse_edges(self._steps)
        trace: list[str] = []
        failed: dict[str, str] = {}
        cancelled: list[str] = []
        doomed: set[str] = set()
        for step in self._steps:
            if owner is not None and step.owner != owner:
                continue
            if step.name in doomed:
                cancelled.append(step.name)
                continue
            try:
                step.run()
            except FAULT_ERRORS as exc:
                if not self.tolerate_faults:
                    raise
                failed[step.name] = f"{type(exc).__name__}: {exc}"
                doomed |= _downstream(step.name, dependents)
                continue
            trace.append(step.name)
            if after_step is not None:
                after_step(step.name)
        return trace, failed, tuple(cancelled)


class _ParallelRun:
    """Mutable state of one parallel schedule execution.

    Dependency-driven execution on a thread pool.  Each receive step pops
    from its run's exclusive delivery lane, and its ``deps`` always
    include the step that sent the lane's message, so by the time a step
    is submitted its input is either in the lane or owed to it by a
    concurrently-arriving send of the same lane (lanes are FIFO and hold
    one run's stream, so any available message is the right one).

    The worker threads and the submission loop share their state on this
    object, declared ``guarded-by`` the run's single condition variable,
    and every mutation happens inside ``with self._wake`` -- which the
    lock-discipline lint (``reprolint`` RL301) verifies lexically.

    Failure handling: by default a step failure stops submission, drains
    in-flight work and re-raises the original exception.  With
    ``tolerate_faults``, a step failing with one of :data:`FAULT_ERRORS`
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
        #: Reverse dependency edges; immutable once built.
        self._dependents = _reverse_edges(steps)
        self._step_table = {step.name: step for step in steps}
        self._wake = threading.Condition()
        #: Per step: count of unfinished dependencies.
        # guarded-by: self._wake
        self._unmet = {step.name: len(step.deps) for step in steps}
        #: Steps whose dependencies are all met, in submission order.
        # guarded-by: self._wake
        self._ready: list[Step] = sorted(
            (step for step in steps if not step.deps),
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
        doomed = _downstream(name, self._dependents)
        for step in sorted(doomed, key=lambda n: self._step_table[n].order):
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
                error, FAULT_ERRORS
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
        return self._trace, dict(self._failed), tuple(self._cancelled)
