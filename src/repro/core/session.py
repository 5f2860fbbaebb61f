"""End-to-end privacy-preserving clustering sessions.

:class:`ClusteringSession` is the library's front door and the one
driver of the Section 3 choreography -- ``k`` data holders, one third
party, pairwise Diffie-Hellman secrets, secured channels: the
categorical group key, the Figure 11 construction for every attribute
(:meth:`ClusteringSession.construct`), the weights exchange, and the
third party's clustering and publication.  It runs over whatever
:class:`~repro.network.transport.Transport` it is given and performs
only the actions of its *local* parties: every party on the in-process
simulator it builds by default, one party in a party process
(:class:`repro.parties.runner.PartyRunner` hands it a socket endpoint).
Whatever the topology, every party executes the same code, so the
transcripts are byte-identical.

Everything is deterministic in ``config.master_seed``, so experiment
transcripts (including every byte count) are exactly reproducible.  The
key schedule is :func:`session_entropy`: one function derives every DH
exponent, holder entropy and link nonce stream of a session, in-process
and in party processes alike.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.core import labels
from repro.core.config import SessionConfig
from repro.core.delta import DeltaPlan
from repro.core.results import ClusteringResult
from repro.core.scheduler import (
    FAULT_ERRORS,
    ConstructionOutcome,
    ConstructionScheduler,
    DegradedReport,
)
from repro.crypto.keys import PairwiseSecret, agree_pairwise
from repro.crypto.prng import ReseedablePRNG, make_prng
from repro.data.matrix import DataMatrix, Schema
from repro.data.partition import GlobalIndex
from repro.distance.dissimilarity import DissimilarityMatrix
from repro.exceptions import ConfigurationError, ProtocolError, SnapshotError
from repro.network.faults import FaultPlan
from repro.network.simulator import Network
from repro.network.transport import Transport
from repro.parties.holder import DataHolder
from repro.parties.third_party import ThirdParty
from repro.types import AttributeType, LinkageMethod

#: Environment hook for CI chaos runs: naming a
#: :data:`repro.network.faults.PRESETS` entry here makes every session
#: install that seeded fault plan (seed derived from the master seed, so
#: runs stay reproducible).  The determinism suites pass unchanged under
#: any maskable preset -- that is the whole point.
CHAOS_PRESET_ENV = "REPRO_CHAOS_PRESET"

#: Streams of the key schedule: what each keys, and how many parties
#: name it.
_KEY_STREAMS = {"dh": 1, "holder": 1, "nonce": 2}


def session_entropy(master_seed: int, use: str, *parties: str) -> ReseedablePRNG:
    """One stream of the session key schedule, the same in every deployment.

    ``use`` is ``"dh"`` (a party's Diffie-Hellman exponent),
    ``"holder"`` (a data holder's private entropy: group key, fresh
    masks) or ``"nonce"`` (the nonce stream of the link between two
    parties, named in either order).  A standalone session, a
    :class:`~repro.apps.sessions.SessionBatch` and the party processes of
    a socket session all derive their streams here, which is why their
    transcripts are byte-identical.
    """
    if _KEY_STREAMS.get(use) != len(parties):
        raise ConfigurationError(f"no key-schedule stream {use!r} of {len(parties)} parties")
    names = sorted(parties) if use == "nonce" else list(parties)
    return make_prng("|".join(["session", str(master_seed), use, *names]), "hash_drbg")


def pairwise_secrets(
    master_seed: int, names: Iterable[str]
) -> dict[tuple[str, str], PairwiseSecret]:
    """What every pair of ``names`` shares after Diffie-Hellman agreement
    over the scheduled exponents -- exactly what the socket handshake
    agrees between party processes."""
    return agree_pairwise(
        {name: session_entropy(master_seed, "dh", name) for name in names}
    )


def check_partitions(partitions: Mapping[str, DataMatrix], tp_name: str) -> Schema:
    """The schema ``partitions`` share; raises :class:`ConfigurationError`
    unless they can form a session with third party ``tp_name``."""
    if len(partitions) < 2:
        raise ConfigurationError(
            f"the protocol requires k >= 2 data holders, got {len(partitions)}"
        )
    if tp_name in partitions:
        raise ConfigurationError(
            f"third party name {tp_name!r} collides with a data holder"
        )
    schemas = {m.schema for m in partitions.values()}
    if len(schemas) != 1:
        raise ConfigurationError("all partitions must share one schema")
    for site, matrix in partitions.items():
        if matrix.num_rows == 0:
            raise ConfigurationError(f"site {site!r} holds no objects")
    return next(iter(schemas))


@contextmanager
def restoring(section: str) -> Iterator[None]:
    """Turn a failure to install one checkpoint section into a
    :class:`SnapshotError` that names the section."""
    try:
        yield
    except Exception as exc:
        raise SnapshotError(
            f"snapshot section {section!r} does not fit the restored session: {exc}"
        ) from exc


class _RemoteParty:
    """Placeholder for a party living in another process.

    The step graph binds every step to a party object at build time;
    steps owned by remote parties are never executed locally, so any
    attribute access beyond ``name`` is a wiring bug and fails loudly.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __getattr__(self, item: str) -> Any:
        raise ProtocolError(
            f"remote party {self.name!r} used locally (attribute {item!r}); "
            f"the plan slicing is broken"
        )


class ClusteringSession:
    """Orchestrates one full run of the paper's protocol suite.

    Parameters
    ----------
    config:
        Session and protocol configuration.
    partitions:
        ``{site_name: DataMatrix}`` -- each holder's private partition.
        All partitions must share one schema (the pre-agreed attribute
        list of Section 3); at least two holders are required.
    tp_name:
        Name of the third party (must differ from every site name).
    shared_secrets:
        Optional pre-agreed ``{(a, b): PairwiseSecret}`` covering every
        pair with a local party.  When given, the session skips
        Diffie-Hellman key agreement -- this is how
        :class:`repro.apps.sessions.SessionBatch` amortises setup across
        many sessions, and how a party process hands over what its
        handshake agreed.  Passing the secrets a standalone session
        would have derived leaves every transcript byte unchanged.
    fault_plan:
        Optional seeded :class:`~repro.network.faults.FaultPlan` for the
        simulator; the network's send recovers what it injects under the
        default :class:`~repro.network.retry.RetryPolicy` (tests that
        need another budget pass one to
        :meth:`~repro.network.simulator.Network.install_fault_plan`).
        When ``None``, the ``REPRO_CHAOS_PRESET`` environment variable (a
        preset name) installs a reproducible chaos plan derived from the
        master seed -- the CI chaos-smoke job's hook.
    transport:
        A connected endpoint to run over instead of the simulator (with
        the ``shared_secrets`` its handshake agreed).  Its
        :attr:`~repro.network.transport.Transport.parties` -- one party,
        or every one -- are the parties whose actions this session
        performs.
    """

    def __init__(
        self,
        config: SessionConfig,
        partitions: Mapping[str, DataMatrix],
        tp_name: str = "TP",
        shared_secrets: Mapping[tuple[str, str], PairwiseSecret] | None = None,
        fault_plan: FaultPlan | None = None,
        transport: Transport | None = None,
    ) -> None:
        self.schema: Schema = check_partitions(partitions, tp_name)
        self.config = config
        self.partitions = dict(partitions)
        self.tp_name = tp_name
        self.index = GlobalIndex({s: m.num_rows for s, m in partitions.items()})
        names = sorted(partitions) + [tp_name]
        wire = transport is None
        if transport is None:
            if fault_plan is None:
                preset = os.environ.get(CHAOS_PRESET_ENV)
                if preset:
                    fault_plan = FaultPlan.preset(
                        preset,
                        seed=f"chaos|{config.master_seed}",
                        parties=sorted(partitions),
                    )
            transport = Network(latency=config.suite.link_latency, fault_plan=fault_plan)
            for name in names:
                transport.add_party(name)
        local = transport.parties
        if not local <= set(names) or len(local) not in (1, len(names)):
            raise ConfigurationError(
                f"a transport must carry one or every session party, "
                f"not {sorted(local)}"
            )
        self.network = transport
        self._local = local
        self._keyed = False
        self._constructed = False
        #: Called with each construction step's name once it completed
        #: (a party process's kill-after-step test hook).
        self.after_step: Callable[[str], None] | None = None
        #: Step names in the order the construction scheduler ran them
        #: (populated by :meth:`execute_protocol`).
        self.construction_trace: list[str] = []
        #: Degradation report of the last construction
        #: (:class:`~repro.core.scheduler.DegradedReport`; ``None`` until
        #: :meth:`construct` ran; it lists losses only under
        #: ``suite.tolerate_faults``, since a default run raises instead).
        self.degraded_report: DegradedReport | None = None
        #: Sites the session could not exchange weights/results with
        #: (tolerant runs only).
        self.unreachable_sites: list[str] = []

        self._setup_parties(names, shared_secrets, wire)

    # -- setup ------------------------------------------------------------

    def _setup_parties(
        self,
        names: list[str],
        shared_secrets: Mapping[tuple[str, str], PairwiseSecret] | None,
        wire: bool,
    ) -> None:
        suite = self.config.suite
        seed = self.config.master_seed
        local = self._local
        if shared_secrets is None:
            # Pairwise Diffie-Hellman key agreement (out-of-band setup;
            # the paper's cost analysis starts after secrets are shared).
            secrets = pairwise_secrets(seed, names)
        else:
            ordered = sorted(names)
            expected = {
                (a, b)
                for i, a in enumerate(ordered)
                for b in ordered[i + 1 :]
                if a in local or b in local
            }
            if set(shared_secrets) != expected:
                raise ConfigurationError(
                    f"shared_secrets must cover exactly the pairs {sorted(expected)}"
                )
            secrets = dict(shared_secrets)

        self.holders: dict[str, DataHolder] = {
            site: (
                DataHolder(
                    site,
                    matrix,
                    self.network,
                    suite,
                    entropy=session_entropy(seed, "holder", site),
                )
                if site in local
                else _RemoteParty(site)
            )
            for site, matrix in self.partitions.items()
        }
        self.third_party = ThirdParty(
            self.tp_name, self.network, self.schema, self.index, suite
        )

        parties = {**self.holders, self.tp_name: self.third_party}
        for (a, b), secret in secrets.items():
            for name, peer in ((a, b), (b, a)):
                if name in local:
                    parties[name].set_secret(peer, secret)
            if wire:
                # The simulator's links are the session's to build; a
                # socket endpoint derived its own in the handshake.
                self.network.connect(
                    a,
                    b,
                    secure=suite.secure_channels,
                    key=secret.key(labels.channel_key(a, b)) if suite.secure_channels else None,
                    entropy=session_entropy(seed, "nonce", a, b) if suite.secure_channels else None,
                )

    def distribute_group_key(self) -> None:
        """Setup's one round: the categorical group key (Section 4.3).

        The leader (first site) mints the key and sends it to every
        other holder; a schema without categorical attributes skips it.
        A party process checkpoints right after this round.
        """
        if any(spec.attr_type is AttributeType.CATEGORICAL for spec in self.schema):
            leader, *others = self.index.sites
            if leader in self._local:
                self.holders[leader].distribute_group_key(others)
            for site in others:
                if site in self._local:
                    self.holders[site].receive_group_key(leader)
        self._keyed = True

    def setup_state(self) -> dict[str, dict[str, Any]]:
        """The local parties' post-setup state, as :meth:`restore_setup`
        takes it: group keys and holder entropy per site, link nonce
        positions per ``"a|b"`` pair."""
        sites = [site for site in self.index.sites if site in self._local]
        return {
            "group_keys": {site: self.holders[site].group_key_bytes() for site in sites},
            "channel_entropy": self.network.nonce_positions(),
            "holder_entropy": {site: self.holders[site].entropy_draws() for site in sites},
        }

    def restore_setup(self, state: Mapping[str, Mapping[str, Any]]) -> None:
        """Install a checkpointed post-setup state instead of running setup.

        ``state`` is shaped like :meth:`setup_state`; its entries name
        local parties only.  Raises :class:`SnapshotError` naming the
        section that does not fit this session.
        """
        with restoring("group_keys"):
            for site, key in state["group_keys"].items():
                if key is not None:
                    self.holders[site].install_group_key(key)
        with restoring("channel_entropy"):
            self.network.advance_nonce_positions(state["channel_entropy"])
        with restoring("holder_entropy"):
            for site, draws in state["holder_entropy"].items():
                self.holders[site].advance_entropy(draws)
        self._keyed = True

    # -- protocol execution -----------------------------------------------------

    def _holder_weights(self, site: str) -> list[float]:
        config = self.config
        if config.per_holder_weights and site in config.per_holder_weights:
            weights = list(config.per_holder_weights[site])
        elif config.weights is not None:
            weights = list(config.weights)
        else:
            weights = [1.0] * len(self.schema)
        if len(weights) != len(self.schema):
            raise ConfigurationError(
                f"{len(weights)} weights for {len(self.schema)} attributes"
            )
        return weights

    def construct(self, plan: DeltaPlan | None = None) -> ConstructionOutcome:
        """Run the Figure 11 rounds for every attribute -- or, given an
        ingest epoch's ``plan``, its delta rounds -- under the session's
        schedule, and record the degradation report.

        In a party process only the local party's slice of the step
        graph runs, in registration order.
        """
        suite = self.config.suite
        scheduler = ConstructionScheduler(
            self.holders,
            self.third_party,
            policy=suite.construction_schedule,
            max_workers=self.config.max_workers,
            tolerate_faults=suite.tolerate_faults,
            watchdog_timeout=self.config.watchdog_timeout,
        )
        for spec in self.schema:
            if plan is None:
                scheduler.add_attribute(spec)
            else:
                scheduler.add_attribute_delta(spec, plan)
        owner = next(iter(self._local)) if len(self._local) == 1 else None
        outcome = scheduler.run(owner=owner, after_step=self.after_step)
        self.degraded_report = outcome.report
        return outcome

    def _unreachable(self, site: str, fault: Exception) -> None:
        """A fault on an exchange with ``site``: under
        ``suite.tolerate_faults`` the site is recorded as unreachable,
        otherwise the fault is re-raised."""
        if not self.config.suite.tolerate_faults:
            raise fault
        self.unreachable_sites.append(site)

    def execute_protocol(self) -> None:
        """Run setup, matrix construction and the weights exchange
        (idempotent)."""
        if self._constructed:
            return
        if not self._keyed:
            self.distribute_group_key()
        self.construction_trace = list(self.construct().trace)
        for site in self.index.sites:
            try:
                if site in self._local:
                    self.holders[site].send_weights(
                        self.tp_name, self._holder_weights(site)
                    )
                if self.tp_name in self._local:
                    self.third_party.receive_weights(site)
            except FAULT_ERRORS as fault:
                self._unreachable(site, fault)
        self._constructed = True

    @property
    def degraded(self) -> bool:
        """Whether the last tolerant construction lost anything."""
        return bool(
            (self.degraded_report is not None and self.degraded_report.degraded)
            or self.unreachable_sites
        )

    def run(self) -> ClusteringResult | None:
        """Execute everything and publish one result to the holders.

        The merged matrix uses the average of the holders' submitted
        weight vectors (identical vectors -- the default -- therefore
        behave as any single one).  Returns the published result: the
        third party's when it is local (every local holder's copy must
        equal it), else the local holder's copy -- ``None`` when a
        tolerant holder's result never arrived.

        Under ``suite.tolerate_faults`` a degraded construction does not
        abort the session: the third party clusters the merged matrix of
        the attributes that *completed* (bit-identical to a session
        configured with only those attributes) and publishes to the
        sites whose weights reached it and that the transport does not
        report permanently down; :attr:`degraded_report` /
        :attr:`unreachable_sites` say exactly what was lost.  Lanes that
        cancelled steps will never read are drained rather than asserted
        empty.
        """
        self.execute_protocol()
        linkage = self.config.linkage
        assert isinstance(linkage, LinkageMethod)
        report = self.degraded_report
        assert report is not None
        result: ClusteringResult | None = None
        recipients = list(self.index.sites)
        if self.tp_name in self._local:
            recipients = [
                site
                for site in recipients
                if site not in self.unreachable_sites
                and not self.network.permanently_down(site)
            ]
            result = self.third_party.cluster_and_publish(
                recipients,
                self.config.num_clusters,
                linkage,
                attributes=list(report.completed_attributes) if self.degraded else None,
            )
        for site in recipients:
            if site not in self._local:
                continue
            try:
                copy = self.holders[site].receive_result(self.tp_name)
            except FAULT_ERRORS as fault:
                self._unreachable(site, fault)
                continue
            if result is None:
                result = copy
            elif copy.to_payload() != result.to_payload():
                raise ProtocolError(f"result received by {site!r} diverged")
        if self.degraded:
            # Cancelled steps leave their lanes unread by design; see
            # DESIGN.md "Fault model & recovery".
            self.network.drain()
        else:
            self.network.assert_drained()
        return result

    def run_per_holder(self) -> dict[str, ClusteringResult]:
        """Publish one result per holder, each with that holder's weights.

        Section 5: "Every data holder can impose a different weight
        vector and clustering algorithm of his own choice."
        """
        self.execute_protocol()
        linkage = self.config.linkage
        assert isinstance(linkage, LinkageMethod)
        results: dict[str, ClusteringResult] = {}
        for site in self.index.sites:
            result = self.third_party.cluster_and_publish(
                [site],
                self.config.num_clusters,
                linkage,
                weights=self._holder_weights(site),
            )
            results[site] = self.holders[site].receive_result(self.tp_name)
            if results[site].to_payload() != result.to_payload():
                raise ProtocolError(f"result received by {site!r} diverged")
        self.network.assert_drained()
        return results

    # -- experiment access -------------------------------------------------------

    def final_matrix(self) -> DissimilarityMatrix:
        """The third party's merged matrix (experiment/test access only).

        Section 5 keeps this secret in deployments; experiments read it
        to verify exactness against the centralized baseline.  A
        degraded session merges only the attributes that completed --
        the same matrix its published result clustered.
        """
        self.execute_protocol()
        report = self.degraded_report
        if report is not None and report.degraded:
            return self.third_party.merged_matrix(
                attributes=list(report.completed_attributes)
            )
        return self.third_party.merged_matrix()

    def total_bytes(self) -> int:
        """Wire bytes transmitted so far across all links (simulator)."""
        return self.network.total_bytes()
