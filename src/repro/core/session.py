"""End-to-end privacy-preserving clustering sessions.

:class:`ClusteringSession` is the library's front door.  Given per-site
data matrices and a :class:`~repro.core.config.SessionConfig`, it stands
up the full deployment of Section 3 -- ``k`` data holders, one third
party, pairwise Diffie-Hellman secrets, secured channels -- executes the
Figure 11 construction for every attribute, and has the third party
cluster and publish.

Everything is deterministic in ``config.master_seed``, so experiment
transcripts (including every byte count) are exactly reproducible.
"""

from __future__ import annotations

import os
from typing import Mapping

from repro.core import labels
from repro.core.config import SessionConfig
from repro.core.construction import construct_attributes
from repro.core.results import ClusteringResult
from repro.core.scheduler import DegradedReport
from repro.crypto.keys import PairwiseSecret, agree_pairwise
from repro.crypto.prng import ReseedablePRNG, make_prng
from repro.data.matrix import DataMatrix, Schema
from repro.data.partition import GlobalIndex
from repro.distance.dissimilarity import DissimilarityMatrix
from repro.exceptions import (
    ConfigurationError,
    LaneTimeoutError,
    PartyCrashError,
    ProtocolError,
)
from repro.network.faults import FaultPlan
from repro.network.simulator import Network
from repro.parties.holder import DataHolder
from repro.parties.third_party import ThirdParty
from repro.types import AttributeType, LinkageMethod

#: Environment hook for CI chaos runs: naming a
#: :data:`repro.network.faults.PRESETS` entry here makes every session
#: install that seeded fault plan (seed derived from the master seed, so
#: runs stay reproducible).  The determinism suites pass unchanged under
#: any maskable preset -- that is the whole point.
CHAOS_PRESET_ENV = "REPRO_CHAOS_PRESET"


def session_entropy(master_seed: int, label: str) -> ReseedablePRNG:
    """Session-deterministic cryptographic entropy source.

    Module-level so that :class:`repro.apps.sessions.SessionBatch` can
    pre-derive the exact DH entropy a standalone session would use --
    batched and standalone sessions share byte-identical transcripts.
    """
    return make_prng(f"session|{master_seed}|{label}", "hash_drbg")


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
        party pair (sites plus third party).  When given, the session
        skips Diffie-Hellman key agreement -- this is how
        :class:`repro.apps.sessions.SessionBatch` amortises setup across
        many sessions.  Passing the secrets a standalone session would
        have derived leaves every transcript byte unchanged.
    fault_plan:
        Optional seeded :class:`~repro.network.faults.FaultPlan`; the
        network's send recovers what it injects under the default
        :class:`~repro.network.retry.RetryPolicy` (tests that need
        another budget pass one to
        :meth:`~repro.network.simulator.Network.install_fault_plan`).
        When ``None``, the ``REPRO_CHAOS_PRESET``
        environment variable (a preset name) installs a reproducible
        chaos plan derived from the master seed -- the CI chaos-smoke
        job's hook.
    """

    def __init__(
        self,
        config: SessionConfig,
        partitions: Mapping[str, DataMatrix],
        tp_name: str = "TP",
        shared_secrets: Mapping[tuple[str, str], PairwiseSecret] | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
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

        self.config = config
        self.partitions = dict(partitions)
        self.tp_name = tp_name
        self.schema: Schema = next(iter(schemas))
        self.index = GlobalIndex({s: m.num_rows for s, m in partitions.items()})
        if fault_plan is None:
            preset = os.environ.get(CHAOS_PRESET_ENV)
            if preset:
                fault_plan = FaultPlan.preset(
                    preset,
                    seed=f"chaos|{config.master_seed}",
                    parties=sorted(partitions),
                )
        self.network = Network(latency=config.suite.link_latency, fault_plan=fault_plan)
        self._constructed = False
        self._weights_collected = False
        #: Step names in the order the construction scheduler ran them
        #: (populated by :meth:`execute_protocol`).
        self.construction_trace: list[str] = []
        #: Degradation report of the last construction
        #: (:class:`~repro.core.scheduler.DegradedReport`; ``None`` until
        #: :meth:`execute_protocol` ran; it lists losses only under
        #: ``suite.tolerate_faults``, since a default run raises instead).
        self.degraded_report: DegradedReport | None = None
        #: Sites the session could not exchange weights/results with
        #: (tolerant runs only).
        self.unreachable_sites: list[str] = []

        self._setup_parties(shared_secrets)

    # -- setup ------------------------------------------------------------

    def _entropy(self, label: str):
        """Session-deterministic cryptographic entropy source."""
        return session_entropy(self.config.master_seed, label)

    def _setup_parties(
        self, shared_secrets: Mapping[tuple[str, str], PairwiseSecret] | None
    ) -> None:
        suite = self.config.suite
        names = sorted(self.partitions) + [self.tp_name]
        for name in names:
            self.network.add_party(name)

        if shared_secrets is None:
            # Pairwise Diffie-Hellman key agreement (out-of-band setup;
            # the paper's cost analysis starts after secrets are shared).
            secrets = agree_pairwise(
                {name: self._entropy(f"dh|{name}") for name in names}
            )
        else:
            sorted_names = sorted(names)
            expected = {
                (a, b)
                for i, a in enumerate(sorted_names)
                for b in sorted_names[i + 1 :]
            }
            if set(shared_secrets) != expected:
                raise ConfigurationError(
                    f"shared_secrets must cover exactly the pairs {sorted(expected)}"
                )
            secrets = dict(shared_secrets)

        self.holders: dict[str, DataHolder] = {
            site: DataHolder(
                site,
                matrix,
                self.network,
                suite,
                entropy=self._entropy(f"holder|{site}"),
            )
            for site, matrix in self.partitions.items()
        }
        self.third_party = ThirdParty(
            self.tp_name, self.network, self.schema, self.index, suite
        )

        parties = {**self.holders, self.tp_name: self.third_party}
        for (a, b), secret in secrets.items():
            parties[a].set_secret(b, secret)
            parties[b].set_secret(a, secret)
            self.network.connect(
                a,
                b,
                secure=suite.secure_channels,
                key=secret.key(labels.channel_key(a, b)) if suite.secure_channels else None,
                entropy=self._entropy(f"nonce|{a}|{b}") if suite.secure_channels else None,
            )

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

    def execute_protocol(self) -> None:
        """Run key distribution and matrix construction (idempotent)."""
        if self._constructed:
            return
        sites = list(self.index.sites)

        needs_group_key = any(
            spec.attr_type is AttributeType.CATEGORICAL for spec in self.schema
        )
        if needs_group_key:
            leader = sites[0]
            self.holders[leader].distribute_group_key(sites[1:])
            for site in sites[1:]:
                self.holders[site].receive_group_key(leader)

        suite = self.config.suite
        outcome = construct_attributes(
            self.schema,
            self.holders,
            self.third_party,
            policy=suite.construction_schedule,
            max_workers=self.config.max_workers,
            tolerate_faults=suite.tolerate_faults,
            watchdog_timeout=self.config.watchdog_timeout,
        )
        self.construction_trace = list(outcome.trace)
        self.degraded_report = outcome.report

        for site in sites:
            if suite.tolerate_faults:
                try:
                    self.holders[site].send_weights(
                        self.tp_name, self._holder_weights(site)
                    )
                    self.third_party.receive_weights(site)
                except (PartyCrashError, LaneTimeoutError):
                    self.unreachable_sites.append(site)
            else:
                self.holders[site].send_weights(
                    self.tp_name, self._holder_weights(site)
                )
                self.third_party.receive_weights(site)
        self._constructed = True

    @property
    def degraded(self) -> bool:
        """Whether the last tolerant construction lost anything."""
        return bool(
            (self.degraded_report is not None and self.degraded_report.degraded)
            or self.unreachable_sites
        )

    def run(self) -> ClusteringResult:
        """Execute everything and publish one result to all holders.

        The merged matrix uses the average of the holders' submitted
        weight vectors (identical vectors -- the default -- therefore
        behave as any single one).

        Under ``suite.tolerate_faults`` a degraded construction does not
        abort the session: the third party clusters the merged matrix of
        the attributes that *completed* (bit-identical to a session
        configured with only those attributes), publishes to every
        reachable holder, and :attr:`degraded_report` /
        :attr:`unreachable_sites` say exactly what was lost.  Lanes that
        cancelled steps will never read are drained rather than asserted
        empty.
        """
        self.execute_protocol()
        linkage = self.config.linkage
        assert isinstance(linkage, LinkageMethod)
        if self.degraded:
            report = self.degraded_report
            assert report is not None
            down = set(self.unreachable_sites)
            plan = self.network.fault_plan
            if plan is not None:
                down.update(plan.crashed_parties())
            reachable = [s for s in self.index.sites if s not in down]
            result = self.third_party.cluster_and_publish(
                reachable,
                self.config.num_clusters,
                linkage,
                attributes=list(report.completed_attributes),
            )
            for site in reachable:
                try:
                    holder_copy = self.holders[site].receive_result(self.tp_name)
                except (PartyCrashError, LaneTimeoutError):
                    self.unreachable_sites.append(site)
                    continue
                if holder_copy.to_payload() != result.to_payload():
                    raise ProtocolError(f"result received by {site!r} diverged")
            # Cancelled steps leave their lanes unread by design; see
            # DESIGN.md "Fault model & recovery".
            self.network.drain()
            return result
        result = self.third_party.cluster_and_publish(
            list(self.index.sites), self.config.num_clusters, linkage
        )
        received = {
            site: self.holders[site].receive_result(self.tp_name)
            for site in self.index.sites
        }
        for site, holder_copy in received.items():
            if holder_copy.to_payload() != result.to_payload():
                raise ProtocolError(f"result received by {site!r} diverged")
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
        """Wire bytes transmitted so far across all links."""
        return self.network.total_bytes()
