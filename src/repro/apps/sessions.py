"""One-call pipelines for the non-clustering applications.

The record linkage and outlier detection applications (Sections 1 and 6)
both consist of "run the paper's construction, then consume the matrix".
These helpers package that sequence so application code never touches
protocol internals.  :class:`SessionBatch` serves the heavy-traffic
deployment shape: the same consortium of sites running the protocol over
many datasets, with per-session setup amortised away.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Mapping, Sequence

from repro.apps.linkage import LinkageMatch, private_record_linkage
from repro.apps.outliers import OutlierReport, knn_outliers
from repro.core.config import SessionConfig
from repro.core.results import ClusteringResult
from repro.core.session import ClusteringSession, pairwise_secrets
from repro.crypto.keys import PairwiseSecret
from repro.data.matrix import DataMatrix
from repro.exceptions import ConfigurationError


class SessionBatch:
    """Amortises party setup across many sessions of one consortium.

    Pairwise Diffie-Hellman key agreement costs ``C(k+1, 2)`` modular
    exponentiations in a 2048-bit group -- for small workloads it
    dominates a session's runtime.  A batch runs the agreement *once*
    for a fixed set of site names (deriving exactly the secrets a
    standalone session with the same ``config.master_seed`` would
    derive, so transcripts are byte-identical) and then mints sessions
    against the cached secrets.

    Example
    -------
    >>> batch = SessionBatch(SessionConfig(num_clusters=2), ["A", "B"])
    >>> results = batch.run_many([partitions_jan, partitions_feb])
    ... # doctest: +SKIP
    """

    def __init__(
        self,
        config: SessionConfig,
        sites: Sequence[str],
        tp_name: str = "TP",
    ) -> None:
        sites = list(sites)
        if len(sites) < 2:
            raise ConfigurationError(
                f"the protocol requires k >= 2 data holders, got {len(sites)}"
            )
        if len(set(sites)) != len(sites):
            raise ConfigurationError(f"duplicate site names: {sites}")
        if tp_name in sites:
            raise ConfigurationError(
                f"third party name {tp_name!r} collides with a data holder"
            )
        self.config = config
        self.sites = sites
        self.tp_name = tp_name
        self._secrets: dict[tuple[str, str], PairwiseSecret] = pairwise_secrets(
            config.master_seed, sorted(sites) + [tp_name]
        )

    def session(self, partitions: Mapping[str, DataMatrix]) -> ClusteringSession:
        """A fresh session over ``partitions``, reusing the cached secrets."""
        if set(partitions) != set(self.sites):
            raise ConfigurationError(
                f"partitions cover {sorted(partitions)}, batch is for {sorted(self.sites)}"
            )
        return ClusteringSession(
            self.config,
            partitions,
            tp_name=self.tp_name,
            shared_secrets=self._secrets,
        )

    def run_many(
        self, partition_batches: Iterable[Mapping[str, DataMatrix]]
    ) -> list[ClusteringResult]:
        """Run one full session per element of ``partition_batches``."""
        return [self.session(partitions).run() for partitions in partition_batches]

    def run_many_parallel(
        self,
        partition_batches: Iterable[Mapping[str, DataMatrix]],
        max_workers: int | None = None,
    ) -> list[ClusteringResult]:
        """Run whole sessions concurrently over a shared worker pool.

        The heavy-traffic serving shape: one consortium, many datasets,
        ``max_workers`` (default ``config.max_workers``) sessions in
        flight at once.  Each session owns its network, parties and
        matrices, and the cached pairwise secrets are immutable
        (derivation mints fresh PRNGs per call), so sessions share no
        mutable state -- the returned results are **bit-identical** to
        :meth:`run_many` over the same batches, in the same order.

        Protocol steps release the GIL in numpy, and simulated link
        latency sleeps outside every lock, so throughput scales with
        workers on multicore hardware and on latency-bound workloads
        alike.  Inner sessions keep whatever ``construction_schedule``
        the batch config names; for many concurrent small sessions the
        sequential schedule avoids oversubscribing the pool.
        """
        batches = list(partition_batches)
        workers = self.config.max_workers if max_workers is None else max_workers
        if workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {workers}")
        if not batches:
            return []
        with ThreadPoolExecutor(
            max_workers=min(workers, len(batches)), thread_name_prefix="session"
        ) as pool:
            return list(pool.map(lambda p: self.session(p).run(), batches))

    def service(self, partitions: Mapping[str, DataMatrix]) -> "ClusteringService":
        """A standing incremental service over ``partitions``.

        Same amortisation as :meth:`session` -- cached pairwise secrets,
        byte-identical transcripts -- but the returned
        :class:`~repro.apps.service.ClusteringService` then absorbs
        arrivals and retirements via delta construction instead of
        re-running the full protocol per dataset.
        """
        if set(partitions) != set(self.sites):
            raise ConfigurationError(
                f"partitions cover {sorted(partitions)}, batch is for {sorted(self.sites)}"
            )
        from repro.apps.service import ClusteringService

        return ClusteringService(
            self.config,
            partitions,
            tp_name=self.tp_name,
            shared_secrets=self._secrets,
        )


def run_private_linkage(
    partitions: Mapping[str, DataMatrix],
    threshold: float,
    strategy: str = "optimal",
    config: SessionConfig | None = None,
) -> tuple[list[LinkageMatch], ClusteringSession]:
    """Privately link the records of exactly two sites.

    Builds the global dissimilarity matrix with the paper's protocols,
    then matches the cross-site block.  Returns the matches plus the
    session (for traffic inspection).
    """
    if len(partitions) != 2:
        raise ConfigurationError(
            f"record linkage needs exactly two sites, got {len(partitions)}"
        )
    config = config or SessionConfig(num_clusters=2)
    session = ClusteringSession(config, partitions)
    matrix = session.final_matrix()
    site_a, site_b = session.index.sites
    matches = private_record_linkage(
        matrix, session.index, site_a, site_b, threshold, strategy
    )
    return matches, session


def run_private_outlier_detection(
    partitions: Mapping[str, DataMatrix],
    k: int = 3,
    top_n: int | None = None,
    threshold: float | None = None,
    config: SessionConfig | None = None,
) -> tuple[OutlierReport, ClusteringSession]:
    """Privately flag outliers across all sites' pooled objects.

    Same protocol run as clustering; the TP scores each object by its
    k-NN distance in the final matrix.  Returns the report plus the
    session.
    """
    config = config or SessionConfig(num_clusters=2)
    session = ClusteringSession(config, partitions)
    matrix = session.final_matrix()
    report = knn_outliers(
        matrix, session.index, k=k, top_n=top_n, threshold=threshold
    )
    return report, session
