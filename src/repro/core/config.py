"""Configuration objects for protocol runs and clustering sessions."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro.crypto.prng import DEFAULT_PRNG_KIND, available_kinds
from repro.exceptions import ConfigurationError
from repro.types import LinkageMethod

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.distance.store import StoreSpec


@dataclass(frozen=True)
class ProtocolSuiteConfig:
    """Knobs shared by the three comparison protocols.

    Attributes
    ----------
    prng_kind:
        Which :mod:`repro.crypto.prng` generator realises ``rng_JK`` and
        ``rng_JT``.  The default is the hash DRBG, matching the paper's
        quality assumptions; tests exercise the others.
    mask_bits:
        Width of the additive masks in the numeric protocol.  Must leave
        generous headroom over the encoded data magnitude: the mask is
        what makes a masked value "practically a random number" to its
        recipient (Section 4.1).
    batch_numeric:
        ``True`` reproduces the paper's batched protocol (one mask per
        initiator value, reused across the responder's rows).  ``False``
        switches to the Section 4.1 mitigation -- "using unique random
        numbers for each object pair" -- which defeats the frequency
        attack at higher communication cost.
    secure_channels:
        Whether party links are sealed.  The paper *requires* secured
        channels; turning this off exists for the eavesdropping
        experiments only.
    categorical_digest_size:
        Ciphertext size for deterministic encryption of categoricals.
    fresh_string_masks:
        ``False`` reproduces Figure 8 exactly (one mask vector reused
        across all of an initiator's strings).  ``True`` enables the
        extension that closes the paper's Section 6 open problem: a
        continuous mask stream defeating language-statistics attacks at
        identical communication cost.
    construction_schedule:
        Ordering policy of the construction scheduler
        (:data:`repro.core.scheduler.SCHEDULE_POLICIES`).
        ``"sequential"`` replays the seed's exact global message order
        (byte-identical sealed transcripts); ``"parallel"`` executes independent steps on a real worker pool
        (``SessionConfig.max_workers`` threads) with bit-identical final
        matrices, dendrograms and medoids for any worker count.
    link_latency:
        Simulated per-message link delay in seconds (default 0: the
        in-process network delivers instantly).  Models the round-trip
        time a deployed consortium pays per protocol message; the
        parallel schedule overlaps these delays across independent
        (attribute, pair) runs, which is where its wall-clock win comes
        from on latency-bound workloads.
    tolerate_faults:
        ``True`` lets construction degrade instead of abort when a party
        crashes or a lane times out: the session keeps every unaffected
        attribute's matrix and reports exactly what was lost
        (:class:`~repro.core.scheduler.DegradedReport`).  The default
        ``False`` preserves fail-fast behaviour.
    store_backend:
        Storage backend for the third party's dissimilarity matrices
        (``"memory"`` | ``"memmap"``); ``None`` defers to the
        ``REPRO_STORE_BACKEND`` environment default.  Both store float64
        and run the same block-streamed code, so memmap is bit-identical
        to in-memory end to end (matrices, dendrograms, medoids, wire
        bytes).
    store_block_entries:
        Entries per memmap row-block shard, its streaming granularity
        (``None``: environment or module default; the in-memory store
        is always one block).
    store_cache_bytes:
        LRU byte budget for resident memmap blocks (``None``:
        environment or module default).
    store_dir:
        Base directory for memmap shard directories (``None``:
        environment override or the system temp dir).
    """

    prng_kind: str = DEFAULT_PRNG_KIND
    mask_bits: int = 64
    batch_numeric: bool = True
    secure_channels: bool = True
    categorical_digest_size: int = 16
    fresh_string_masks: bool = False
    construction_schedule: str = "sequential"
    link_latency: float = 0.0
    tolerate_faults: bool = False
    store_backend: str | None = None
    store_block_entries: int | None = None
    store_cache_bytes: int | None = None
    store_dir: str | None = None

    def __post_init__(self) -> None:
        if self.prng_kind not in available_kinds():
            raise ConfigurationError(
                f"unknown prng_kind {self.prng_kind!r}; available: {available_kinds()}"
            )
        if not 16 <= self.mask_bits <= 4096:
            raise ConfigurationError(
                f"mask_bits must be in [16, 4096], got {self.mask_bits}"
            )
        if not 8 <= self.categorical_digest_size <= 32:
            raise ConfigurationError(
                f"categorical_digest_size must be in [8, 32], got {self.categorical_digest_size}"
            )
        from repro.core.scheduler import SCHEDULE_POLICIES

        if self.construction_schedule not in SCHEDULE_POLICIES:
            raise ConfigurationError(
                f"unknown construction_schedule {self.construction_schedule!r}; "
                f"available: {SCHEDULE_POLICIES}"
            )
        if not 0.0 <= self.link_latency <= 1.0:
            raise ConfigurationError(
                f"link_latency must be in [0, 1] seconds, got {self.link_latency}"
            )
        # Delegate storage-knob validation to StoreSpec's constructor.
        self.store_spec()

    def store_spec(self) -> "StoreSpec":
        """Resolved storage backend for the session's matrices.

        Starts from the environment default (so whole runs can be
        re-pointed via ``REPRO_STORE_BACKEND``) and overrides any field
        set explicitly on this config -- explicit config beats
        environment beats module defaults.
        """
        from repro.distance.store import default_store_spec

        spec = default_store_spec()
        overrides: dict[str, object] = {}
        if self.store_backend is not None:
            overrides["backend"] = self.store_backend
        if self.store_block_entries is not None:
            overrides["block_entries"] = self.store_block_entries
        if self.store_cache_bytes is not None:
            overrides["cache_bytes"] = self.store_cache_bytes
        if self.store_dir is not None:
            overrides["directory"] = self.store_dir
        if overrides:
            spec = replace(spec, **overrides)  # type: ignore[arg-type]
        return spec


@dataclass(frozen=True)
class SessionConfig:
    """End-to-end clustering session configuration.

    Attributes
    ----------
    num_clusters:
        How many clusters the third party publishes (dendrogram cut).
    linkage:
        Hierarchical method the third party runs; any
        :class:`repro.types.LinkageMethod`.
    weights:
        Attribute weight vector used when merging per-attribute
        dissimilarity matrices.  ``None`` means equal weights.  (The
        paper lets each holder impose its own vector; pass
        ``per_holder_weights`` to model that.)
    per_holder_weights:
        Optional ``{site: weight vector}``; when set, the session
        publishes one result per holder, each merged with that holder's
        vector -- Section 5's "every data holder can impose a different
        weight vector".
    master_seed:
        Root of all session randomness (DH entropy, channel nonces).
        Two sessions with equal seeds and inputs produce byte-identical
        transcripts.
    max_workers:
        Worker-thread budget for parallel execution: the size of the
        construction scheduler's pool under
        ``suite.construction_schedule == "parallel"`` and the default
        concurrency of :meth:`repro.apps.sessions.SessionBatch.run_many_parallel`.
        Results are bit-identical for every value; only wall-clock
        changes.  Ignored by the sequential schedule.
    watchdog_timeout:
        Optional stall watchdog for parallel construction, in seconds
        (default ``None``: wait forever, the historical behaviour).
        When armed and no step completes for this long while steps are
        outstanding, the run raises
        :class:`~repro.exceptions.SchedulerStallError` naming every
        pending step -- a deadlock report instead of a silent hang.
    suite:
        The protocol-level configuration.
    """

    num_clusters: int = 2
    linkage: LinkageMethod | str = LinkageMethod.AVERAGE
    weights: Sequence[float] | None = None
    per_holder_weights: dict[str, Sequence[float]] | None = None
    # The root of the whole seed-derivation tree: every pairwise secret
    # and PRNG label derives from it, so it never appears in reprs.
    master_seed: int = field(default=0, repr=False)
    max_workers: int = 4
    watchdog_timeout: float | None = None
    suite: ProtocolSuiteConfig = field(default_factory=ProtocolSuiteConfig)

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ConfigurationError(
                f"num_clusters must be >= 1, got {self.num_clusters}"
            )
        if self.max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.watchdog_timeout is not None and self.watchdog_timeout <= 0:
            raise ConfigurationError(
                f"watchdog_timeout must be > 0 seconds, got {self.watchdog_timeout}"
            )
        if isinstance(self.linkage, str):
            try:
                object.__setattr__(self, "linkage", LinkageMethod(self.linkage))
            except ValueError:
                raise ConfigurationError(
                    f"unknown linkage {self.linkage!r}"
                ) from None
