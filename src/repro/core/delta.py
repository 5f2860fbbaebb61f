"""Delta construction: Figure 11 restricted to newly arrived records.

The paper's construction is one-shot -- every arrival would force a full
O(n^2) re-run of the comparison protocols.  Nothing in the protocol
requires that: pairs among *surviving* records keep their exact
distances (the protocols are deterministic functions of the compared
values alone), so an incremental session only needs the Figure 11 rounds
for pairs that touch an arrival.  This module plans those rounds.

For an ingest epoch where a set of sites each appended a batch:

* every grown site ships a **local delta tail** -- the new condensed
  rows of its Figure 12 matrix (each arrival against every earlier local
  record), an O(added * site_size) computation instead of O(site^2);
* every holder pair {J, K} (J < K) runs at most two sub-column protocol
  rounds covering each new cross pair exactly once -- with the grown
  site always *responding*, so the comparison matrix has one row per
  arrival rather than one per peer record (per-row costs track the
  batch, not the partition):

  - ``"grow"`` (runs when J grew): K initiates with its full column, J
    responds with its arrivals -- covers J_new x K_all, and
  - ``"base"`` (runs when K grew): J initiates with its pre-epoch base,
    K responds with its arrivals -- covers J_base x K_new;

* categorical attributes ship only the arrivals' ciphertexts; the third
  party extends its merged column and patches the global 0/1 (or
  taxonomy path-metric) matrix itself -- Section 4.3 has no cross
  rounds to restrict.

Each run derives its PRNG streams under epoch-and-part-scoped labels
(:mod:`repro.core.labels`): position-independent (no global offsets, so
a pair's transcript does not depend on how other sites grew) and
history-unique (the epoch counter prevents mask-stream reuse even if a
site shrinks and later regrows over the same local id range).

Differential guarantee: the protocols are exact -- an unmasked distance
equals the plain comparison function of the two values, bit for bit --
so a patched raw matrix is entry-identical to a from-scratch
construction over the union, and therefore so are the re-normalised
matrices, the weighted merge, and every clustering derived from them.
``tests/test_incremental_differential.py`` holds the subsystem to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.data.partition import GlobalIndex
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class SiteGrowth:
    """One site's record count before and after an ingest epoch."""

    old_size: int
    new_size: int

    def __post_init__(self) -> None:
        if self.old_size < 1 or self.new_size < self.old_size:
            raise ConfigurationError(
                f"invalid site growth ({self.old_size} -> {self.new_size})"
            )

    @property
    def added(self) -> int:
        return self.new_size - self.old_size


@dataclass(frozen=True)
class DeltaPlan:
    """Everything the parties need to agree on one ingest epoch.

    ``epoch`` is the session's monotone mutation counter (scopes every
    PRNG label of the epoch's runs); ``growth`` covers *every* site of
    the consortium, grown or not, so ranges for both ends of each
    protocol run are derivable without negotiation.
    """

    epoch: int
    growth: Mapping[str, SiteGrowth]

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ConfigurationError(f"delta epoch must be >= 1, got {self.epoch}")
        if not any(g.added for g in self.growth.values()):
            raise ConfigurationError("delta plan has no arrivals")

    def site(self, name: str) -> SiteGrowth:
        try:
            return self.growth[name]
        except KeyError:
            raise ConfigurationError(f"no growth entry for site {name!r}") from None

    def arrival_positions(self, index: GlobalIndex) -> list[int]:
        """Global positions of this epoch's arrivals in the *grown* frame.

        These are the rows :meth:`DissimilarityMatrix.insert_objects`
        must vacate before the epoch's blocks land.
        """
        positions: list[int] = []
        for site in index.sites:
            growth = self.site(site)
            if index.size_of(site) != growth.new_size:
                raise ConfigurationError(
                    f"index holds {index.size_of(site)} objects for {site!r}, "
                    f"plan expects {growth.new_size}"
                )
            offset = index.offset_of(site)
            positions.extend(range(offset + growth.old_size, offset + growth.new_size))
        return positions
