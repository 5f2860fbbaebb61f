"""Private record linkage on the privately-built dissimilarity matrix.

Record linkage asks: which records at site A and site B refer to the
same real-world entity?  With the paper's protocols, the third party
holds the cross-site block of the global dissimilarity matrix without
having seen a single attribute value -- linkage is then a matching
problem on that block (Section 1 and Section 6 name this application
explicitly).

Two matching strategies are provided:

* ``greedy`` -- repeatedly link the globally closest unlinked pair under
  the threshold; fast, order-independent given distinct distances,
* ``optimal`` -- minimum-cost assignment via
  ``scipy.optimize.linear_sum_assignment`` restricted to under-threshold
  pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.partition import GlobalIndex, ObjectRef
from repro.distance.dissimilarity import DissimilarityMatrix
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class LinkageMatch:
    """One linked record pair and its distance."""

    left: ObjectRef
    right: ObjectRef
    distance: float


def _cross_block(
    matrix: DissimilarityMatrix, index: GlobalIndex, site_a: str, site_b: str
) -> np.ndarray:
    rows, cols = index.block(site_a, site_b)
    return matrix.cross_block(rows, cols)


def private_record_linkage(
    matrix: DissimilarityMatrix,
    index: GlobalIndex,
    site_a: str,
    site_b: str,
    threshold: float,
    strategy: str = "optimal",
) -> list[LinkageMatch]:
    """Link records of ``site_a`` to records of ``site_b``.

    Parameters
    ----------
    matrix:
        The global dissimilarity matrix (typically
        :meth:`repro.core.session.ClusteringSession.final_matrix`).
    threshold:
        Maximum distance for a pair to count as a link.  Distances are
        normalised to [0, 1] by the construction pipeline, so thresholds
        are scale-free.
    strategy:
        ``"optimal"`` (assignment problem) or ``"greedy"``.

    Returns matches sorted by ascending distance.  Each record links at
    most once (one-to-one linkage).
    """
    if site_a == site_b:
        raise ConfigurationError("record linkage needs two distinct sites")
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    if strategy not in ("optimal", "greedy"):
        raise ConfigurationError(f"unknown strategy {strategy!r}")

    block = _cross_block(matrix, index, site_a, site_b)
    matches: list[LinkageMatch] = []

    if strategy == "greedy":
        used_rows: set[int] = set()
        used_cols: set[int] = set()
        order = np.dstack(np.unravel_index(np.argsort(block, axis=None), block.shape))[0]
        for i, j in order:
            if block[i, j] > threshold:
                break
            if i in used_rows or j in used_cols:
                continue
            used_rows.add(int(i))
            used_cols.add(int(j))
            matches.append(
                LinkageMatch(
                    left=ObjectRef(site_a, int(i)),
                    right=ObjectRef(site_b, int(j)),
                    distance=float(block[i, j]),
                )
            )
    else:
        # Over-threshold pairs get a prohibitive cost; assignments landing
        # on them are dropped afterwards.
        penalty = max(1.0, float(block.max())) * 10.0 + threshold
        costs = np.where(block <= threshold, block, penalty)
        # Deferred: every party process imports repro.apps and must not load scipy.
        from scipy.optimize import linear_sum_assignment

        row_idx, col_idx = linear_sum_assignment(costs)
        for i, j in zip(row_idx, col_idx):
            if block[i, j] <= threshold:
                matches.append(
                    LinkageMatch(
                        left=ObjectRef(site_a, int(i)),
                        right=ObjectRef(site_b, int(j)),
                        distance=float(block[i, j]),
                    )
                )
    matches.sort(key=lambda m: (m.distance, m.left.local_id, m.right.local_id))
    return matches
