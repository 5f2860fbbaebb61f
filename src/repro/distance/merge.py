"""Weighted merge of per-attribute dissimilarity matrices.

Section 2.2: "Involved parties construct separate dissimilarity matrices
for each attribute in our protocol.  Then these matrices are merged into
a single matrix using a weight function on the attributes."  Section 5
adds that each per-attribute matrix is normalised to [0, 1] first and
that "every data holder can impose a different weight vector".

The merge is a convex combination: with normalised inputs the result is
again normalised-compatible (entries in [0, 1] when weights sum to 1; we
renormalise weights so callers may pass any positive vector).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distance.dissimilarity import DissimilarityMatrix
from repro.exceptions import ConfigurationError


def merge_weighted(
    matrices: Sequence[DissimilarityMatrix],
    weights: Sequence[float] | None = None,
) -> DissimilarityMatrix:
    """Combine per-attribute matrices with a weight vector.

    Parameters
    ----------
    matrices:
        One (typically normalised) matrix per attribute, all over the same
        object set.
    weights:
        Positive attribute weights; ``None`` means equal weights.  Weights
        are renormalised to sum to 1, so only their ratios matter --
        matching the paper's loose "weight function on the attributes".
    """
    if not matrices:
        raise ConfigurationError("need at least one matrix to merge")
    sizes = {m.num_objects for m in matrices}
    if len(sizes) != 1:
        raise ConfigurationError(f"matrices disagree on object count: {sorted(sizes)}")
    if weights is None:
        weights = [1.0] * len(matrices)
    if len(weights) != len(matrices):
        raise ConfigurationError(
            f"{len(weights)} weights for {len(matrices)} matrices"
        )
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ConfigurationError("weights must be non-negative and finite")
    total = weights.sum()
    if total <= 0:
        raise ConfigurationError("at least one weight must be positive")
    weights = weights / total

    def combine(start: int, stop: int) -> np.ndarray:
        # Each entry sums its weighted terms in attribute order, so the
        # merge is elementwise and does not depend on the block size.
        combined = np.zeros(stop - start, dtype=np.float64)
        for weight, matrix in zip(weights, matrices):
            combined = combined + weight * matrix.store.read(start, stop)
        return combined

    lead = matrices[0].store
    return DissimilarityMatrix._adopt(
        matrices[0].num_objects, lead.spawn_filled(lead.size, combine)
    )
