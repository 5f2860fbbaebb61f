"""Cluster quality metrics.

Two families:

* **Internal** metrics computable from the dissimilarity matrix alone --
  what the third party may publish without extra leakage (Section 5:
  "The third party can also provide clustering quality parameters such
  as average of square distance between members").
* **External** metrics against ground-truth labels -- used only by the
  reproduction experiments to quantify the paper's zero-accuracy-loss
  claim; no protocol component reads ground truth.

Every metric here is a condensed-array formulation: the condensed
vector streams block by block off the matrix's store, per-pair cluster
labels come from each block's pair indices, and the reductions are
``np.add.at`` / ``np.bincount`` / boolean masks, replacing the seed's
nested Python loops (preserved in :mod:`repro.clustering.reference`,
which the equivalence suite holds these to within 1e-9 -- exactly, for
the integer-valued pair counts).  Every accumulator adds its terms in
ascending condensed position whatever the block size, so each metric
is bit-identical across backends.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distance.dissimilarity import (
    DissimilarityMatrix,
    condensed_span_indices,
)
from repro.exceptions import ClusteringError


def _validate_labels(matrix: DissimilarityMatrix | None, labels: Sequence[int]) -> list[int]:
    labels = list(labels)
    if matrix is not None and len(labels) != matrix.num_objects:
        raise ClusteringError(
            f"{len(labels)} labels for {matrix.num_objects} objects"
        )
    if not labels:
        raise ClusteringError("labels must be non-empty")
    return labels


# -- internal metrics ---------------------------------------------------------


def average_square_distance(matrix: DissimilarityMatrix, labels: Sequence[int]) -> dict[int, float]:
    """Per-cluster average squared member distance (the Section 5 statistic).

    For each cluster, the mean of ``d(i, j)^2`` over distinct member pairs;
    singleton clusters report 0.0.
    """
    labels = _validate_labels(matrix, labels)
    unique, codes = np.unique(np.asarray(labels), return_inverse=True)
    # np.add.at into one accumulator adds per-cluster terms in ascending
    # position order across blocks, so this published statistic does not
    # depend on the block size.
    sums = np.zeros(unique.size, dtype=np.float64)
    counts = np.zeros(unique.size, dtype=np.int64)
    for start, stop in matrix.store.block_ranges():
        i, j = condensed_span_indices(start, stop)
        row_codes = codes[i]
        same = row_codes == codes[j]
        cluster_of_pair = row_codes[same]
        np.add.at(sums, cluster_of_pair, matrix.store.read(start, stop)[same] ** 2)
        counts += np.bincount(cluster_of_pair, minlength=unique.size)
    return {
        int(cluster): (float(total / count) if count else 0.0)
        for cluster, total, count in zip(unique, sums, counts)
    }


def silhouette_score(matrix: DissimilarityMatrix, labels: Sequence[int]) -> float:
    """Mean silhouette coefficient computed from dissimilarities.

    Requires at least two clusters and returns a value in [-1, 1]; objects
    in singleton clusters contribute 0 by the standard convention.
    """
    labels = _validate_labels(matrix, labels)
    unique, codes = np.unique(np.asarray(labels), return_inverse=True)
    k = unique.size
    if k < 2:
        raise ClusteringError("silhouette requires at least two clusters")
    n = matrix.num_objects
    # row_sums / col_sums accumulate each pair from its row / column
    # object's side, in ascending condensed position whatever the block
    # size; cluster_sums[p, c] is the total distance from object p to
    # cluster c's members.
    row_sums = np.zeros(n * k, dtype=np.float64)
    col_sums = np.zeros(n * k, dtype=np.float64)
    for start, stop in matrix.store.block_ranges():
        i, j = condensed_span_indices(start, stop)
        block = matrix.store.read(start, stop)
        np.add.at(row_sums, i * k + codes[j], block)
        np.add.at(col_sums, j * k + codes[i], block)
    cluster_sums = (row_sums + col_sums).reshape(n, k)
    counts = np.bincount(codes, minlength=k)
    objects = np.arange(n)
    own_count = counts[codes]
    a = cluster_sums[objects, codes] / np.maximum(own_count - 1, 1)
    others = cluster_sums / counts[None, :]
    others[objects, codes] = np.inf
    b = others.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.where(
        (own_count > 1) & (denom > 0),
        (b - a) / np.where(denom > 0, denom, 1.0),
        0.0,
    )
    return float(scores.mean())


def dunn_index(matrix: DissimilarityMatrix, labels: Sequence[int]) -> float:
    """Dunn index: min inter-cluster distance / max intra-cluster diameter.

    Higher is better; undefined (raises) for fewer than two clusters or
    when every cluster is a singleton (zero diameter -- we return inf
    then, the conventional limit).
    """
    labels = _validate_labels(matrix, labels)
    arr = np.asarray(labels)
    if np.unique(arr).size < 2:
        raise ClusteringError("Dunn index requires at least two clusters")
    # min/max are exactly associative, so block-wise extrema do not
    # depend on the block size.
    max_within = -np.inf
    min_between = np.inf
    for start, stop in matrix.store.block_ranges():
        i, j = condensed_span_indices(start, stop)
        same = arr[i] == arr[j]
        block = matrix.store.read(start, stop)
        if np.any(same):
            max_within = max(max_within, float(block[same].max()))
        if not np.all(same):
            min_between = min(min_between, float(block[~same].min()))
    if max_within <= 0.0:
        return float("inf")
    return min_between / max_within


def cophenetic_correlation(matrix: DissimilarityMatrix, dendrogram) -> float:
    """Pearson correlation between original and cophenetic distances.

    The classic goodness-of-fit statistic for a dendrogram against the
    matrix it was built from; near 1 means the tree faithfully encodes
    the distances.  Another quality figure the TP can publish without
    leaking pairwise values.  Both distance vectors stay condensed; no
    square matrix is materialised.
    """
    if dendrogram.num_leaves != matrix.num_objects:
        raise ClusteringError("dendrogram and matrix disagree on object count")
    n = matrix.num_objects
    if n < 3:
        raise ClusteringError("cophenetic correlation needs >= 3 objects")
    original = matrix.condensed
    tree = dendrogram.cophenetic_condensed()
    if original.std() == 0 or tree.std() == 0:
        raise ClusteringError("degenerate distances: correlation undefined")
    return float(np.corrcoef(original, tree)[0, 1])


# -- external metrics ---------------------------------------------------------


def _contingency(
    truth: Sequence[int], predicted: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contingency counts and row/column marginals via one bincount."""
    if len(truth) != len(predicted):
        raise ClusteringError("label vectors must have equal length")
    truth_codes = np.unique(np.asarray(truth), return_inverse=True)[1]
    pred_codes = np.unique(np.asarray(predicted), return_inverse=True)[1]
    num_pred = int(pred_codes.max()) + 1 if pred_codes.size else 0
    num_truth = int(truth_codes.max()) + 1 if truth_codes.size else 0
    cells = np.bincount(
        truth_codes * num_pred + pred_codes, minlength=num_truth * num_pred
    ).reshape(num_truth, num_pred)
    return cells, cells.sum(axis=1), cells.sum(axis=0)


def _pairs(counts: np.ndarray) -> int:
    """Total same-group pairs, sum of C(c, 2) in exact integer math."""
    counts = counts.astype(np.int64, copy=False)
    return int((counts * (counts - 1) // 2).sum())


def _pair_counts(truth: Sequence[int], predicted: Sequence[int]) -> tuple[int, int, int, int]:
    """(both-same, truth-same-only, pred-same-only, both-different) pair counts."""
    cells, rows, cols = _contingency(truth, predicted)
    n = len(truth)
    ss = _pairs(cells.ravel())
    sd = _pairs(rows) - ss
    ds = _pairs(cols) - ss
    dd = n * (n - 1) // 2 - ss - sd - ds
    return ss, sd, ds, dd


def rand_index(truth: Sequence[int], predicted: Sequence[int]) -> float:
    """Fraction of object pairs on which the two partitions agree."""
    ss, sd, ds, dd = _pair_counts(truth, predicted)
    total = ss + sd + ds + dd
    if total == 0:
        return 1.0
    return (ss + dd) / total


def adjusted_rand_index(truth: Sequence[int], predicted: Sequence[int]) -> float:
    """Rand index adjusted for chance (1.0 iff identical partitions)."""
    cells, rows, cols = _contingency(truth, predicted)
    n = len(truth)
    if n == 0:
        raise ClusteringError("labels must be non-empty")
    sum_cells = _pairs(cells.ravel())
    sum_rows = _pairs(rows)
    sum_cols = _pairs(cols)
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0:
        return 1.0
    expected = sum_rows * sum_cols / total_pairs
    maximum = (sum_rows + sum_cols) / 2
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


def purity(truth: Sequence[int], predicted: Sequence[int]) -> float:
    """Fraction of objects whose cluster's majority truth label matches theirs."""
    cells, _, _ = _contingency(truth, predicted)
    if not len(truth):
        raise ClusteringError("labels must be non-empty")
    return int(cells.max(axis=0).sum()) / len(truth)
