"""k-medoids (PAM) on a dissimilarity matrix.

The partitioning counterpart used by the T-CLUST experiment.  The paper
argues for hierarchical methods because partitioning algorithms "tend to
result in spherical clusters" and "can not handle string data type for
which a 'mean' is not defined" (Section 2).  k-medoids is the *strongest*
partitioning contender under those constraints -- it needs only pairwise
distances, so it runs on the same private dissimilarity matrix -- which
makes the comparison fair: where even PAM fails (non-spherical shapes),
the paper's argument holds a fortiori against k-means.

Implementation
--------------
The seed implementation (preserved in
:func:`repro.clustering.reference.reference_k_medoids`) is textbook PAM:
greedy BUILD, then SWAP steps that re-assign every object for every
medoid/candidate pair -- O(k^2 n^2) per iteration.  This module keeps
PAM's steepest-descent *trajectory* (same swaps, same order, same
results) but evaluates it FasterPAM-style (Schubert & Rousseeuw):
cached nearest/second-nearest medoid distance arrays turn the cost delta
of swapping medoid m for candidate c into

    delta(m, c) =   sum_{i: nearest(i)=m}  min(d(i,c), dsecond(i)) - dnearest(i)
                  + sum_{i: nearest(i)!=m} min(d(i,c) - dnearest(i), 0)

so one whole-candidate numpy evaluation scores every (m, c) pair in
O(n^2 + n k) per iteration.  BUILD is likewise one vectorized gain pass
per added medoid.  Both read the matrix through a panel source: views of
a resident square, or panels streamed off a multi-block store.
Deterministic throughout, and identical to the reference trajectory (the
winner selection replays the seed's scan order and its 1e-12
strict-improvement rule).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distance.dissimilarity import (
    DissimilarityMatrix,
    condensed_offsets,
    condensed_row_gather,
)
from repro.exceptions import ClusteringError

#: Candidate columns are scored in blocks of this many to bound the
#: working set at O(n * block) instead of O(n^2) scratch.
_CANDIDATE_BLOCK = 512


class _SquarePanels:
    """Row/column panels of a resident square matrix.

    Panels are views of the square where nothing writes to them, and
    ``columns`` is the fancy-indexed copy that SWAP overwrites.
    """

    def __init__(self, square: np.ndarray) -> None:
        self.square = square
        self.n = square.shape[0]

    def column(self, index: int) -> np.ndarray:
        return self.square[:, index]

    def columns(self, indices: np.ndarray) -> np.ndarray:
        return self.square[:, indices]

    def row_panel(self, r0: int, r1: int) -> np.ndarray:
        return self.square[r0:r1]

    def column_block(self, start: int, stop: int) -> np.ndarray:
        return self.square[:, start:stop]


class _StorePanels:
    """Row/column panels of the square matrix, streamed off a condensed store.

    The multi-block PAM path never materialises ``to_square()``: a row panel
    for rows ``[r0, r1)`` is one contiguous condensed segment (all
    below-diagonal entries of those rows), a symmetric in-band fill, and
    one block-ascending gather for the columns beyond ``r1``.  Column
    blocks are the transposed panels copied C-contiguous, so every
    reduction downstream runs over temporaries with the exact shape,
    layout, and element order of the square path's -- which is what keeps
    medoid selection independent of the store's block size.
    """

    def __init__(self, matrix: DissimilarityMatrix) -> None:
        self.store = matrix.store
        self.n = matrix.num_objects
        self.offsets = condensed_offsets(self.n)
        self._scratch = np.empty(self.n, dtype=np.int64)

    def column(self, index: int) -> np.ndarray:
        """Column ``index`` of the square (== row, exactly: symmetry)."""
        return condensed_row_gather(
            self.store, int(index), self.n, self.offsets, scratch=self._scratch
        )

    def columns(self, indices: np.ndarray) -> np.ndarray:
        """Columns at ``indices`` as a C-contiguous ``(n, len(indices))``
        array -- the layout ``square[:, indices]`` fancy indexing yields."""
        out = np.empty((self.n, len(indices)), dtype=np.float64)
        for slot, index in enumerate(indices):
            out[:, slot] = self.column(int(index))
        return out

    def row_panel(self, r0: int, r1: int) -> np.ndarray:
        """Rows ``[r0, r1)`` of the square as a ``(r1 - r0, n)`` array."""
        n = self.n
        width = r1 - r0
        panel = np.zeros((width, n), dtype=np.float64)
        base = int(self.offsets[r0])
        segment = self.store.read(base, r1 * (r1 - 1) // 2)
        for a in range(width):
            row = r0 + a
            start = int(self.offsets[row]) - base
            panel[a, :row] = segment[start : start + row]
            # In-band symmetric fill: d(row, r0..row-1) is column `row`
            # of the earlier panel rows.
            panel[:a, row] = segment[start + r0 : start + row]
        if r1 < n:
            cols = np.arange(r0, r1, dtype=np.int64)
            positions = self.offsets[r1:, None] + cols[None, :]
            tail = self.store.gather(positions.reshape(-1)).reshape(n - r1, width)
            panel[:, r1:] = tail.T
        return panel

    def column_block(self, start: int, stop: int) -> np.ndarray:
        """Columns ``[start, stop)`` as C-contiguous ``(n, stop - start)``."""
        return np.ascontiguousarray(self.row_panel(start, stop).T)


@dataclass(frozen=True)
class KMedoidsResult:
    """Outcome of a PAM run."""

    labels: list[int]
    medoids: list[int]
    cost: float
    iterations: int
    converged: bool


def _build_init(source: _SquarePanels | _StorePanels, k: int) -> list[int]:
    """PAM BUILD: greedily add the medoid that most reduces total cost.

    One gain pass per added medoid, panel by panel: rows of
    ``nearest - panel`` clipped at zero are exactly the per-candidate
    columns the seed loop evaluated one by one (the matrix is
    symmetric), summed along the contiguous axis.  Each row reduces the
    same elements in the same pairwise order whatever the panel height,
    so the greedy choices (argmin/argmax over bit-identical vectors)
    match the seed bit for bit on either panel source.
    """
    n = source.n
    sums = np.empty(n, dtype=np.float64)
    for r0 in range(0, n, _CANDIDATE_BLOCK):
        r1 = min(n, r0 + _CANDIDATE_BLOCK)
        sums[r0:r1] = source.row_panel(r0, r1).sum(axis=1)
    first = int(sums.argmin())
    medoids = [first]
    is_medoid = np.zeros(n, dtype=bool)
    is_medoid[first] = True
    nearest = source.column(first)
    while len(medoids) < k:
        gains = np.empty(n, dtype=np.float64)
        for r0 in range(0, n, _CANDIDATE_BLOCK):
            r1 = min(n, r0 + _CANDIDATE_BLOCK)
            panel = source.row_panel(r0, r1)
            gains[r0:r1] = np.maximum(nearest[None, :] - panel, 0.0).sum(axis=1)
        gains[is_medoid] = -np.inf
        best = int(gains.argmax())
        medoids.append(best)
        is_medoid[best] = True
        nearest = np.minimum(nearest, source.column(best))
    return medoids


def _swap_deltas(
    source: _SquarePanels | _StorePanels,
    medoid_idx: np.ndarray,
    nearest: np.ndarray,
    dnearest: np.ndarray,
    dsecond: np.ndarray,
) -> np.ndarray:
    """Cost deltas of every (medoid position, candidate) swap, (k, n).

    Every reduction runs on a C-contiguous ``(n, block)`` temporary (a
    strided ``square[:, block]`` view is consumed by elementwise ops
    first), so a square's view and a store's contiguous
    ``column_block`` copy give every delta bit for bit.
    """
    n = source.n
    k = medoid_idx.shape[0]
    member = [nearest == m for m in range(k)]
    deltas = np.empty((k, n), dtype=np.float64)
    dnear_col = dnearest[:, None]
    dsecond_col = dsecond[:, None]
    for start in range(0, n, _CANDIDATE_BLOCK):
        stop = min(start + _CANDIDATE_BLOCK, n)
        block = slice(start, stop)
        d_c = source.column_block(start, stop)
        reduction = np.minimum(d_c - dnear_col, 0.0)
        shared = reduction.sum(axis=0)
        # For points losing their nearest medoid, the reduction term is
        # replaced by min(d(i,c), dsecond(i)) - dnearest(i).
        correction = np.minimum(d_c, dsecond_col) - dnear_col - reduction
        for m in range(k):
            deltas[m, block] = shared + correction[member[m]].sum(axis=0)
    deltas[:, medoid_idx] = np.inf
    return deltas


def _select_swap(deltas: np.ndarray) -> tuple[int, int] | None:
    """Replay the seed's scan over the delta table.

    The seed walks medoids (list order) then candidates (ascending) and
    accepts a swap only when it beats the incumbent by more than 1e-12.
    The accepted entries form a record chain (each acceptance lowers the
    incumbent by > 1e-12), so the full scan is reproduced exactly by
    jumping to the next improving entry until none remains -- one
    vectorized comparison per acceptance, and the chain is short (its
    length is bounded by the number of epsilon-separated records).
    """
    flat = deltas.ravel()
    if not flat.min() < -1e-12:
        return None
    best = 0.0
    winner = -1
    position = 0
    while position < flat.size:
        improving = flat[position:] < best - 1e-12
        step = int(np.argmax(improving))
        if not improving[step]:
            break
        winner = position + step
        best = float(flat[winner])
        position = winner + 1
    if winner < 0:
        return None
    return divmod(winner, deltas.shape[1])


def k_medoids(
    matrix: DissimilarityMatrix, k: int, max_iterations: int = 100
) -> KMedoidsResult:
    """Partition objects into ``k`` clusters around medoids.

    Parameters
    ----------
    matrix:
        Pairwise dissimilarities (any metric or non-metric values work;
        only comparisons are used).
    k:
        Number of clusters, ``1 <= k <= num_objects``.
    max_iterations:
        Upper bound on SWAP iterations; PAM almost always converges far
        earlier, and ``converged`` reports whether it did.
    """
    n = matrix.num_objects
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")
    store = matrix.store
    source: _SquarePanels | _StorePanels
    if store.size <= store.block_entries or n <= _CANDIDATE_BLOCK:
        # A single-block store is read whole anyway, so its square costs
        # a few blocks of memory at most; and up to one candidate block,
        # one streamed row panel already is the whole square.  Views of
        # a resident square run about twice as fast as streamed panels,
        # with the same bits.
        source = _SquarePanels(matrix.to_square())
    else:
        # Several blocks and several candidate blocks: stream panels,
        # never materialise the square -- peak memory is
        # O(n * _CANDIDATE_BLOCK) plus the store's cache.
        source = _StorePanels(matrix)
    medoids = _build_init(source, k)

    iterations = 0
    converged = False
    row_index = np.arange(n)
    # Unlike the seed, no running cost is tracked: acceptance decisions
    # are made purely on deltas, and the final cost is recomputed below.
    while iterations < max_iterations:
        iterations += 1
        medoid_idx = np.asarray(medoids, dtype=np.int64)
        distances = source.columns(medoid_idx)
        nearest = distances.argmin(axis=1)
        dnearest = distances[row_index, nearest]
        if k > 1:
            distances[row_index, nearest] = np.inf
            dsecond = distances.min(axis=1)
        else:
            dsecond = np.full(n, np.inf)
        deltas = _swap_deltas(source, medoid_idx, nearest, dnearest, dsecond)
        swap = _select_swap(deltas)
        if swap is None:
            converged = True
            break
        medoids[swap[0]] = int(swap[1])

    distances = source.columns(np.asarray(medoids, dtype=np.int64))
    nearest = distances.argmin(axis=1)
    cost = float(distances[row_index, nearest].sum())
    # Renumber labels by first appearance so results are comparable.
    remap: dict[int, int] = {}
    labels = []
    for value in nearest:
        value = int(value)
        if value not in remap:
            remap[value] = len(remap)
        labels.append(remap[value])
    ordered_medoids = [medoids[old] for old in sorted(remap, key=remap.get)]
    return KMedoidsResult(
        labels=labels,
        medoids=ordered_medoids,
        cost=cost,
        iterations=iterations,
        converged=converged,
    )
