"""Edit (Levenshtein) distance, on strings and on character comparison
matrices.

Section 2.3: "Edit distance algorithm returns the number of operations
required to transform a source string into a target string.  Available
operations are insertion, deletion and transformation of a character.
The algorithm makes use of the dynamic programming paradigm.  An
(n+1) x (m+1) matrix is iteratively filled ... Input of the edit distance
algorithm need not be the input strings [: a CCM] is equally expressive."

All entry points share one DP core that is vectorised two ways: the
horizontal (in-row) dependency -- a min-plus prefix scan -- collapses to
``np.minimum.accumulate`` instead of a Python loop, and independent
string pairs of equal shape are stacked and solved *simultaneously*
along a batch axis.  The third party's bulk workload (one DP per
cross-site string pair) and the holders' local matrices both ride the
batch path.  Unit costs (1 per insert/delete/substitute) follow the
paper.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError


def _dp_edit_distance_batch(substitution_costs: np.ndarray) -> np.ndarray:
    """DP over a stack of (batch x rows x cols) 0/1 substitution costs
    (any integer or bool dtype).

    ``substitution_costs[b, q, p]`` is the cost of aligning target char
    ``q`` with source char ``p`` in pair ``b``.  The row recurrence

        current[p+1] = min(prev[p] + cost, prev[p+1] + 1, current[p] + 1)

    has a sequential horizontal term; substituting ``g_p = current[p+1]
    - p`` turns it into a running minimum (``g_p = min(g_{p-1}, best_p -
    p)``), which ``np.minimum.accumulate`` evaluates for every pair of
    the batch at once.
    """
    batch, rows, cols = substitution_costs.shape
    offsets = np.arange(cols, dtype=np.int64)
    previous = np.broadcast_to(
        np.arange(cols + 1, dtype=np.int64), (batch, cols + 1)
    ).copy()
    for q in range(rows):
        best = np.minimum(
            previous[:, :-1] + substitution_costs[:, q, :], previous[:, 1:] + 1
        )
        best -= offsets
        np.minimum(best[:, 0], q + 2, out=best[:, 0])
        np.minimum.accumulate(best, axis=1, out=best)
        previous[:, 0] = q + 1
        previous[:, 1:] = best + offsets
    return previous[:, -1]


def _dp_edit_distance(substitution_cost: np.ndarray) -> int:
    """Core DP over one (rows x cols) 0/1 substitution-cost matrix."""
    return int(_dp_edit_distance_batch(substitution_cost[None, :, :])[0])


#: Per-chunk budget for stacked matrices (cells).  Batching wins come
#: from amortising row updates over a few thousand pairs; beyond that,
#: stacking only inflates peak memory.
_BATCH_CELL_BUDGET = 4_000_000


def batch_chunk(rows: int, cols: int) -> int:
    """How many ``rows x cols`` matrices one stacked chunk may hold."""
    return max(1, _BATCH_CELL_BUDGET // max(1, rows * cols))


def edit_distance(source: str, target: str) -> int:
    """Levenshtein distance between two strings (symmetric, unit costs)."""
    if source == target:
        return 0
    if not source:
        return len(target)
    if not target:
        return len(source)
    cost = np.ones((len(target), len(source)), dtype=np.int64)
    source_codes = np.frombuffer(source.encode("utf-32-le"), dtype=np.uint32)
    target_codes = np.frombuffer(target.encode("utf-32-le"), dtype=np.uint32)
    cost[np.equal.outer(target_codes, source_codes)] = 0
    return _dp_edit_distance(cost)


def edit_distance_from_ccm(ccm: np.ndarray) -> int:
    """Levenshtein distance computed from a character comparison matrix.

    ``ccm`` has one row per target character and one column per source
    character; entries are 0 for equal characters, non-zero otherwise
    (Figure 10 binarises before calling EditDistance).  Degenerate shapes
    encode empty strings: a (0, p) matrix means an empty target, so the
    distance is the source length, and vice versa.
    """
    if ccm.ndim != 2:
        raise ConfigurationError(f"CCM must be 2-D, got shape {ccm.shape}")
    rows, cols = ccm.shape
    if rows == 0:
        return cols
    if cols == 0:
        return rows
    cost = (ccm != 0).astype(np.int64)
    return _dp_edit_distance(cost)


def edit_distances_from_ccms(
    ccms: Sequence[np.ndarray],
    binarize: Callable[[list[int], np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Distances for many CCMs, batching equal-shaped DPs together.

    Output order matches the input order.  CCMs of one shape are stacked
    in chunks of at most :func:`batch_chunk` matrices and each chunk is
    solved by one DP, so ``k`` uniform-length pairs cost ``rows`` numpy
    row updates total instead of ``k * rows``.  ``binarize(positions,
    stack)``, when given, maps a chunk's ``(k, rows, cols)`` stack of the
    CCMs at ``positions`` to 0/1 substitution costs (the third party's
    Figure 10 unmasking); by default any non-zero entry costs 1.  Empty
    sides never reach it: their distance is the other side's length.
    """
    out = np.empty(len(ccms), dtype=np.int64)
    groups: dict[tuple[int, ...], list[int]] = {}
    for position, ccm in enumerate(ccms):
        if ccm.ndim != 2:
            raise ConfigurationError(f"CCM must be 2-D, got shape {ccm.shape}")
        groups.setdefault(ccm.shape, []).append(position)
    for (rows, cols), positions in groups.items():
        if rows == 0 or cols == 0:
            out[positions] = rows + cols
            continue
        chunk = batch_chunk(rows, cols)
        for start in range(0, len(positions), chunk):
            part = positions[start : start + chunk]
            stack = np.concatenate([ccms[p] for p in part]).reshape(len(part), rows, cols)
            costs = stack != 0 if binarize is None else binarize(part, stack)
            out[part] = _dp_edit_distance_batch(costs)
    return out


def pairwise_edit_distances(strings: Sequence[str]) -> np.ndarray:
    """Condensed pairwise Levenshtein distances (Figure 2 order).

    The array twin of ``local_dissimilarity(strings, edit_distance)``:
    pair ``(i, j)`` with ``i > j`` lands at position ``i*(i-1)//2 + j``.
    Cost matrices of equal shape are batched through one stacked DP.
    """
    return pairwise_edit_distance_rows(strings, 0)


def pairwise_edit_distance_rows(strings: Sequence[str], first_row: int) -> np.ndarray:
    """Condensed rows ``first_row..n-1`` of the pairwise distance matrix.

    The strict-lower-triangle entries of rows ``>= first_row`` occupy one
    contiguous condensed segment (positions ``condensed_size(first_row)``
    onward), which is exactly the *delta tail* a data holder ships when
    ``n - first_row`` records arrive: distances of each new string to
    every earlier string, in Figure 2 order, without re-solving the
    O(first_row^2) DPs of the already-shipped triangle.
    """
    strings = list(strings)
    n = len(strings)
    if not 0 <= first_row <= n:
        raise ConfigurationError(
            f"first_row {first_row} out of range for {n} strings"
        )
    codes = [
        np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32) for s in strings
    ]
    start = max(first_row, 1)
    tail_offset = start * (start - 1) // 2
    out = np.zeros(n * (n - 1) // 2 - tail_offset, dtype=np.int64)
    # Group pair *indices* by cost-matrix shape; cost matrices themselves
    # are materialised per bounded chunk to keep peak memory flat.
    groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    position = 0
    for i in range(start, n):
        for j in range(i):
            source, target = strings[i], strings[j]
            if source == target:
                pass  # out already 0
            elif not source:
                out[position] = len(target)
            elif not target:
                out[position] = len(source)
            else:
                groups.setdefault((len(target), len(source)), []).append(
                    (position, i, j)
                )
            position += 1
    for (rows, cols), pairs in groups.items():
        chunk = batch_chunk(rows, cols)
        for start in range(0, len(pairs), chunk):
            part = pairs[start : start + chunk]
            stack = np.stack(
                [
                    np.not_equal.outer(codes[j], codes[i])
                    for _pos, i, j in part
                ]
            )
            out[np.asarray([pos for pos, _i, _j in part])] = (
                _dp_edit_distance_batch(stack)
            )
    return out
