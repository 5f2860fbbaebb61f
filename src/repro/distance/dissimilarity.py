"""The object-by-object dissimilarity matrix (paper Figure 2).

"An m x m dissimilarity matrix stores the distance or dissimilarity
between each pair of objects ... the distance of an object to itself is 0
... only the entries below the diagonal are filled, since
d[i][j] = d[j][i]."

:class:`DissimilarityMatrix` stores exactly that strict lower triangle in
condensed layout -- half the memory of a square matrix and an honest
representation of what the third party actually materialises.  Pair
``(i, j)`` with ``i > j`` lives at position ``i*(i-1)/2 + j``, i.e.
row-major over Figure 2's filled entries.

Storage is delegated to a :class:`~repro.distance.store.CondensedStore`
backend (in-memory float64 by default, memory-mapped row-block shards
for out-of-core scale).  Every operation has one implementation: it
streams block-wise through the store's ``read``/``write``/``gather``/
``scatter``.  The in-memory store is a single block, so there the loop
runs once over the whole vector, and no consumer algorithm changes per
backend.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.distance.store import (
    CondensedStore,
    InMemoryStore,
    StoreSpec,
    open_store,
)
from repro.exceptions import ClusteringError, ConfigurationError


# -- condensed primitives ------------------------------------------------------
#
# Free functions over the condensed layout (pair (i, j), i > j, at position
# i*(i-1)/2 + j).  The clustering layer runs directly on condensed vectors
# through these, so the O(n^2)-memory algorithms never materialise a square.
# Value-carrying primitives take a CondensedStore; a plain float64 ndarray
# is wrapped in an InMemoryStore (in place, no copy) on entry.


def _as_store(values: np.ndarray | CondensedStore) -> CondensedStore:
    if isinstance(values, CondensedStore):
        return values
    return InMemoryStore(values)


def condensed_size(num_objects: int) -> int:
    """Length of the condensed vector for ``num_objects`` objects."""
    return num_objects * (num_objects - 1) // 2


def condensed_position(i, j):
    """Condensed position(s) of pair(s) ``(i, j)``; order-insensitive.

    Accepts scalars or broadcastable integer arrays; pairs with ``i == j``
    have no condensed slot and must not be passed.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    upper = np.maximum(i, j)
    lower = np.minimum(i, j)
    return upper * (upper - 1) // 2 + lower


def condensed_unravel(positions) -> tuple[np.ndarray, np.ndarray]:
    """Pair indices ``(i, j)``, ``i > j``, of condensed position(s).

    The inverse of :func:`condensed_position` for arbitrary positions
    (the ties of :func:`condensed_argmin`, say): a float sqrt solve with
    an integer correction pass, exact at any position a float64 sqrt can
    land within one row of (guarded both ways).  Contiguous spans use
    the cheaper :func:`condensed_span_indices`.
    """
    positions = np.asarray(positions, dtype=np.int64)
    rows = (1 + np.sqrt(1 + 8 * positions.astype(np.float64))) // 2
    rows = rows.astype(np.int64)
    # Guard against float rounding at huge positions.
    rows[rows * (rows - 1) // 2 > positions] -= 1
    rows[(rows + 1) * rows // 2 <= positions] += 1
    cols = positions - rows * (rows - 1) // 2
    return rows, cols


def condensed_offsets(num_objects: int) -> np.ndarray:
    """Row-start offsets: ``offsets[i]`` is the position of pair (i, 0)."""
    rows = np.arange(num_objects, dtype=np.int64)
    return rows * (rows - 1) // 2


def condensed_row_positions(
    index: int, num_objects: int, offsets: np.ndarray | None = None
) -> np.ndarray:
    """Condensed positions of row ``index`` against every other object.

    Returns a length-``num_objects`` int64 array where entry ``k`` is the
    position of pair ``(index, k)``; the diagonal entry (``k == index``,
    which has no condensed slot) is set to ``-1``.  ``offsets`` may be the
    precomputed :func:`condensed_offsets` to amortise repeated calls.
    """
    if offsets is None:
        offsets = condensed_offsets(num_objects)
    pos = np.empty(num_objects, dtype=np.int64)
    pos[:index] = offsets[index] + np.arange(index, dtype=np.int64)
    pos[index] = -1
    pos[index + 1 :] = offsets[index + 1 :] + index
    return pos


def condensed_row_gather(
    values: np.ndarray | CondensedStore,
    index: int,
    num_objects: int,
    offsets: np.ndarray | None = None,
    diagonal: float = 0.0,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Row ``index`` of the square matrix, read straight off the condensed
    vector: a contiguous slice below the diagonal plus a strided gather
    above it.  The diagonal entry is filled with ``diagonal``.

    Hot loops (the NN-chain clustering path) amortise allocation by
    passing a preallocated ``out`` (length ``num_objects``, the row) and
    ``scratch`` (length ``num_objects``, int64, workspace for the
    above-diagonal gather positions).  The below-diagonal part is one
    contiguous store read and the tail one ascending grouped gather.
    """
    store = _as_store(values)
    if offsets is None:
        offsets = condensed_offsets(num_objects)
    if out is None:
        out = np.empty(num_objects, dtype=np.float64)
    start = int(offsets[index])
    out[:index] = store.read(start, start + index)
    out[index] = diagonal
    if index + 1 < num_objects:
        if scratch is None:
            positions = offsets[index + 1 :] + index
        else:
            positions = scratch[: num_objects - index - 1]
            np.add(offsets[index + 1 :], index, out=positions)
        store.gather(positions, out=out[index + 1 :])
    return out


def condensed_row_scatter(
    values: np.ndarray | CondensedStore,
    index: int,
    num_objects: int,
    row: np.ndarray,
    where: np.ndarray | None = None,
    offsets: np.ndarray | None = None,
) -> None:
    """Write ``row`` (length ``num_objects``) back into row ``index`` of the
    condensed vector, optionally restricted to a boolean ``where`` mask.
    The diagonal entry is ignored."""
    pos = condensed_row_positions(index, num_objects, offsets)
    if where is None:
        where = np.ones(num_objects, dtype=bool)
    mask = where.copy()
    mask[index] = False
    _as_store(values).scatter(pos[mask], row[mask])


def condensed_argmin(
    values: np.ndarray | CondensedStore, num_objects: int
) -> tuple[int, int]:
    """Pair ``(i, j)``, ``i > j``, holding the smallest condensed value.

    Ties break exactly like ``np.argmin`` over the corresponding square
    matrix: the smallest ``(min(i, j), max(i, j))`` in lexicographic order
    -- the rule the seed agglomerative loop used, preserved so condensed
    consumers stay merge-for-merge deterministic.  The scan streams
    block-wise: a min pass, then a tie-collection pass at the exact
    minimum, then the tie-break -- so the selected pair does not depend
    on the store's block size.
    """
    store = _as_store(values)
    if store.size == 0:
        raise ClusteringError("condensed argmin needs at least one pair")
    minimum = np.inf
    for start, stop in store.block_ranges():
        minimum = min(minimum, float(store.read(start, stop).min()))
    tie_spans = []
    for start, stop in store.block_ranges():
        local = np.flatnonzero(store.read(start, stop) == minimum)
        if local.size:
            tie_spans.append(local + start)
    ties = np.concatenate(tie_spans)
    rows, cols = condensed_unravel(ties)
    best = np.lexsort((rows, cols))[0]
    return int(rows[best]), int(cols[best])


#: Byte budget for the duplicate scan's transient working set (the tie
#: detector's sort buffer plus its read and hash temporaries).
_DUPLICATE_SCAN_BYTES = 512 << 20
#: Odd 64-bit multiplier spreading IEEE bit patterns across groups.
_DUPLICATE_HASH = np.uint64(0x9E3779B97F4A7C15)


def condensed_has_duplicates(
    values: np.ndarray | CondensedStore,
    budget_bytes: int = _DUPLICATE_SCAN_BYTES,
    squared: bool = False,
) -> bool:
    """Whether any two condensed entries hold the same value (the same
    square, with ``squared``).

    Exact whatever the block layout, in temporary memory bounded by
    ``budget_bytes`` whatever the block size.  A vector whose copy fits
    half the budget is copied whole, sorted and adjacent-compared.  A
    larger one is partitioned by a hash of each value's
    (zero-canonicalised) IEEE bit pattern into groups of about half the
    budget, each sorted on its own: identical values share a bit
    pattern, hence a group, so no duplicate can hide across groups or
    blocks.  The vector is read, and each sorted group compared, in
    spans of a small fraction of the budget, so one large block never
    lifts the bound.  The linkage layer's tie check uses this, keeping
    NN-chain vs cached-argmin path selection identical across backends.
    """
    store = _as_store(values)
    size = store.size
    if size < 2:
        return False
    groups = -(-(2 * 8 * size) // budget_bytes)
    span = max(1, budget_bytes // 1024)

    def spans() -> Iterator[np.ndarray]:
        for start in range(0, size, span):
            chunk = store.read(start, min(size, start + span))
            yield np.square(chunk) if squared else chunk

    def group_of(chunk: np.ndarray) -> np.ndarray:
        # ``+ 0.0`` canonicalises -0.0 to +0.0 (equal values, distinct
        # bit patterns).  The hash is the product's top bits, which
        # depend on every bit of the pattern: values whose patterns end
        # in zeros (small integers, short binary fractions) still spread.
        mixed = ((chunk + 0.0).view(np.uint64) * _DUPLICATE_HASH) >> np.uint64(32)
        return (mixed * np.uint64(groups)) >> np.uint64(32)

    if groups == 1:
        counts = np.array([size])
    else:
        counts = np.zeros(groups, dtype=np.int64)
        for chunk in spans():
            # A value repeated often enough to swamp one group repeats
            # within some span, so the group sizes below stay bounded.
            local = np.sort(chunk)
            if np.any(local[1:] == local[:-1]):
                return True
            counts += np.bincount(group_of(chunk).astype(np.intp), minlength=groups)

    def group_has_duplicates(group: int) -> bool:
        merged = np.empty(int(counts[group]), dtype=np.float64)
        filled = 0
        for chunk in spans():
            if groups > 1:
                chunk = chunk[group_of(chunk) == np.uint64(group)]
            merged[filled : filled + chunk.size] = chunk
            filled += chunk.size
        merged.sort()
        windows = (merged[at : at + span + 1] for at in range(0, merged.size - 1, span))
        return any(np.any(window[1:] == window[:-1]) for window in windows)

    # One group's buffer at a time: each is freed before the next.
    return any(group_has_duplicates(group) for group in range(groups))


def condensed_pair_indices(num_objects: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (I, J) with ``I[p] > J[p]`` for every condensed position
    ``p``, in layout order (row-major over the strict lower triangle)."""
    return np.tril_indices(num_objects, -1)


def condensed_tail_indices(
    old_size: int, new_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pair indices of the condensed *tail*: rows ``old_size..new_size-1``
    against every earlier row, in layout order.

    This is :func:`condensed_pair_indices` restricted to the segment a
    grown site's delta covers, built directly at O(tail) cost -- the
    incremental path must never pay O(new_size^2) for a small batch.
    """
    rows = np.arange(old_size, new_size, dtype=np.int64)
    i = np.repeat(rows, rows)
    starts = np.cumsum(rows) - rows
    j = np.arange(i.size, dtype=np.int64) - np.repeat(starts, rows)
    return i, j


def condensed_span_indices(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair indices ``(i, j)`` of the condensed positions ``[start, stop)``.

    How the block-wise streams recover pair structure.  A span covers
    whole rows of the triangle except possibly its first and last, so
    this is :func:`condensed_tail_indices` over the covered rows with
    the two partial ends trimmed: integer arithmetic at O(span + rows)
    cost, where :func:`condensed_unravel` pays a float square root per
    position.
    """
    if stop <= start:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    first = _row_of(start)
    i, j = condensed_tail_indices(first, _row_of(stop - 1) + 1)
    skip = start - first * (first - 1) // 2
    return i[skip : skip + stop - start], j[skip : skip + stop - start]


def _row_of(position: int) -> int:
    """Row ``i`` of the pair at one condensed position (exact integer solve)."""
    return (1 + math.isqrt(8 * position + 1)) // 2


def same_label_mask(labels: Sequence[int]) -> np.ndarray:
    """Condensed boolean mask: True where a pair's objects share a label."""
    arr = np.asarray(labels)
    i, j = condensed_pair_indices(arr.shape[0])
    return arr[i] == arr[j]


#: Row-block budget (float64 cells) for the chunked triangle-inequality
#: scan: ~1 MiB per block keeps peak memory far below the n^2 square.
_TRIANGLE_CHUNK_CELLS = 1 << 17


class DissimilarityMatrix:
    """Symmetric, zero-diagonal distance matrix in condensed storage.

    ``store_spec`` picks the storage backend; ``None`` means the
    historical in-memory float64 array.  The ``REPRO_STORE_BACKEND``
    environment override is deliberately *not* consulted here: it flows
    in through :meth:`repro.core.config.ProtocolSuiteConfig.store_spec`,
    so it re-points the session-owned matrices (the third party's
    attribute and merged matrices -- the ones that scale with n) while
    transient construction-time matrices (the holders' local matrices,
    for one) stay in memory: giving every short-lived matrix its own
    shard directory would cost file creation and page faults and save
    no memory.  Matrices derived from an existing one (copies,
    normalisations, submatrices, grown or shrunk epochs) inherit their
    source's backend.
    """

    def __init__(
        self,
        num_objects: int,
        condensed: np.ndarray | None = None,
        *,
        store_spec: StoreSpec | None = None,
    ) -> None:
        if num_objects < 1:
            raise ConfigurationError(
                f"dissimilarity matrix needs >= 1 object, got {num_objects}"
            )
        expected = condensed_size(num_objects)
        spec = store_spec if store_spec is not None else StoreSpec()
        if condensed is None:
            self._store = open_store(spec, expected)
        else:
            condensed = np.asarray(condensed, dtype=np.float64)
            if condensed.shape != (expected,):
                raise ConfigurationError(
                    f"condensed vector must have length {expected}, got {condensed.shape}"
                )
            if np.any(condensed < 0):
                raise ConfigurationError("distances must be non-negative")
            if np.any(~np.isfinite(condensed)):
                raise ConfigurationError("distances must be finite")
            self._store = open_store(spec, expected, values=condensed)
        self._n = num_objects

    # -- construction ------------------------------------------------------

    @classmethod
    def _adopt(cls, num_objects: int, store: CondensedStore) -> "DissimilarityMatrix":
        """Wrap an existing backend store (internal; invariants already hold)."""
        matrix = cls.__new__(cls)
        matrix._n = num_objects
        matrix._store = store
        return matrix

    @classmethod
    def zeros(
        cls, num_objects: int, store_spec: StoreSpec | None = None
    ) -> "DissimilarityMatrix":
        """All-zero matrix, ready to be filled."""
        return cls(num_objects, store_spec=store_spec)

    @classmethod
    def from_square(
        cls,
        square: np.ndarray,
        atol: float = 1e-9,
        store_spec: StoreSpec | None = None,
    ) -> "DissimilarityMatrix":
        """Validate and condense a full square distance matrix.

        The strict lower triangle is lifted with one fancy-indexing read
        and routed through the validating constructor, so negative or
        non-finite entries are rejected exactly like any other
        construction path.
        """
        square = np.asarray(square, dtype=np.float64)
        if square.ndim != 2 or square.shape[0] != square.shape[1]:
            raise ConfigurationError(f"square matrix expected, got shape {square.shape}")
        if not np.allclose(square, square.T, atol=atol):
            raise ConfigurationError("matrix is not symmetric")
        if not np.allclose(np.diag(square), 0.0, atol=atol):
            raise ConfigurationError("diagonal must be zero")
        n = square.shape[0]
        return cls(n, square[np.tril_indices(n, -1)], store_spec=store_spec)

    @classmethod
    def from_pairwise(
        cls,
        num_objects: int,
        distance: Callable[[int, int], float],
        store_spec: StoreSpec | None = None,
    ) -> "DissimilarityMatrix":
        """Fill by evaluating ``distance(i, j)`` over the lower triangle.

        This is the paper's Figure 12 loop shape; the callable receives
        global positions ``i > j``.
        """
        values = np.zeros(condensed_size(num_objects), dtype=np.float64)
        pos = 0
        for i in range(1, num_objects):
            for j in range(i):
                value = float(distance(i, j))
                if value < 0 or not np.isfinite(value):
                    raise ConfigurationError(
                        f"distance({i}, {j}) returned invalid value {value}"
                    )
                values[pos] = value
                pos += 1
        return cls(num_objects, values, store_spec=store_spec)

    # -- indexing ------------------------------------------------------------

    @property
    def num_objects(self) -> int:
        return self._n

    @property
    def store(self) -> CondensedStore:
        """The storage backend, which algorithms stream block-wise."""
        return self._store

    @property
    def store_kind(self) -> str:
        """Backend name (``memory`` | ``memmap``)."""
        return self._store.kind

    @property
    def condensed(self) -> np.ndarray:
        """The strict lower triangle, Figure 2 order (read-only).

        A view of the storage on the in-memory backend; the memmap
        backend materialises the whole vector, so large-scale consumers
        should stream through :meth:`read_condensed` / :attr:`store`
        instead.
        """
        return self._store.read(0, condensed_size(self._n))

    def read_condensed(self, start: int, stop: int) -> np.ndarray:
        """One condensed span ``[start, stop)``, read-only (see
        :meth:`~repro.distance.store.CondensedStore.read`)."""
        if not 0 <= start <= stop <= condensed_size(self._n):
            raise ConfigurationError(
                f"condensed span [{start}, {stop}) out of range"
            )
        return self._store.read(start, stop)

    def write_condensed(self, start: int, values: np.ndarray) -> None:
        """Overwrite one condensed span, with constructor-grade validation.

        The streaming construction hook: synthetic-scale builders (the
        storage probe, benchmarks) fill a matrix block-by-block without
        ever materialising the whole triangle.
        """
        values = np.asarray(values, dtype=np.float64)
        if not 0 <= start <= start + values.size <= condensed_size(self._n):
            raise ConfigurationError(
                f"condensed span [{start}, {start + values.size}) out of range"
            )
        if np.any(values < 0):
            raise ConfigurationError("distances must be non-negative")
        if np.any(~np.isfinite(values)):
            raise ConfigurationError("distances must be finite")
        self._store.write(start, values)

    @staticmethod
    def _position(i: int, j: int) -> int:
        return i * (i - 1) // 2 + j

    def _check_pair(self, i: int, j: int) -> tuple[int, int]:
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise ConfigurationError(
                f"pair ({i}, {j}) out of range for {self._n} objects"
            )
        if i < j:
            i, j = j, i
        return i, j

    def __getitem__(self, pair: tuple[int, int]) -> float:
        i, j = self._check_pair(*pair)
        if i == j:
            return 0.0
        position = self._position(i, j)
        return float(self._store.read(position, position + 1)[0])

    def __setitem__(self, pair: tuple[int, int], value: float) -> None:
        i, j = self._check_pair(*pair)
        if i == j:
            if value != 0:
                raise ConfigurationError("diagonal entries are fixed at zero")
            return
        if value < 0 or not np.isfinite(value):
            raise ConfigurationError(f"invalid distance value {value}")
        self._store.write(self._position(i, j), np.array([value], dtype=np.float64))

    def set_block(self, rows: Sequence[int], cols: Sequence[int], block: np.ndarray) -> None:
        """Assign a rectangular cross-site block.

        The third party uses this to drop a comparison-protocol output
        (a ``len(rows) x len(cols)`` matrix of distances) into the global
        matrix, as one fancy-indexed write over the condensed triangle.
        Row/column index sets must each be duplicate-free (a duplicate
        would silently let a later block entry overwrite an earlier one)
        and mutually disjoint -- cross-site blocks never touch the
        diagonal.
        """
        rows = list(rows)
        cols = list(cols)
        block = np.asarray(block, dtype=np.float64)
        if block.shape != (len(rows), len(cols)):
            raise ConfigurationError(
                f"block shape {block.shape} != ({len(rows)}, {len(cols)})"
            )
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ConfigurationError("block row/column indices must be unique")
        if set(rows) & set(cols):
            raise ConfigurationError("cross block must not intersect the diagonal")
        if block.size == 0:
            return
        row_idx = np.asarray(rows, dtype=np.int64)
        col_idx = np.asarray(cols, dtype=np.int64)
        for name, idx in (("row", row_idx), ("column", col_idx)):
            if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= self._n):
                raise ConfigurationError(
                    f"block {name} indices out of range for {self._n} objects"
                )
        if np.any(block < 0) or np.any(~np.isfinite(block)):
            raise ConfigurationError("block distances must be non-negative and finite")
        positions = condensed_position(row_idx[:, None], col_idx[None, :])
        self._store.scatter(positions, block)

    def cross_block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Read a rectangular block as one fancy-indexed condensed gather.

        The read counterpart of :meth:`set_block`: applications (record
        linkage on the cross-site block, for one) pull a
        ``len(rows) x len(cols)`` distance block without materialising the
        square matrix or looping per entry.  Unlike :meth:`set_block`, the
        index sets may intersect -- diagonal hits read as 0.
        """
        row_idx = np.asarray(list(rows), dtype=np.int64)
        col_idx = np.asarray(list(cols), dtype=np.int64)
        for name, idx in (("row", row_idx), ("column", col_idx)):
            if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= self._n):
                raise ConfigurationError(
                    f"block {name} indices out of range for {self._n} objects"
                )
        block = np.zeros((row_idx.size, col_idx.size), dtype=np.float64)
        if block.size == 0:
            return block
        off_diagonal = row_idx[:, None] != col_idx[None, :]
        positions = condensed_position(row_idx[:, None], col_idx[None, :])
        block[off_diagonal] = self._store.gather(positions[off_diagonal])
        return block

    # -- whole-matrix operations ----------------------------------------------

    def to_square(self) -> np.ndarray:
        """Full symmetric square matrix (copies)."""
        square = np.zeros((self._n, self._n), dtype=np.float64)
        for start, stop in self._store.block_ranges():
            i, j = condensed_span_indices(start, stop)
            square[i, j] = self._store.read(start, stop)
        return square + square.T

    def to_scipy_condensed(self) -> np.ndarray:
        """Reorder into scipy's condensed format (upper triangle, row-major).

        Used by tests that cross-validate our clustering against
        ``scipy.cluster.hierarchy``.
        """
        i, j = np.triu_indices(self._n, 1)
        return self._store.gather(condensed_position(i, j))

    def max_value(self) -> float:
        """Largest pairwise distance (the Figure 11 normaliser)."""
        if self._store.size == 0:
            return 0.0
        peak = -np.inf
        for start, stop in self._store.block_ranges():
            peak = max(peak, float(self._store.read(start, stop).max()))
        return peak

    def normalized(self) -> "DissimilarityMatrix":
        """Scale into [0, 1] by the maximum distance (Figure 11, step 4).

        An all-zero matrix normalises to itself (all objects identical).
        """
        peak = self.max_value()
        if peak == 0.0:
            return self.copy()
        return self._derived(
            self._n, lambda start, stop: self._store.read(start, stop) / peak
        )

    def submatrix(self, indices: Sequence[int]) -> "DissimilarityMatrix":
        """Restriction to a subset of objects, in the given order."""
        indices = list(indices)
        if len(set(indices)) != len(indices):
            raise ConfigurationError("submatrix indices must be unique")
        if not indices:
            raise ConfigurationError("submatrix needs at least one index")
        idx = np.asarray(indices, dtype=np.int64)
        if int(idx.min()) < 0 or int(idx.max()) >= self._n:
            raise ConfigurationError(
                f"submatrix indices out of range for {self._n} objects"
            )

        def gather(start: int, stop: int) -> np.ndarray:
            a, b = condensed_span_indices(start, stop)
            return self._store.gather(condensed_position(idx[a], idx[b]))

        return self._derived(len(indices), gather)

    def set_submatrix(self, indices: Sequence[int], local: "DissimilarityMatrix") -> None:
        """Scatter a small matrix onto an arbitrary subset of objects.

        The write counterpart of :meth:`submatrix`: ``local``'s pair
        ``(a, b)`` lands on the global pair ``(indices[a], indices[b])``
        with one fancy-indexed condensed write.  The delta-construction
        path uses this to drop new-arrival blocks whose global positions
        are scattered across several sites' regions.  Indices must be
        unique and in range; ``local`` must cover exactly
        ``len(indices)`` objects.
        """
        indices = list(indices)
        if len(set(indices)) != len(indices):
            raise ConfigurationError("submatrix indices must be unique")
        if local.num_objects != len(indices):
            raise ConfigurationError(
                f"matrix covers {local.num_objects} objects, got {len(indices)} indices"
            )
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= self._n):
            raise ConfigurationError(
                f"submatrix indices out of range for {self._n} objects"
            )
        for start, stop in local._store.block_ranges():
            a, b = condensed_span_indices(start, stop)
            self._store.scatter(
                condensed_position(idx[a], idx[b]), local._store.read(start, stop)
            )

    def insert_objects(self, new_positions: Sequence[int]) -> "DissimilarityMatrix":
        """Grown matrix with fresh objects at the given (new-frame) positions.

        ``new_positions`` are the rows the inserted objects occupy in the
        grown matrix; existing objects keep their relative order in the
        remaining rows.  Every pair of surviving objects keeps its exact
        value, copied block by block; every pair touching an inserted
        object starts at 0, to be filled by the delta construction
        (:mod:`repro.core.delta`).

        An old row's columns split into runs that the insertions shift by
        one amount each, so a row moves as a few contiguous slices, and
        slices that continue each other merge into one write.  An ingest
        epoch appends one batch per site, so that is a handful of slices
        per row.
        """
        new_positions = list(new_positions)
        if len(set(new_positions)) != len(new_positions):
            raise ConfigurationError("insert positions must be unique")
        grown = self._n + len(new_positions)
        for position in new_positions:
            if not 0 <= position < grown:
                raise ConfigurationError(
                    f"insert position {position} out of range for {grown} objects"
                )
        if not new_positions:
            return self.copy()
        inserted = np.zeros(grown, dtype=bool)
        inserted[np.asarray(new_positions, dtype=np.int64)] = True
        new_of_old = np.flatnonzero(~inserted).tolist()
        # Old columns where a new shift run starts (after an insertion).
        breaks = [
            j for j in range(1, self._n) if new_of_old[j] != new_of_old[j - 1] + 1
        ]
        out_store = self._store.spawn(condensed_size(grown))
        for start, stop in self._store.block_ranges():
            values = self._store.read(start, stop)
            # The copy being extended: source offset in ``values``,
            # destination position, length.
            src = dst = length = 0
            for i in range(_row_of(start), _row_of(stop - 1) + 1):
                row = i * (i - 1) // 2
                lo, hi = max(start - row, 0), min(stop - row, i)
                upper = new_of_old[i]
                new_row = upper * (upper - 1) // 2
                k = bisect_right(breaks, lo)
                while lo < hi:
                    end = min(hi, breaks[k]) if k < len(breaks) else hi
                    at, to = row + lo - start, new_row + new_of_old[lo]
                    if at == src + length and to == dst + length:
                        length += end - lo
                    else:
                        if length:
                            out_store.write(dst, values[src : src + length])
                        src, dst, length = at, to, end - lo
                    lo = end
                    k += 1
            if length:
                out_store.write(dst, values[src : src + length])
        return DissimilarityMatrix._adopt(grown, out_store)

    def remove_objects(self, positions: Sequence[int]) -> "DissimilarityMatrix":
        """Shrunk matrix without the given objects (surviving order kept).

        The inverse of :meth:`insert_objects`; the condensed shrink is the
        :meth:`submatrix` gather over the surviving positions.
        """
        positions = list(positions)
        if len(set(positions)) != len(positions):
            raise ConfigurationError("removal positions must be unique")
        for position in positions:
            if not 0 <= position < self._n:
                raise ConfigurationError(
                    f"removal position {position} out of range for {self._n} objects"
                )
        keep = np.ones(self._n, dtype=bool)
        if positions:
            keep[np.asarray(positions, dtype=np.int64)] = False
        survivors = np.flatnonzero(keep)
        if survivors.size == 0:
            raise ConfigurationError("cannot remove every object")
        return self.submatrix(survivors.tolist())

    def set_diagonal_block(self, offset: int, local: "DissimilarityMatrix") -> None:
        """Place a (validated) local matrix on the diagonal at ``offset``.

        This is how the third party drops one holder's Figure 12 output
        into the global matrix: the local condensed triangle lands in the
        global condensed triangle with one fancy-indexed write.
        """
        size = local.num_objects
        if offset < 0 or offset + size > self._n:
            raise ConfigurationError(
                f"diagonal block [{offset}, {offset + size}) out of range "
                f"for {self._n} objects"
            )
        for start, stop in local._store.block_ranges():
            i, j = condensed_span_indices(start, stop)
            self._store.scatter(
                condensed_position(i + offset, j + offset),
                local._store.read(start, stop),
            )

    def set_diagonal_delta(
        self, offset: int, old_size: int, new_size: int, tail: np.ndarray
    ) -> None:
        """Patch the *tail* of a diagonal block after a site grew.

        ``tail`` holds the new condensed entries of the site's grown
        local matrix -- rows ``old_size..new_size-1`` against every
        earlier local row, in Figure 2 order (one contiguous condensed
        segment on the holder's side, scattered here into the global
        triangle with one fancy-indexed write).  Entries among the
        site's surviving rows are untouched.
        """
        if not 0 <= old_size <= new_size:
            raise ConfigurationError(
                f"invalid diagonal delta sizes ({old_size}, {new_size})"
            )
        if offset < 0 or offset + new_size > self._n:
            raise ConfigurationError(
                f"diagonal block [{offset}, {offset + new_size}) out of range "
                f"for {self._n} objects"
            )
        tail = np.asarray(tail, dtype=np.float64)
        expected = condensed_size(new_size) - condensed_size(old_size)
        if tail.shape != (expected,):
            raise ConfigurationError(
                f"diagonal delta must have length {expected}, got {tail.shape}"
            )
        if expected == 0:
            return
        if np.any(tail < 0) or np.any(~np.isfinite(tail)):
            raise ConfigurationError("distances must be non-negative and finite")
        i, j = condensed_tail_indices(old_size, new_size)
        self._store.scatter(condensed_position(i + offset, j + offset), tail)

    def copy(self) -> "DissimilarityMatrix":
        return self._derived(
            self._n, lambda start, stop: self._store.read(start, stop).copy()
        )

    def _derived(
        self, num_objects: int, fill: Callable[[int, int], np.ndarray]
    ) -> "DissimilarityMatrix":
        """A new matrix on this one's backend, each span ``[start, stop)``
        of its condensed vector from ``fill(start, stop)`` (see
        :meth:`~repro.distance.store.CondensedStore.spawn_filled`)."""
        return DissimilarityMatrix._adopt(
            num_objects,
            self._store.spawn_filled(condensed_size(num_objects), fill),
        )

    def allclose(self, other: "DissimilarityMatrix", atol: float = 1e-9) -> bool:
        """Entry-wise comparison; the zero-accuracy-loss assertions use this."""
        if self._n != other._n:
            return False
        for start, stop in self._store.block_ranges():
            if not np.allclose(
                self._store.read(start, stop),
                other._store.read(start, stop),
                atol=atol,
            ):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DissimilarityMatrix):
            return NotImplemented
        if self._n != other._n:
            return False
        for start, stop in self._store.block_ranges():
            if not np.array_equal(
                self._store.read(start, stop), other._store.read(start, stop)
            ):
                return False
        return True

    def mean_value(self) -> float:
        """Average pairwise distance (quality reporting)."""
        if self._store.size == 0:
            return 0.0
        total = 0.0
        for start, stop in self._store.block_ranges():
            total += float(self._store.read(start, stop).sum())
        return total / self._store.size

    def check_triangle_inequality(
        self, atol: float = 1e-9, chunk_rows: int | None = None
    ) -> bool:
        """Whether d(i,k) <= d(i,j) + d(j,k) holds for all triples.

        True for the per-attribute metrics the paper uses; weighted merges
        of metrics stay metrics, so this doubles as an integration check.

        The scan is chunked over the intermediate vertex ``j`` (and, per
        ``j``-chunk, over rows ``i``): only two ``chunk_rows x n`` row
        blocks are ever materialised -- never the O(n^2) square -- and the
        first violating ``(j, i)`` block returns immediately, so a
        non-metric matrix with an early violation costs O(chunk * n)
        instead of a full O(n^3) sweep over a square copy.  Row gathers
        go through :func:`condensed_row_gather`, which streams off the
        store, so the bound holds on every backend.
        """
        n = self._n
        if n < 3:
            return True
        if chunk_rows is None:
            chunk_rows = min(n, max(1, _TRIANGLE_CHUNK_CELLS // n))
        chunk_rows = max(1, min(chunk_rows, n))
        offsets = condensed_offsets(n)
        scratch = np.empty(n, dtype=np.int64)
        rows_j = np.empty((chunk_rows, n), dtype=np.float64)
        rows_i = np.empty((chunk_rows, n), dtype=np.float64)
        for j_start in range(0, n, chunk_rows):
            j_stop = min(n, j_start + chunk_rows)
            block_j = rows_j[: j_stop - j_start]
            for offset, j in enumerate(range(j_start, j_stop)):
                condensed_row_gather(
                    self._store, j, n, offsets, out=block_j[offset], scratch=scratch
                )
            for i_start in range(0, n, chunk_rows):
                i_stop = min(n, i_start + chunk_rows)
                if i_start == j_start:
                    block_i = block_j
                else:
                    block_i = rows_i[: i_stop - i_start]
                    for offset, i in enumerate(range(i_start, i_stop)):
                        condensed_row_gather(
                            self._store, i, n, offsets, out=block_i[offset], scratch=scratch
                        )
                for offset in range(j_stop - j_start):
                    via_j = (
                        block_j[offset, i_start:i_stop][:, None]
                        + block_j[offset][None, :]
                    )
                    if np.any(block_i[: i_stop - i_start] > via_j + atol):
                        return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DissimilarityMatrix(n={self._n}, max={self.max_value():.4g})"
