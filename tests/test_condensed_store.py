"""Backend-conformance harness for the condensed storage layer.

Every :class:`~repro.distance.store.CondensedStore` backend must behave
identically through the store contract and through every
:class:`~repro.distance.dissimilarity.DissimilarityMatrix` operation.
Both backends run the same block-streamed matrix code, so neither can
be the other's reference: the harness computes every expected result
with plain numpy expressions on a square matrix (the oracle below) and
holds each backend to it exactly -- which also makes ``memory`` and
``memmap`` bit-identical to each other.  PAM's square evaluator (one
block, or one candidate block of objects) and its panel evaluator
(several of both) are held to the seed PAM and to each other.  The
linkage tie check is held exact on ties planted across blocks.  A
Hypothesis property drives random operation *sequences* through the
oracle and both backends, so cross-operation interactions (grow,
shrink, overwrite, rescale) are covered, not just single calls.
Matrices of one and two objects put one-block stores of size 0 and 1
through every primitive.

The memmap backend additionally gets white-box units for what makes it
a backend at all: the LRU cache bound, dirty writeback through
eviction, the one-block gather/scatter path, shard-directory
persistence/reopen, metadata validation, ownership cleanup and
close-time flushing.  The RSS regression test at the bottom runs a real
n=20,000 PAM workload in a subprocess and asserts the peak RSS a full
in-memory triangle could never meet.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import kmedoids as kmedoids_module
from repro.clustering.kmedoids import k_medoids
from repro.clustering.linkage import agglomerative
from repro.clustering.quality import average_square_distance, dunn_index
from repro.clustering.reference import reference_agglomerative, reference_k_medoids
from repro.core.config import ProtocolSuiteConfig
from repro.distance.dissimilarity import (
    DissimilarityMatrix,
    condensed_argmin,
    condensed_has_duplicates,
    condensed_row_gather,
    condensed_row_scatter,
    condensed_size,
)
from repro.distance.merge import merge_weighted
from repro.distance.store import (
    DEFAULT_BLOCK_ENTRIES,
    ENV_BACKEND,
    InMemoryStore,
    MemmapStore,
    StoreSpec,
    default_store_spec,
    open_store,
    spec_of,
    with_backend,
)
from repro.exceptions import ConfigurationError
from repro.types import LinkageMethod

BACKENDS = ("memory", "memmap")

#: Tiny blocks so every memmap case crosses shard boundaries, and a
#: cache of four blocks so eviction/writeback runs constantly.
SMALL_BLOCK = 32
SMALL_CACHE = 4 * SMALL_BLOCK * 8


def small_spec(backend: str) -> StoreSpec:
    return StoreSpec(
        backend=backend, block_entries=SMALL_BLOCK, cache_bytes=SMALL_CACHE
    )


def fill_values(size: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 10.0, size=size)


# -- store-contract conformance ---------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreContract:
    def test_roundtrip_across_block_boundaries(self, backend):
        size = 5 * SMALL_BLOCK + 11
        values = fill_values(size)
        store = open_store(small_spec(backend), size, values)
        # Whole-store, single-block, and straddling reads all agree.
        np.testing.assert_array_equal(store.read(0, size), values)
        np.testing.assert_array_equal(
            store.read(SMALL_BLOCK - 5, 3 * SMALL_BLOCK + 7),
            values[SMALL_BLOCK - 5 : 3 * SMALL_BLOCK + 7],
        )
        assert store.read(17, 17).shape == (0,)
        store.close()

    def test_write_then_read_spans(self, backend):
        size = 4 * SMALL_BLOCK
        store = open_store(small_spec(backend), size)
        np.testing.assert_array_equal(store.read(0, size), np.zeros(size))
        patch = fill_values(2 * SMALL_BLOCK + 9, seed=11)
        store.write(SMALL_BLOCK - 4, patch)
        expected = np.zeros(size)
        expected[SMALL_BLOCK - 4 : SMALL_BLOCK - 4 + patch.size] = patch
        np.testing.assert_array_equal(store.read(0, size), expected)
        store.close()

    def test_gather_scatter_unsorted_positions(self, backend):
        size = 6 * SMALL_BLOCK
        values = fill_values(size, seed=3)
        store = open_store(small_spec(backend), size, values.copy())
        rng = np.random.default_rng(5)
        # Unsorted, block-hopping, with repeats: the access pattern the
        # NN-chain tail gathers produce.
        positions = rng.integers(0, size, size=4 * SMALL_BLOCK, dtype=np.int64)
        expected = values[positions]
        np.testing.assert_array_equal(store.gather(positions), expected)
        out = np.empty(positions.size, dtype=np.float64)
        result = store.gather(positions, out=out)
        assert result is out
        np.testing.assert_array_equal(out, expected)

        unique = np.unique(positions)[::-1].copy()  # descending: not block order
        replacement = fill_values(unique.size, seed=13)
        store.scatter(unique, replacement)
        values[unique] = replacement
        np.testing.assert_array_equal(store.read(0, size), values)
        store.close()

    def test_reads_are_read_only(self, backend):
        store = open_store(small_spec(backend), 3 * SMALL_BLOCK, fill_values(96))
        for span in (store.read(0, store.size), store.read(5, 40)):
            with pytest.raises(ValueError):
                span[0] = 1.0
        store.close()

    def test_spawn_is_zeroed_sibling(self, backend):
        store = open_store(small_spec(backend), 3 * SMALL_BLOCK)
        store.write(0, fill_values(3 * SMALL_BLOCK))
        sibling = store.spawn(2 * SMALL_BLOCK + 5)
        assert sibling.kind == store.kind
        assert sibling.size == 2 * SMALL_BLOCK + 5
        np.testing.assert_array_equal(
            sibling.read(0, sibling.size), np.zeros(sibling.size)
        )
        sibling.close()
        store.close()

    def test_spawn_filled_holds_fill(self, backend):
        store = open_store(small_spec(backend), SMALL_BLOCK)
        spans = []

        def fill(start, stop):
            spans.append((start, stop))
            return np.arange(start, stop, dtype=np.float64) / 4.0

        sibling = store.spawn_filled(2 * SMALL_BLOCK + 3, fill)
        assert sibling.kind == store.kind
        np.testing.assert_array_equal(
            sibling.read(0, sibling.size), np.arange(sibling.size) / 4.0
        )
        assert spans == list(sibling.block_ranges())
        sibling.close()
        store.close()

    def test_block_ranges_tile_the_store(self, backend):
        for size in (0, 1, SMALL_BLOCK, 3 * SMALL_BLOCK + 7):
            store = open_store(small_spec(backend), size)
            assert store.block_entries >= 1
            spans = list(store.block_ranges())
            if size == 0:
                assert spans == []
            else:
                assert spans[0][0] == 0 and spans[-1][1] == size
            for start, stop in spans:
                assert start < stop
            for (_, prev_stop), (start, _) in zip(spans, spans[1:]):
                assert start == prev_stop
            if backend == "memory":
                # The in-memory store is one block, whatever the spec says.
                assert len(spans) == min(1, size)
            store.close()

    def test_spec_roundtrip(self, backend):
        spec = small_spec(backend)
        store = open_store(spec, SMALL_BLOCK)
        recovered = spec_of(store)
        assert recovered.backend == backend
        if backend != "memory":  # the RAM backend has no knobs to carry
            assert recovered.block_entries == SMALL_BLOCK
        assert with_backend(recovered, "memory").backend == "memory"
        store.close()


# -- the square-matrix oracle ------------------------------------------------
#
# Plain numpy on an n x n array: no code from repro.distance runs here, so
# the oracle cannot share a defect with the backends it judges.


def oracle_square(n: int, condensed: np.ndarray) -> np.ndarray:
    square = np.zeros((n, n))
    square[np.tril_indices(n, -1)] = condensed
    return square + square.T


def oracle_condensed(square: np.ndarray) -> np.ndarray:
    return square[np.tril_indices(square.shape[0], -1)]


def oracle_set(square: np.ndarray, i: int, j: int, value: float) -> None:
    square[i, j] = square[j, i] = value


def oracle_set_block(square: np.ndarray, rows, cols, block: np.ndarray) -> None:
    square[np.ix_(rows, cols)] = block
    square[np.ix_(cols, rows)] = block.T


def oracle_submatrix(square: np.ndarray, indices) -> np.ndarray:
    return square[np.ix_(indices, indices)]


def oracle_remove(square: np.ndarray, drop) -> np.ndarray:
    keep = [k for k in range(square.shape[0]) if k not in set(drop)]
    return oracle_submatrix(square, keep)


def oracle_insert(square: np.ndarray, positions) -> np.ndarray:
    grown = square.shape[0] + len(positions)
    old = [k for k in range(grown) if k not in set(positions)]
    out = np.zeros((grown, grown))
    out[np.ix_(old, old)] = square
    return out


def oracle_normalized(square: np.ndarray) -> np.ndarray:
    peak = square.max() if square.size else 0.0
    return square / peak if peak > 0 else square.copy()


def assert_matches(matrix: DissimilarityMatrix, square: np.ndarray) -> None:
    """The matrix holds exactly the oracle's square."""
    assert matrix.num_objects == square.shape[0]
    np.testing.assert_array_equal(matrix.condensed, oracle_condensed(square))
    np.testing.assert_array_equal(matrix.to_square(), square)


def matrix_and_oracle(n: int, backend: str, seed: int = 23):
    """A random matrix on ``backend`` and its oracle square."""
    condensed = fill_values(condensed_size(n), seed=seed)
    matrix = DissimilarityMatrix(n, condensed.copy(), store_spec=small_spec(backend))
    return matrix, oracle_square(n, condensed)


# -- matrix-level conformance ------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestMatrixConformance:
    def test_construction_and_views(self, backend):
        n = 30
        matrix, square = matrix_and_oracle(n, backend)
        assert matrix.store_kind == backend
        assert_matches(matrix, square)
        np.testing.assert_array_equal(
            matrix.to_scipy_condensed(), square[np.triu_indices(n, 1)]
        )
        for i, j in ((1, 0), (17, 4), (n - 1, n - 2), (5, 29)):
            assert matrix[i, j] == matrix[j, i] == square[i, j]
        assert matrix[3, 3] == 0.0

    def test_scalar_reductions(self, backend):
        n = 30
        matrix, square = matrix_and_oracle(n, backend)
        assert matrix.max_value() == square.max()
        assert matrix.mean_value() == pytest.approx(
            oracle_condensed(square).mean(), rel=1e-12
        )

    def test_setitem_and_blocks(self, backend):
        n = 26
        matrix, square = matrix_and_oracle(n, backend)
        matrix[4, 11] = 3.25
        oracle_set(square, 4, 11, 3.25)
        rows, cols = [0, 7, 19], [2, 5, 9, 23]
        block = np.arange(1.0, 13.0).reshape(3, 4) / 8.0
        matrix.set_block(rows, cols, block)
        oracle_set_block(square, rows, cols, block)
        np.testing.assert_array_equal(
            matrix.cross_block(rows, cols), square[np.ix_(rows, cols)]
        )
        np.testing.assert_array_equal(
            matrix.cross_block([3, 7], [7, 3]), square[np.ix_([3, 7], [7, 3])]
        )
        assert_matches(matrix, square)

    def test_normalized(self, backend):
        n = 24
        matrix, square = matrix_and_oracle(n, backend)
        normalized = matrix.normalized()
        assert_matches(normalized, oracle_normalized(square))
        # The derived matrix inherits the backend.
        assert normalized.store_kind == backend

    def test_submatrix_and_remove(self, backend):
        n = 28
        matrix, square = matrix_and_oracle(n, backend)
        keep = [0, 3, 4, 11, 12, 19, 27, 26]
        assert_matches(matrix.submatrix(keep), oracle_submatrix(square, keep))
        drop = [1, 2, 25]
        assert_matches(matrix.remove_objects(drop), oracle_remove(square, drop))
        assert matrix.submatrix(keep).store_kind == backend

    def test_insert_objects(self, backend):
        n = 22
        matrix, square = matrix_and_oracle(n, backend)
        positions = [0, 5, 23]
        grown = matrix.insert_objects(positions)
        assert_matches(grown, oracle_insert(square, positions))
        assert grown.store_kind == backend

    def test_diagonal_blocks(self, backend):
        n = 20
        matrix, square = matrix_and_oracle(n, backend)
        local_condensed = np.arange(1.0, 16.0) / 4.0
        matrix.set_diagonal_block(7, DissimilarityMatrix(6, local_condensed))
        square[7:13, 7:13] = oracle_square(6, local_condensed)
        assert_matches(matrix, square)
        # Rows 4..5 of the 6-object local block, each against every
        # earlier local row, in Figure 2 order.
        tail = np.arange(1.0, 1.0 + condensed_size(6) - condensed_size(4)) / 8.0
        matrix.set_diagonal_delta(7, 4, 6, tail)
        entries = iter(tail)
        for row in range(4, 6):
            for col in range(row):
                oracle_set(square, 7 + row, 7 + col, next(entries))
        assert_matches(matrix, square)

    def test_set_submatrix(self, backend):
        n = 18
        matrix, square = matrix_and_oracle(n, backend)
        indices = [2, 9, 3, 15, 10]
        local_condensed = np.arange(1.0, 11.0) / 2.0
        matrix.set_submatrix(indices, DissimilarityMatrix(5, local_condensed))
        square[np.ix_(indices, indices)] = oracle_square(5, local_condensed)
        assert_matches(matrix, square)

    def test_copy_and_equality(self, backend):
        n = 16
        matrix, square = matrix_and_oracle(n, backend)
        clone = matrix.copy()
        assert clone.store_kind == backend
        assert clone == matrix and clone.allclose(matrix)
        clone[5, 2] = clone[5, 2] + 1.0
        assert clone != matrix
        assert_matches(matrix, square)

    def test_condensed_round_trip_io(self, backend):
        n = 25
        matrix, square = matrix_and_oracle(n, backend)
        size = condensed_size(n)
        span = matrix.read_condensed(10, size - 10).copy()
        np.testing.assert_array_equal(span, oracle_condensed(square)[10 : size - 10])
        matrix.write_condensed(10, span[::-1])
        expected = oracle_condensed(square)
        expected[10 : size - 10] = span[::-1]
        np.testing.assert_array_equal(matrix.condensed, expected)
        with pytest.raises(ConfigurationError):
            matrix.write_condensed(size - 1, np.zeros(2))
        with pytest.raises(ConfigurationError):
            matrix.write_condensed(0, np.array([-1.0]))

    def test_merge_and_triangle_check(self, backend):
        n = 21
        first, first_square = matrix_and_oracle(n, backend, seed=3)
        second, second_square = matrix_and_oracle(n, backend, seed=4)
        merged = merge_weighted([first, second], [1.0, 3.0])
        assert merged.store_kind == backend
        assert_matches(merged, 0.25 * first_square + 0.75 * second_square)
        via = first_square[:, :, None] + first_square[None, :, :]
        holds = bool(np.all(first_square[:, None, :] <= via + 1e-9))
        assert first.check_triangle_inequality(chunk_rows=4) is holds


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
def test_tiny_matrices_through_every_primitive(backend, n):
    """One and two objects: stores of size 0 and 1, a single block."""
    matrix, square = matrix_and_oracle(n, backend)
    assert list(matrix.store.block_ranges()) == ([] if n == 1 else [(0, 1)])
    assert_matches(matrix, square)
    np.testing.assert_array_equal(
        matrix.to_scipy_condensed(), square[np.triu_indices(n, 1)]
    )
    assert matrix.max_value() == (square.max() if n > 1 else 0.0)
    assert matrix.mean_value() == (square[1, 0] if n > 1 else 0.0)
    assert matrix[n - 1, 0] == square[n - 1, 0]
    assert_matches(matrix.normalized(), oracle_normalized(square))
    assert_matches(matrix.copy(), square)
    assert matrix.copy() == matrix and matrix.allclose(matrix.copy())
    assert_matches(matrix.submatrix([n - 1]), square[n - 1 :, n - 1 :])
    assert_matches(matrix.submatrix(range(n)[::-1]), square[::-1, ::-1])
    for positions in ([0], [n], [0, n + 1]):
        assert_matches(
            matrix.insert_objects(positions), oracle_insert(square, positions)
        )
    if n == 2:
        assert_matches(matrix.remove_objects([0]), oracle_remove(square, [0]))
    np.testing.assert_array_equal(
        matrix.cross_block(range(n), range(n)), square
    )
    assert matrix.check_triangle_inequality()
    assert_matches(merge_weighted([matrix, matrix.copy()]), square)
    row = condensed_row_gather(matrix.store, n - 1, n)
    np.testing.assert_array_equal(row, square[n - 1])
    condensed_row_scatter(matrix.store, n - 1, n, row * 2.0)
    square *= 2.0
    assert_matches(matrix, square)
    assert condensed_has_duplicates(matrix.store) is False
    if n == 2:
        assert condensed_argmin(matrix.store, n) == (1, 0)
    local = DissimilarityMatrix(n, oracle_condensed(square))
    matrix.set_diagonal_block(0, local)
    matrix.set_submatrix(list(range(n)), local)
    matrix.set_diagonal_delta(0, n, n, np.empty(0))
    assert_matches(matrix, square)
    dendrogram = agglomerative(matrix, "average")
    assert [merge.height for merge in dendrogram.merges] == list(
        oracle_condensed(square)
    )
    assert k_medoids(matrix, 1).labels == [0] * n
    assert average_square_distance(matrix, [0] * n) == {
        0: float(np.sum(oracle_condensed(square) ** 2))
    }
    if n == 2:
        assert dunn_index(matrix, [0, 1]) == float("inf")


# -- random operation sequences (Hypothesis) ---------------------------------


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 10_000)),
        st.tuples(st.just("insert"), st.integers(0, 3)),
        st.tuples(st.just("remove"), st.integers(0, 10_000)),
        st.tuples(st.just("block"), st.integers(0, 10_000)),
        st.tuples(st.just("normalize"), st.just(0)),
    ),
    min_size=1,
    max_size=8,
)


def _apply(op, payload, matrix: DissimilarityMatrix) -> DissimilarityMatrix:
    n = matrix.num_objects
    if op == "set" and n >= 2:
        i = 1 + payload % (n - 1)
        j = payload % i
        matrix[i, j] = float(payload % 31) / 4.0
    elif op == "insert" and n <= 24:
        positions = sorted({payload % (n + 1), (payload * 7 + 1) % (n + 2)})
        matrix = matrix.insert_objects(positions)
    elif op == "remove" and n >= 4:
        matrix = matrix.remove_objects([payload % n])
    elif op == "block" and n >= 6:
        rows = [payload % n, (payload + 1) % n]
        cols = [(payload + 2) % n, (payload + 3) % n, (payload + 4) % n]
        if not set(rows) & set(cols):
            block = (np.arange(6.0).reshape(2, 3) + payload % 8) / 8.0
            matrix.set_block(rows, cols, block)
    elif op == "normalize" and matrix.max_value() > 0:
        matrix = matrix.normalized()
    return matrix


def _apply_oracle(op, payload, square: np.ndarray) -> np.ndarray:
    """:func:`_apply`'s operation, as numpy on the oracle square."""
    n = square.shape[0]
    if op == "set" and n >= 2:
        i = 1 + payload % (n - 1)
        oracle_set(square, i, payload % i, float(payload % 31) / 4.0)
    elif op == "insert" and n <= 24:
        positions = sorted({payload % (n + 1), (payload * 7 + 1) % (n + 2)})
        square = oracle_insert(square, positions)
    elif op == "remove" and n >= 4:
        square = oracle_remove(square, [payload % n])
    elif op == "block" and n >= 6:
        rows = [payload % n, (payload + 1) % n]
        cols = [(payload + 2) % n, (payload + 3) % n, (payload + 4) % n]
        if not set(rows) & set(cols):
            block = (np.arange(6.0).reshape(2, 3) + payload % 8) / 8.0
            oracle_set_block(square, rows, cols, block)
    elif op == "normalize" and square.max() > 0:
        square = oracle_normalized(square)
    return square


@given(ops=_OPS, seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_random_operation_sequences_track_reference(ops, seed):
    """Any operation sequence leaves both backends equal to the oracle,
    and to each other, bit for bit."""
    n = 8 + seed % 5
    condensed = np.floor(fill_values(condensed_size(n), seed=seed) * 8.0) / 8.0
    square = oracle_square(n, condensed)
    memory = DissimilarityMatrix(n, condensed.copy(), store_spec=small_spec("memory"))
    memmap = DissimilarityMatrix(n, condensed, store_spec=small_spec("memmap"))
    for op, payload in ops:
        square = _apply_oracle(op, payload, square)
        memory = _apply(op, payload, memory)
        memmap = _apply(op, payload, memmap)
        assert (memory.store_kind, memmap.store_kind) == BACKENDS
        np.testing.assert_array_equal(memmap.condensed, memory.condensed)
        assert_matches(memory, square)


# -- free primitives on a plain array ----------------------------------------


def test_free_primitives_wrap_arrays_in_place():
    """A float64 array passed to a free primitive reads like a store of
    the same values and takes its writes in place (it is wrapped, not
    copied)."""
    n = 9
    condensed = fill_values(condensed_size(n), seed=41)
    square = oracle_square(n, condensed)
    store = open_store(small_spec("memmap"), condensed.size, condensed)
    for values in (condensed, store):
        np.testing.assert_array_equal(condensed_row_gather(values, 4, n), square[4])
        rows, cols = np.tril_indices(n, -1)
        best = int(np.argmin(condensed))
        assert condensed_argmin(values, n) == (rows[best], cols[best])
        assert condensed_has_duplicates(values) is False
    row = square[4] + 1.0
    condensed_row_scatter(condensed, 4, n, row)
    square[4, :] = square[:, 4] = row
    square[4, 4] = 0.0
    np.testing.assert_array_equal(condensed, oracle_condensed(square))
    store.close()


# -- the tie check across blocks ----------------------------------------------


def test_duplicate_check_sees_a_tie_across_blocks():
    """Values 1-10 with position 7 set equal to position 2: in blocks of
    five entries the two copies sit in different blocks."""
    values = np.arange(1.0, 11.0)
    values[7] = values[2]
    for spec in (StoreSpec(), StoreSpec(backend="memmap", block_entries=5)):
        store = open_store(spec, values.size, values)
        assert condensed_has_duplicates(store) is True
        store.close()


def test_duplicate_check_hash_groups_stay_exact_within_the_budget():
    """A budget under the vector's size forces the hash-group scan.  It
    finds a tie planted across blocks (0.0 against -0.0 too), finds none
    among distinct values -- short binary fractions, whose bit patterns
    end in zeros -- and its temporaries stay within the budget even when
    the store is one block."""
    size = 20_000
    budget = 80_000  # bytes: four hash groups
    distinct = (np.random.default_rng(61).permutation(size) + 1) / 8.0
    tied = distinct.copy()
    tied[size - 1] = tied[3]
    zeros = distinct.copy()
    zeros[5], zeros[15_000] = 0.0, -0.0
    for spec in (StoreSpec(), StoreSpec(backend="memmap", block_entries=1000)):
        for values, expected in ((distinct, False), (tied, True), (zeros, True)):
            store = open_store(spec, size, values)
            assert condensed_has_duplicates(store, budget_bytes=budget) is expected
            store.close()
    store = open_store(StoreSpec(), size, distinct)
    tracemalloc.start()
    try:
        assert condensed_has_duplicates(store, budget_bytes=budget) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def test_duplicate_check_of_squares():
    """Ward merges squared distances: distinct values whose squares
    round to the same float are a tie there."""
    values = np.array([3.0, 1e-200, 2.0, 2e-200, 5.0, 7.0])
    assert condensed_has_duplicates(values) is False
    assert condensed_has_duplicates(values, squared=True) is True


@given(
    n=st.integers(4, 8),
    block=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    lowest=st.booleans(),
    picks=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
)
@settings(max_examples=150, deadline=None)
def test_cross_block_tie_keeps_memmap_dendrograms_equal(n, block, seed, lowest, picks):
    """A tie planted across two blocks -- beneath every other distance,
    where it decides the first merge, or anywhere -- leaves small-block
    memmap dendrograms equal to memory ones and to the seed's, for all
    five methods."""
    size = condensed_size(n)
    values = np.random.default_rng(seed).uniform(1.0, 10.0, size)
    p = picks[0] % size
    others = [q for q in range(size) if q // block != p // block]
    q = others[picks[1] % len(others)]
    values[p] = values[q] = values.min() / 2 if lowest else values[p]
    memory = DissimilarityMatrix(n, values)
    memmap = DissimilarityMatrix(
        n,
        values,
        store_spec=StoreSpec(backend="memmap", block_entries=block, cache_bytes=2 * block * 8),
    )
    for method in LinkageMethod:
        expected = reference_agglomerative(memory, method).merges
        assert agglomerative(memory, method).merges == expected
        assert agglomerative(memmap, method).merges == expected
    memmap.store.close()


# -- PAM's two evaluators ----------------------------------------------------

#: The store layouts PAM meets.  A store that is one block (the in-memory
#: store, or a memmap whose block holds the whole triangle) takes the
#: square evaluator; a store of several blocks streams panels once the
#: objects span several candidate blocks.
PAM_LAYOUTS = {
    "memory": StoreSpec(),
    "memmap-one-block": StoreSpec(backend="memmap", block_entries=4096),
    "memmap-blocks": small_spec("memmap"),
}


def pam_matrix(layout: str, tied: bool = False, n: int = 40) -> DissimilarityMatrix:
    rng = np.random.default_rng(43)
    if tied:  # small integer levels: many equal gains and costs
        condensed = rng.integers(1, 5, size=condensed_size(n)).astype(np.float64)
    else:
        points = rng.normal(size=(n, 3))
        square = np.linalg.norm(points[:, None] - points[None, :], axis=2)
        condensed = oracle_condensed(square)
    return DissimilarityMatrix(n, condensed, store_spec=PAM_LAYOUTS[layout])


def record_panels(monkeypatch) -> list:
    """Matrices PAM builds panels for, from here on in the test."""
    built = []
    panels = kmedoids_module._StorePanels

    def recording(matrix):
        built.append(matrix)
        return panels(matrix)

    monkeypatch.setattr(kmedoids_module, "_StorePanels", recording)
    return built


@pytest.mark.parametrize("layout", sorted(PAM_LAYOUTS))
class TestPamEvaluators:
    def test_evaluator_follows_block_count(self, layout, monkeypatch):
        """The square, unless the store has several blocks *and* the
        objects span several candidate blocks."""
        built = record_panels(monkeypatch)
        matrix = pam_matrix(layout)
        single = len(list(matrix.store.block_ranges())) == 1
        assert single is (layout != "memmap-blocks")
        k_medoids(matrix, 3)  # n = 40: one candidate block
        assert built == []
        monkeypatch.setattr(kmedoids_module, "_CANDIDATE_BLOCK", 16)
        k_medoids(matrix, 3)  # three candidate blocks
        assert len(built) == (0 if single else 1)

    def test_matches_seed_reference(self, layout):
        """Either evaluator reproduces the seed PAM; against each other
        they agree bit for bit, costs included."""
        for tied in (False, True):
            matrix = pam_matrix(layout, tied)
            square_path = pam_matrix("memory", tied)
            for k in (1, 3, 6):
                result = k_medoids(matrix, k)
                ref = reference_k_medoids(square_path, k)
                assert (
                    result.labels,
                    result.medoids,
                    result.iterations,
                    result.converged,
                ) == (ref.labels, ref.medoids, ref.iterations, ref.converged)
                assert result.cost == pytest.approx(ref.cost, abs=1e-9)
                assert result.cost == k_medoids(square_path, k).cost


@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
def test_panels_across_candidate_blocks_match_square_and_seed(tied, monkeypatch):
    """With 16-candidate blocks, n = 40 on a store of several blocks
    streams three column blocks through the panel evaluator -- a loop no
    n <= 512 reaches otherwise.  It still follows the seed PAM, and gives
    the square evaluator's result bit for bit, costs included."""
    monkeypatch.setattr(kmedoids_module, "_CANDIDATE_BLOCK", 16)
    built = record_panels(monkeypatch)
    streamed = pam_matrix("memmap-blocks", tied)
    square_path = pam_matrix("memory", tied)
    for k in (1, 3, 6):
        result = k_medoids(streamed, k)
        ref = reference_k_medoids(square_path, k)
        assert (
            result.labels, result.medoids, result.iterations, result.converged
        ) == (ref.labels, ref.medoids, ref.iterations, ref.converged)
        assert result.cost == pytest.approx(ref.cost, abs=1e-9)
        assert result == k_medoids(square_path, k)
    assert len(built) == 3


# -- memmap white-box units --------------------------------------------------


class TestMemmapInternals:
    def test_lru_cache_stays_bounded(self):
        store = MemmapStore.create(
            16 * SMALL_BLOCK, block_entries=SMALL_BLOCK, cache_bytes=2 * SMALL_BLOCK * 8
        )
        values = fill_values(16 * SMALL_BLOCK, seed=29)
        store.write(0, values)  # touches every block
        assert store.cached_blocks <= 2
        # Reads refault evicted blocks; written data survived writeback.
        np.testing.assert_array_equal(store.read(0, store.size), values)
        assert store.cached_blocks <= 2
        store.close()

    def test_single_block_budget_still_works(self):
        store = MemmapStore.create(
            4 * SMALL_BLOCK, block_entries=SMALL_BLOCK, cache_bytes=1
        )
        values = fill_values(4 * SMALL_BLOCK, seed=31)
        store.write(0, values)
        np.testing.assert_array_equal(store.read(0, store.size), values)
        assert store.cached_blocks == 1
        store.close()

    def test_flush_then_reopen_sees_data(self, tmp_path):
        owner = MemmapStore.create(
            3 * SMALL_BLOCK,
            block_entries=SMALL_BLOCK,
            cache_bytes=SMALL_CACHE,
            base_directory=str(tmp_path),
        )
        values = fill_values(3 * SMALL_BLOCK, seed=37)
        owner.write(0, values)
        owner.flush()
        reader = MemmapStore.open(owner.directory)
        assert reader.size == owner.size
        assert reader.block_entries == SMALL_BLOCK
        np.testing.assert_array_equal(reader.read(0, reader.size), values)
        # The reader borrows: closing it leaves the shards in place...
        reader.close()
        assert os.path.isdir(owner.directory)
        np.testing.assert_array_equal(owner.read(0, owner.size), values)
        # ...while closing the owner reclaims the directory.
        directory = owner.directory
        owner.close()
        assert not os.path.exists(directory)

    def test_open_rejects_foreign_directory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            MemmapStore.open(str(tmp_path))

    @pytest.mark.parametrize(
        "meta",
        [
            [1, 64, 32],
            {"format": 1, "block_entries": 32},
            {"format": 1, "size": "x", "block_entries": 32},
            {"format": 1, "size": 64, "block_entries": 0},
            {"format": 1, "size": 64, "block_entries": -32},
            {"format": 1, "size": -64, "block_entries": 32},
            {"format": 1, "size": True, "block_entries": 32},
            {"format": 1, "size": 64, "block_entries": 32.0},
            {"format": 1, "size": 64},
        ],
        ids=[
            "not-an-object",
            "no-size",
            "text-size",
            "zero-block",
            "negative-block",
            "negative-size",
            "bool-size",
            "float-block",
            "no-block",
        ],
    )
    def test_open_rejects_malformed_meta(self, tmp_path, meta):
        (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            MemmapStore.open(str(tmp_path))

    def test_one_block_gather_scatter_match_memory(self):
        """A store of one block gathers and scatters through its fast
        path: unsorted repeated positions, ``out=`` (flat and 2-D) and a
        scatter read back all match the memory store."""
        size = 6 * SMALL_BLOCK
        values = fill_values(size, seed=3)
        memory = open_store(StoreSpec(), size, values.copy())
        one_block = open_store(
            StoreSpec(backend="memmap", block_entries=size, cache_bytes=SMALL_CACHE),
            size,
            values.copy(),
        )
        assert list(one_block.block_ranges()) == [(0, size)]
        rng = np.random.default_rng(5)
        positions = rng.integers(0, size, size=4 * SMALL_BLOCK, dtype=np.int64)
        np.testing.assert_array_equal(one_block.gather(positions), memory.gather(positions))
        grid = positions[: 2 * SMALL_BLOCK].reshape(8, -1)
        for wanted in (positions, grid):
            out = np.empty(wanted.shape, dtype=np.float64)
            assert one_block.gather(wanted, out=out) is out
            np.testing.assert_array_equal(out, memory.gather(wanted))
        unique = np.unique(positions)[::-1].copy()  # descending
        replacement = fill_values(unique.size, seed=13)
        for store in (memory, one_block):
            store.scatter(unique, replacement)
        np.testing.assert_array_equal(one_block.read(0, size), memory.read(0, size))
        one_block.close()

    def test_close_flushes_only_a_borrowed_directory(self, tmp_path, monkeypatch):
        """An owned store's shards are deleted on close without an msync;
        a borrowed store flushes its dirty blocks and leaves them."""
        flushed = []
        flush = np.memmap.flush

        def recording(mapped):
            flushed.append(mapped.filename)
            return flush(mapped)

        monkeypatch.setattr(np.memmap, "flush", recording)
        owner = MemmapStore.create(
            3 * SMALL_BLOCK,
            block_entries=SMALL_BLOCK,
            cache_bytes=SMALL_CACHE,
            base_directory=str(tmp_path),
        )
        owner.write(0, fill_values(3 * SMALL_BLOCK, seed=47))
        borrower = MemmapStore.open(owner.directory, cache_bytes=SMALL_CACHE)
        borrower.write(SMALL_BLOCK, fill_values(SMALL_BLOCK, seed=53))
        assert flushed == []
        borrower.close()
        assert len(flushed) == 1
        assert os.path.isdir(owner.directory)

        flushed.clear()
        directory = owner.directory
        owner.close()
        assert flushed == []
        assert not os.path.exists(directory)

    def test_sparse_zero_store_is_cheap(self, tmp_path):
        store = MemmapStore.create(
            DEFAULT_BLOCK_ENTRIES * 4,
            base_directory=str(tmp_path),
        )
        # No writes: no shard file needs to exist yet.
        assert store.read(5, 9).tolist() == [0.0, 0.0, 0.0, 0.0]
        store.close()


# -- environment-driven defaults ---------------------------------------------


def test_default_spec_honours_environment(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    assert default_store_spec() == StoreSpec()

    monkeypatch.setenv(ENV_BACKEND, "memmap")
    spec = default_store_spec()
    assert spec == StoreSpec(backend="memmap")
    matrix = DissimilarityMatrix.zeros(10, store_spec=spec)
    assert matrix.store_kind == "memmap"


def test_bad_spec_is_rejected():
    with pytest.raises(ConfigurationError):
        StoreSpec(backend="tape")
    with pytest.raises(ConfigurationError):
        StoreSpec(block_entries=0)
    with pytest.raises(ConfigurationError):
        StoreSpec(cache_bytes=0)


def test_store_types_are_exposed():
    assert isinstance(open_store(StoreSpec(), 3), InMemoryStore)
    store = open_store(StoreSpec(backend="memmap"), 3)
    assert isinstance(store, MemmapStore)
    store.close()


def test_float32_backend_is_rejected(monkeypatch):
    """Only the two float64 backends exist, by option and by environment."""
    both = re.escape("('memory', 'memmap')")
    with pytest.raises(ConfigurationError, match=both):
        StoreSpec(backend="float32")
    with pytest.raises(ConfigurationError, match=both):
        ProtocolSuiteConfig(store_backend="float32")
    monkeypatch.setenv(ENV_BACKEND, "float32")
    with pytest.raises(ConfigurationError, match=both):
        default_store_spec()
    with pytest.raises(ConfigurationError, match=both):
        ProtocolSuiteConfig()


# -- the RSS regression: a real workload under a hard memory cap -------------


#: n=20,000 means a 1.6 GB condensed triangle; the cap below is far
#: under that, so the test fails if anything ever materialises the full
#: matrix (or leaks block mappings past the LRU budget).
RSS_PROBE_N = int(os.environ.get("STORAGE_RSS_N", "20000"))
RSS_CAP_MB = float(os.environ.get("STORAGE_RSS_CAP_MB", "1100"))


@pytest.mark.slow
def test_pam_at_scale_respects_rss_cap(tmp_path):
    triangle_mb = condensed_size(RSS_PROBE_N) * 8 / (1 << 20)
    assert RSS_CAP_MB < triangle_mb, "cap must be meaningful"
    report_path = tmp_path / "probe.json"
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.apps.storage_probe",
            "--scenario",
            "pam",
            "--n",
            str(RSS_PROBE_N),
            "--backend",
            "memmap",
            "--k",
            "4",
            "--cache-bytes",
            str(256 << 20),
            "--store-dir",
            str(tmp_path),
            "--json-out",
            str(report_path),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(report_path.read_text())
    assert report["n"] == RSS_PROBE_N and report["backend"] == "memmap"
    assert report["peak_rss_mb"] < RSS_CAP_MB, report
