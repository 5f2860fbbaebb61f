"""Tests for the condensed dissimilarity matrix and its operations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distance.dissimilarity import DissimilarityMatrix
from repro.distance.local import local_dissimilarity
from repro.distance.merge import merge_weighted
from repro.distance.normalize import max_normalize, min_max_normalize_column
from repro.exceptions import ConfigurationError


class TestConstruction:
    def test_zeros(self):
        d = DissimilarityMatrix.zeros(4)
        assert d.num_objects == 4
        assert d[3, 1] == 0.0

    def test_single_object(self):
        d = DissimilarityMatrix.zeros(1)
        assert d.condensed.size == 0
        assert d.max_value() == 0.0

    def test_from_pairwise(self):
        d = DissimilarityMatrix.from_pairwise(4, lambda i, j: i + j)
        assert d[2, 1] == 3
        assert d[0, 3] == 3

    def test_from_pairwise_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            DissimilarityMatrix.from_pairwise(3, lambda i, j: -1)

    def test_from_square_roundtrip(self):
        d = DissimilarityMatrix.from_pairwise(5, lambda i, j: abs(i - j) * 1.5)
        assert DissimilarityMatrix.from_square(d.to_square()) == d

    def test_from_square_validation(self):
        with pytest.raises(ConfigurationError):
            DissimilarityMatrix.from_square(np.ones((2, 3)))
        asym = np.array([[0, 1], [2, 0]], dtype=float)
        with pytest.raises(ConfigurationError):
            DissimilarityMatrix.from_square(asym)
        bad_diag = np.array([[1.0, 0], [0, 0]])
        with pytest.raises(ConfigurationError):
            DissimilarityMatrix.from_square(bad_diag)

    def test_from_square_rejects_negative_entries(self):
        """Regression: ``from_square`` used to write into storage directly,
        bypassing the constructor's non-negativity check."""
        with pytest.raises(ConfigurationError):
            DissimilarityMatrix.from_square(
                np.array([[0.0, -1.0], [-1.0, 0.0]])
            )

    def test_from_square_rejects_nonfinite_entries(self):
        square = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(ConfigurationError):
            DissimilarityMatrix.from_square(square)

    def test_condensed_length_validation(self):
        with pytest.raises(ConfigurationError):
            DissimilarityMatrix(3, np.zeros(5))

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            DissimilarityMatrix(3, np.array([1.0, -0.5, 2.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigurationError):
            DissimilarityMatrix(3, np.array([1.0, np.inf, 2.0]))


class TestIndexing:
    def test_symmetric_access(self):
        d = DissimilarityMatrix.zeros(3)
        d[2, 0] = 5.0
        assert d[0, 2] == 5.0
        assert d[2, 0] == 5.0

    def test_diagonal_is_zero(self):
        d = DissimilarityMatrix.zeros(3)
        assert d[1, 1] == 0.0

    def test_diagonal_write_guard(self):
        d = DissimilarityMatrix.zeros(3)
        d[1, 1] = 0  # allowed no-op
        with pytest.raises(ConfigurationError):
            d[1, 1] = 1.0

    def test_out_of_range(self):
        d = DissimilarityMatrix.zeros(3)
        with pytest.raises(ConfigurationError):
            _ = d[0, 3]

    def test_invalid_value(self):
        d = DissimilarityMatrix.zeros(3)
        with pytest.raises(ConfigurationError):
            d[1, 0] = -1.0

    def test_condensed_read_only(self):
        d = DissimilarityMatrix.zeros(3)
        with pytest.raises(ValueError):
            d.condensed[0] = 1.0

    def test_figure2_order(self):
        """Condensed layout matches Figure 2: row-major below diagonal."""
        d = DissimilarityMatrix.zeros(4)
        d[1, 0] = 1
        d[2, 0] = 2
        d[2, 1] = 3
        d[3, 0] = 4
        d[3, 1] = 5
        d[3, 2] = 6
        assert d.condensed.tolist() == [1, 2, 3, 4, 5, 6]


class TestBlocksAndSubmatrix:
    def test_set_block(self):
        d = DissimilarityMatrix.zeros(5)
        block = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        d.set_block([2, 3, 4], [0, 1], block)
        assert d[2, 0] == 1.0 and d[4, 1] == 6.0
        assert d[0, 2] == 1.0

    def test_set_block_shape_guard(self):
        d = DissimilarityMatrix.zeros(4)
        with pytest.raises(ConfigurationError):
            d.set_block([0, 1], [2], np.zeros((2, 2)))

    def test_set_block_diagonal_guard(self):
        d = DissimilarityMatrix.zeros(4)
        with pytest.raises(ConfigurationError):
            d.set_block([0, 1], [1, 2], np.ones((2, 2)))

    def test_set_block_duplicate_rows_rejected(self):
        """Regression: duplicate indices used to let later block entries
        silently overwrite earlier ones."""
        d = DissimilarityMatrix.zeros(5)
        with pytest.raises(ConfigurationError):
            d.set_block([2, 2], [0, 1], np.ones((2, 2)))
        with pytest.raises(ConfigurationError):
            d.set_block([3, 4], [0, 0], np.ones((2, 2)))

    def test_set_block_out_of_range_rejected(self):
        d = DissimilarityMatrix.zeros(4)
        with pytest.raises(ConfigurationError):
            d.set_block([3, 4], [0, 1], np.ones((2, 2)))

    def test_set_block_invalid_values_rejected(self):
        d = DissimilarityMatrix.zeros(4)
        with pytest.raises(ConfigurationError):
            d.set_block([2, 3], [0, 1], np.array([[1.0, -2.0], [3.0, 4.0]]))
        with pytest.raises(ConfigurationError):
            d.set_block([2, 3], [0, 1], np.full((2, 2), np.nan))

    def test_set_diagonal_block(self):
        local = DissimilarityMatrix.from_pairwise(3, lambda i, j: 10 * i + j)
        d = DissimilarityMatrix.zeros(6)
        d.set_diagonal_block(2, local)
        for i in range(3):
            for j in range(i):
                assert d[2 + i, 2 + j] == local[i, j]
        assert d[1, 0] == 0.0 and d[5, 1] == 0.0

    def test_set_diagonal_block_out_of_range(self):
        d = DissimilarityMatrix.zeros(4)
        with pytest.raises(ConfigurationError):
            d.set_diagonal_block(2, DissimilarityMatrix.zeros(3))
        with pytest.raises(ConfigurationError):
            d.set_diagonal_block(-1, DissimilarityMatrix.zeros(2))

    def test_submatrix(self):
        d = DissimilarityMatrix.from_pairwise(4, lambda i, j: 10 * i + j)
        sub = d.submatrix([3, 1])
        assert sub.num_objects == 2
        assert sub[1, 0] == d[3, 1]

    def test_submatrix_duplicate_rejected(self):
        d = DissimilarityMatrix.zeros(3)
        with pytest.raises(ConfigurationError):
            d.submatrix([0, 0])

    def test_submatrix_out_of_range_rejected(self):
        d = DissimilarityMatrix.zeros(3)
        with pytest.raises(ConfigurationError):
            d.submatrix([0, 3])
        with pytest.raises(ConfigurationError):
            d.submatrix([-1, 1])

    @given(
        n=st.integers(2, 10),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_square_condensed_roundtrips(self, n, seed):
        """Fancy-indexed from_square/to_square/to_scipy_condensed agree
        with the element-wise definitions."""
        rng = np.random.default_rng(seed)
        square = np.abs(rng.normal(size=(n, n)))
        square = (square + square.T) / 2
        np.fill_diagonal(square, 0.0)
        d = DissimilarityMatrix.from_square(square)
        assert np.allclose(d.to_square(), square)
        from scipy.spatial.distance import squareform

        assert np.allclose(d.to_scipy_condensed(), squareform(square))
        order = list(rng.permutation(n))
        sub = d.submatrix(order)
        for a, i in enumerate(order):
            for b, j in enumerate(order):
                assert sub[a, b] == pytest.approx(square[i, j])


class TestNormalizationAndStats:
    def test_normalized_range(self):
        d = DissimilarityMatrix.from_pairwise(5, lambda i, j: abs(i - j) * 7.0)
        n = d.normalized()
        assert n.max_value() == 1.0
        assert np.all(n.condensed >= 0)

    def test_normalized_preserves_ratios(self):
        d = DissimilarityMatrix.from_pairwise(4, lambda i, j: float(i + j))
        n = d.normalized()
        assert n[2, 1] / n[3, 2] == pytest.approx(d[2, 1] / d[3, 2])

    def test_all_zero_normalizes_to_zero(self):
        d = DissimilarityMatrix.zeros(3)
        assert d.normalized() == d

    def test_max_normalize_alias(self):
        d = DissimilarityMatrix.from_pairwise(3, lambda i, j: 2.0)
        assert max_normalize(d).max_value() == 1.0

    def test_mean_value(self):
        d = DissimilarityMatrix.from_pairwise(3, lambda i, j: 2.0)
        assert d.mean_value() == 2.0
        assert DissimilarityMatrix.zeros(1).mean_value() == 0.0

    def test_triangle_inequality_check(self):
        metric = DissimilarityMatrix.from_pairwise(5, lambda i, j: abs(i - j))
        assert metric.check_triangle_inequality()
        broken = DissimilarityMatrix.zeros(3)
        broken[1, 0] = 1.0
        broken[2, 1] = 1.0
        broken[2, 0] = 10.0
        assert not broken.check_triangle_inequality()

    def test_allclose(self):
        a = DissimilarityMatrix.from_pairwise(3, lambda i, j: 1.0)
        b = DissimilarityMatrix.from_pairwise(3, lambda i, j: 1.0 + 1e-12)
        assert a.allclose(b, atol=1e-9)
        assert not a.allclose(DissimilarityMatrix.zeros(3))

    def test_scipy_condensed_matches_squareform(self):
        from scipy.spatial.distance import squareform

        d = DissimilarityMatrix.from_pairwise(6, lambda i, j: float(i * 7 + j))
        assert np.allclose(d.to_scipy_condensed(), squareform(d.to_square()))


class TestLocalAndMerge:
    def test_local_dissimilarity_figure12(self):
        d = local_dissimilarity([10, 13, 7], lambda a, b: abs(a - b))
        assert d[1, 0] == 3 and d[2, 0] == 3 and d[2, 1] == 6

    def test_merge_equal_weights(self):
        a = DissimilarityMatrix.from_pairwise(3, lambda i, j: 1.0)
        b = DissimilarityMatrix.from_pairwise(3, lambda i, j: 3.0)
        merged = merge_weighted([a, b])
        assert merged[1, 0] == 2.0

    def test_merge_weight_ratios(self):
        a = DissimilarityMatrix.from_pairwise(3, lambda i, j: 1.0)
        b = DissimilarityMatrix.from_pairwise(3, lambda i, j: 3.0)
        merged = merge_weighted([a, b], [3.0, 1.0])
        assert merged[1, 0] == pytest.approx(1.5)
        # Only ratios matter.
        assert merge_weighted([a, b], [6.0, 2.0])[1, 0] == pytest.approx(1.5)

    def test_merge_validation(self):
        a = DissimilarityMatrix.zeros(3)
        with pytest.raises(ConfigurationError):
            merge_weighted([])
        with pytest.raises(ConfigurationError):
            merge_weighted([a, DissimilarityMatrix.zeros(4)])
        with pytest.raises(ConfigurationError):
            merge_weighted([a], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            merge_weighted([a], [0.0])
        with pytest.raises(ConfigurationError):
            merge_weighted([a], [-1.0])

    def test_min_max_normalize_column(self):
        assert min_max_normalize_column([2.0, 4.0, 6.0]) == [0.0, 0.5, 1.0]
        assert min_max_normalize_column([5.0, 5.0]) == [0.0, 0.0]
        with pytest.raises(ConfigurationError):
            min_max_normalize_column([])

    @given(
        values=st.lists(
            st.integers(-1000, 1000), min_size=3, max_size=12, unique=True
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_normalization_equivalence(self, values):
        """Section 2.1's claim: normalising the dissimilarity matrix equals
        min-max normalising the data first (for the |x-y| metric)."""
        from_raw = local_dissimilarity(
            values, lambda a, b: float(abs(a - b))
        ).normalized()
        scaled = min_max_normalize_column([float(v) for v in values])
        from_scaled = local_dissimilarity(scaled, lambda a, b: abs(a - b))
        assert from_raw.allclose(from_scaled, atol=1e-12)


class TestEdgePaths:
    """Edge and error paths the equivalence suites never reach."""

    def test_submatrix_applies_requested_ordering(self):
        d = DissimilarityMatrix.from_pairwise(4, lambda i, j: 10 * i + j)
        sub = d.submatrix([3, 0, 2])
        # sub's pair (a, b) must read the global pair (indices[a], indices[b]).
        assert sub[0, 1] == d[3, 0]
        assert sub[0, 2] == d[3, 2]
        assert sub[1, 2] == d[0, 2]

    def test_submatrix_reversed_is_transpose_permutation(self):
        d = DissimilarityMatrix.from_pairwise(5, lambda i, j: i * j + 1)
        rev = d.submatrix(list(range(4, -1, -1)))
        assert np.array_equal(rev.to_square(), d.to_square()[::-1, ::-1])

    def test_submatrix_duplicate_and_range_errors(self):
        d = DissimilarityMatrix.from_pairwise(4, lambda i, j: 1.0)
        with pytest.raises(ConfigurationError, match="unique"):
            d.submatrix([0, 1, 1])
        with pytest.raises(ConfigurationError, match="at least one"):
            d.submatrix([])
        with pytest.raises(ConfigurationError, match="out of range"):
            d.submatrix([0, 4])
        with pytest.raises(ConfigurationError, match="out of range"):
            d.submatrix([-1, 2])

    def test_set_diagonal_block_bounds(self):
        d = DissimilarityMatrix.zeros(5)
        local = DissimilarityMatrix.from_pairwise(3, lambda i, j: 1.0)
        with pytest.raises(ConfigurationError, match="out of range"):
            d.set_diagonal_block(-1, local)
        with pytest.raises(ConfigurationError, match="out of range"):
            d.set_diagonal_block(3, local)
        d.set_diagonal_block(2, local)  # [2, 5) fits exactly
        assert d[4, 3] == 1.0

    def test_set_diagonal_block_size_one_is_noop(self):
        d = DissimilarityMatrix.from_pairwise(3, lambda i, j: 2.0)
        before = d.condensed.copy()
        d.set_diagonal_block(1, DissimilarityMatrix.zeros(1))
        assert np.array_equal(d.condensed, before)

    def test_from_pairwise_rejects_negative_and_nonfinite(self):
        with pytest.raises(ConfigurationError, match="invalid value"):
            DissimilarityMatrix.from_pairwise(3, lambda i, j: -0.5)
        with pytest.raises(ConfigurationError, match="invalid value"):
            DissimilarityMatrix.from_pairwise(3, lambda i, j: float("nan"))
        with pytest.raises(ConfigurationError, match="invalid value"):
            DissimilarityMatrix.from_pairwise(3, lambda i, j: float("inf"))

    def test_triangle_inequality_on_nonmetric_matrix(self):
        # d(2,0) = 10 > d(2,1) + d(1,0) = 2: deliberately non-metric.
        broken = DissimilarityMatrix.zeros(4)
        broken[1, 0] = 1.0
        broken[2, 1] = 1.0
        broken[2, 0] = 10.0
        broken[3, 0] = 1.0
        broken[3, 1] = 1.0
        broken[3, 2] = 9.5
        for chunk in (None, 1, 2, 64):
            assert not broken.check_triangle_inequality(chunk_rows=chunk)

    def test_triangle_inequality_chunked_matches_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(6):
            n = int(rng.integers(3, 14))
            square = rng.random((n, n))
            square = square + square.T
            np.fill_diagonal(square, 0.0)
            d = DissimilarityMatrix.from_square(square)
            reference = all(
                square[i, k] <= square[i, j] + square[j, k] + 1e-9
                for i in range(n)
                for j in range(n)
                for k in range(n)
            )
            for chunk in (None, 1, 3):
                assert d.check_triangle_inequality(chunk_rows=chunk) is reference

    def test_triangle_early_violation_never_builds_square(self, monkeypatch):
        """A violation in the first rows must return before any O(n^2)
        square materialises: ``to_square`` is forbidden and the peak
        traced allocation stays far below ``n^2`` floats."""
        import tracemalloc

        n = 512
        d = DissimilarityMatrix.from_pairwise(n, lambda i, j: float(abs(i - j)))
        d[1, 0] = 1.0
        d[2, 1] = 1.0
        d[2, 0] = 100.0  # violated via j = 1, seen in the first chunk

        def forbidden(self):
            raise AssertionError("check_triangle_inequality materialised the square")

        monkeypatch.setattr(DissimilarityMatrix, "to_square", forbidden)
        tracemalloc.start()
        try:
            assert d.check_triangle_inequality(chunk_rows=16) is False
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        square_bytes = n * n * 8
        assert peak < square_bytes // 2, (
            f"peak {peak} bytes suggests an O(n^2) intermediate "
            f"(square would be {square_bytes})"
        )


class TestGrowShrink:
    """Condensed grow/shrink used by the incremental-session subsystem."""

    def test_insert_objects_preserves_surviving_pairs(self):
        d = DissimilarityMatrix.from_pairwise(4, lambda i, j: 10 * i + j)
        grown = d.insert_objects([1, 4])
        assert grown.num_objects == 6
        survivors = [0, 2, 3, 5]  # old rows 0..3 in the new frame
        for a in range(4):
            for b in range(4):
                assert grown[survivors[a], survivors[b]] == d[a, b]
        # Fresh pairs start at zero until the delta construction fills them.
        assert grown[1, 0] == 0.0 and grown[4, 2] == 0.0 and grown[4, 1] == 0.0

    def test_insert_objects_validation(self):
        d = DissimilarityMatrix.zeros(3)
        with pytest.raises(ConfigurationError, match="unique"):
            d.insert_objects([1, 1])
        with pytest.raises(ConfigurationError, match="out of range"):
            d.insert_objects([4])
        assert d.insert_objects([]) == d

    def test_remove_inverts_insert(self):
        d = DissimilarityMatrix.from_pairwise(5, lambda i, j: i + j * 0.5)
        grown = d.insert_objects([0, 3])
        assert grown.remove_objects([0, 3]) == d

    def test_remove_objects_validation(self):
        d = DissimilarityMatrix.from_pairwise(3, lambda i, j: 1.0)
        with pytest.raises(ConfigurationError, match="unique"):
            d.remove_objects([0, 0])
        with pytest.raises(ConfigurationError, match="out of range"):
            d.remove_objects([3])
        with pytest.raises(ConfigurationError, match="every object"):
            d.remove_objects([0, 1, 2])

    def test_set_submatrix_scatters(self):
        d = DissimilarityMatrix.zeros(5)
        local = DissimilarityMatrix.from_pairwise(3, lambda i, j: 10 * i + j)
        d.set_submatrix([4, 0, 2], local)
        assert d[4, 0] == local[1, 0]
        assert d[4, 2] == local[2, 0]
        assert d[0, 2] == local[2, 1]
        assert d[1, 0] == 0.0  # untouched

    def test_set_submatrix_validation(self):
        d = DissimilarityMatrix.zeros(4)
        local = DissimilarityMatrix.zeros(2)
        with pytest.raises(ConfigurationError, match="unique"):
            d.set_submatrix([1, 1], local)
        with pytest.raises(ConfigurationError, match="indices"):
            d.set_submatrix([0, 1, 2], local)
        with pytest.raises(ConfigurationError, match="out of range"):
            d.set_submatrix([0, 4], local)

    def test_set_diagonal_delta_matches_full_block(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        local = DissimilarityMatrix.from_pairwise(
            5, lambda i, j: values[i] + values[j]
        )
        old = local.submatrix([0, 1, 2])
        global_a = DissimilarityMatrix.zeros(7)
        global_a.set_diagonal_block(1, local)
        global_b = DissimilarityMatrix.zeros(5)
        global_b.set_diagonal_block(1, old)
        global_b = global_b.insert_objects([4, 5])
        tail = local.condensed[old.condensed.size :]
        global_b.set_diagonal_delta(1, 3, 5, tail)
        assert global_b == global_a

    def test_set_diagonal_delta_validation(self):
        d = DissimilarityMatrix.zeros(6)
        with pytest.raises(ConfigurationError, match="invalid diagonal delta"):
            d.set_diagonal_delta(0, 3, 2, np.zeros(0))
        with pytest.raises(ConfigurationError, match="out of range"):
            d.set_diagonal_delta(4, 1, 3, np.zeros(3))
        with pytest.raises(ConfigurationError, match="length"):
            d.set_diagonal_delta(0, 1, 3, np.zeros(5))
        with pytest.raises(ConfigurationError, match="non-negative"):
            d.set_diagonal_delta(0, 1, 2, np.asarray([-1.0]))

    @given(
        n=st.integers(2, 8),
        added=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_insert_remove_roundtrip(self, n, added, seed):
        rng = np.random.default_rng(seed)
        d = DissimilarityMatrix(n, rng.random(n * (n - 1) // 2))
        positions = sorted(
            rng.choice(n + added, size=added, replace=False).tolist()
        )
        grown = d.insert_objects(positions)
        assert grown.remove_objects(positions) == d


class TestCondensedTailIndices:
    def test_matches_tril_restriction(self):
        from repro.distance.dissimilarity import condensed_tail_indices

        for old, new in [(0, 5), (1, 4), (3, 3), (3, 7), (0, 1)]:
            i, j = np.tril_indices(new, -1)
            fresh = i >= old
            ti, tj = condensed_tail_indices(old, new)
            assert np.array_equal(ti, i[fresh])
            assert np.array_equal(tj, j[fresh])

    def test_cost_tracks_tail_not_square(self):
        """A small batch on a large site must allocate O(added * site),
        never O(site^2) -- the delta path's whole point."""
        from repro.distance.dissimilarity import condensed_tail_indices

        old, new = 200_000, 200_003
        i, j = condensed_tail_indices(old, new)
        assert i.size == j.size == old + (old + 1) + (old + 2)
        assert i[0] == old and j[0] == 0
        assert i[-1] == new - 1 and j[-1] == new - 2


class TestCondensedSpanIndices:
    def test_matches_tril_slices(self):
        from repro.distance.dissimilarity import condensed_span_indices

        for n in range(1, 9):
            i, j = np.tril_indices(n, -1)
            for start in range(i.size + 1):
                for stop in range(start, i.size + 1):
                    si, sj = condensed_span_indices(start, stop)
                    assert np.array_equal(si, i[start:stop])
                    assert np.array_equal(sj, j[start:stop])

    def test_whole_rows_are_the_tail_indices(self):
        """Over whole rows the span helper is :func:`condensed_tail_indices`."""
        from repro.distance.dissimilarity import (
            condensed_size,
            condensed_span_indices,
            condensed_tail_indices,
        )

        for old, new in ((0, 1), (0, 7), (2, 3), (3, 11), (40, 41)):
            si, sj = condensed_span_indices(condensed_size(old), condensed_size(new))
            ti, tj = condensed_tail_indices(old, new)
            assert np.array_equal(si, ti) and np.array_equal(sj, tj)

    def test_empty_and_reversed_spans(self):
        from repro.distance.dissimilarity import condensed_span_indices

        for start, stop in ((0, 0), (5, 5), (7, 3)):
            si, sj = condensed_span_indices(start, stop)
            assert si.size == sj.size == 0
            assert si.dtype == sj.dtype == np.int64

    def test_exact_at_large_positions(self):
        """Integer row solves stay exact where a float sqrt needs guarding."""
        from repro.distance.dissimilarity import (
            condensed_span_indices,
            condensed_unravel,
        )

        n = 3_000_000
        stop = n * (n - 1) // 2
        start = stop - 2 * n - 5  # ends of three rows, the last one whole
        si, sj = condensed_span_indices(start, stop)
        ui, uj = condensed_unravel(np.arange(start, stop, dtype=np.int64))
        assert np.array_equal(si, ui) and np.array_equal(sj, uj)
        assert si[-1] == n - 1 and sj[-1] == n - 2
