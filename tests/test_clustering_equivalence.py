"""The fast clustering layer against its preserved seed reference.

PR 3's contract: the NN-chain/cached-argmin agglomerative, the
FasterPAM-style k-medoids and the condensed-array quality metrics must
reproduce the seed implementations (``repro.clustering.reference``)
*identically* -- merge-for-merge dendrograms with bit-equal heights,
identical PAM medoids/labels/iterations, and metric values within 1e-9
(exactly, for the integer-valued pair counts).  scipy cross-validation
rides along as an independent referee.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.cluster.hierarchy import cophenet, linkage as scipy_linkage

from repro.clustering import quality
from repro.clustering.kmedoids import _build_init, _SquarePanels, k_medoids
from repro.clustering.linkage import agglomerative
from repro.clustering.reference import (
    _build_init as reference_build_init,
    reference_adjusted_rand_index,
    reference_agglomerative,
    reference_average_square_distance,
    reference_cophenetic_correlation,
    reference_cophenetic_matrix,
    reference_dunn_index,
    reference_k_medoids,
    reference_pair_counts,
    reference_purity,
    reference_rand_index,
    reference_silhouette_score,
)
from repro.distance.dissimilarity import DissimilarityMatrix
from repro.types import LinkageMethod

METHODS = list(LinkageMethod)


def random_matrix(n: int, seed: int) -> DissimilarityMatrix:
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    square = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    return DissimilarityMatrix.from_square(square)


def tied_matrix(n: int, seed: int, levels: int = 4) -> DissimilarityMatrix:
    """Heavily tied distances (categorical-style small integer levels)."""
    rng = np.random.default_rng(seed)
    square = rng.integers(1, levels + 1, size=(n, n)).astype(np.float64)
    square = np.minimum(square, square.T)
    np.fill_diagonal(square, 0.0)
    return DissimilarityMatrix.from_square(square)


def mixed_matrix(n: int, seed: int) -> DissimilarityMatrix:
    """Continuous distances with deliberately duplicated entries."""
    base = random_matrix(n, seed)
    values = np.array(base.condensed)
    rng = np.random.default_rng(seed + 7)
    half = values.size // 2
    values[rng.permutation(values.size)[:half]] = rng.choice(values, size=half)
    return DissimilarityMatrix(n, values)


MAKERS = [random_matrix, tied_matrix, mixed_matrix]


class TestAgglomerativeEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("maker", MAKERS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merge_for_merge_identical(self, method, maker, seed):
        """Same left/right/size sequence AND bit-equal heights."""
        matrix = maker(8 + 9 * seed, seed * 13 + 1)
        assert (
            agglomerative(matrix, method).merges
            == reference_agglomerative(matrix, method).merges
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_scipy_heights_and_cophenet(self, method):
        """Independent referee: same merge heights and cophenetic
        distances as ``scipy.cluster.hierarchy`` on general-position
        input."""
        matrix = random_matrix(24, 5)
        ours = agglomerative(matrix, method)
        theirs = scipy_linkage(matrix.to_scipy_condensed(), method=method.value)
        assert np.allclose(sorted(ours.heights), sorted(theirs[:, 2]), rtol=1e-8)
        # Our condensed layout (i > j, row-major) -> scipy's (i < j).
        n = matrix.num_objects
        i, j = np.triu_indices(n, 1)
        ours_scipy_order = ours.cophenetic_condensed()[j * (j - 1) // 2 + i]
        assert np.allclose(ours_scipy_order, cophenet(theirs), rtol=1e-8)

    def test_two_objects_and_single_object(self):
        lonely = DissimilarityMatrix.zeros(1)
        assert agglomerative(lonely, "single").merges == ()
        pair = DissimilarityMatrix.zeros(2)
        pair[1, 0] = 3.0
        assert (
            agglomerative(pair, "ward").merges
            == reference_agglomerative(pair, "ward").merges
        )

    def test_all_equal_distances(self):
        """Fully degenerate input: every pair tied."""
        n = 9
        matrix = DissimilarityMatrix(n, np.full(n * (n - 1) // 2, 2.5))
        for method in METHODS:
            assert (
                agglomerative(matrix, method).merges
                == reference_agglomerative(matrix, method).merges
            )


class TestKMedoidsEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_results_identical(self, seed):
        n = 20 + (seed % 3) * 25
        k = 2 + seed
        matrix = random_matrix(n, seed + 50)
        fast = k_medoids(matrix, k)
        ref = reference_k_medoids(matrix, k)
        assert fast.labels == ref.labels
        assert fast.medoids == ref.medoids
        assert fast.iterations == ref.iterations
        assert fast.converged == ref.converged
        assert fast.cost == pytest.approx(ref.cost, abs=1e-9)

    def test_tied_matrix_identical(self):
        matrix = tied_matrix(30, 3)
        fast = k_medoids(matrix, 4)
        ref = reference_k_medoids(matrix, 4)
        assert (fast.labels, fast.medoids) == (ref.labels, ref.medoids)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_build_init_micro(self, k):
        """The vectorized BUILD matches the seed's scan medoid-for-medoid
        (its own satellite assertion: no ``candidate in medoids`` list
        scan, one numpy gain computation per added medoid)."""
        for seed in range(8):
            square = random_matrix(25, seed + 200).to_square()
            assert _build_init(_SquarePanels(square), k) == reference_build_init(square, k)

    def test_k_equals_n_and_k_one(self):
        matrix = random_matrix(12, 9)
        for k in (1, 12):
            fast = k_medoids(matrix, k)
            ref = reference_k_medoids(matrix, k)
            assert (fast.labels, fast.medoids, fast.converged) == (
                ref.labels,
                ref.medoids,
                ref.converged,
            )


class TestQualityEquivalence:
    def _case(self, seed):
        matrix = random_matrix(40, seed + 300)
        rng = np.random.default_rng(seed)
        labels = [int(x) for x in rng.integers(0, 4, size=40)]
        return matrix, labels

    @pytest.mark.parametrize("seed", range(5))
    def test_silhouette(self, seed):
        matrix, labels = self._case(seed)
        assert quality.silhouette_score(matrix, labels) == pytest.approx(
            reference_silhouette_score(matrix, labels), abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_dunn(self, seed):
        matrix, labels = self._case(seed)
        assert quality.dunn_index(matrix, labels) == pytest.approx(
            reference_dunn_index(matrix, labels), abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_average_square_distance(self, seed):
        matrix, labels = self._case(seed)
        fast = quality.average_square_distance(matrix, labels)
        ref = reference_average_square_distance(matrix, labels)
        assert fast.keys() == ref.keys()
        for key in ref:
            assert fast[key] == pytest.approx(ref[key], abs=1e-9)

    @pytest.mark.parametrize("method", METHODS)
    def test_cophenetic_correlation(self, method):
        matrix = random_matrix(30, 17)
        dendrogram = agglomerative(matrix, method)
        assert quality.cophenetic_correlation(matrix, dendrogram) == pytest.approx(
            reference_cophenetic_correlation(matrix, dendrogram), abs=1e-9
        )

    def test_cophenetic_matrix_exact(self):
        dendrogram = agglomerative(random_matrix(25, 23), "ward")
        assert np.array_equal(
            dendrogram.cophenetic_matrix(), reference_cophenetic_matrix(dendrogram)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_pair_count_metrics_exact(self, seed):
        rng = np.random.default_rng(seed + 900)
        truth = [int(x) for x in rng.integers(0, 5, size=60)]
        predicted = [int(x) for x in rng.integers(0, 4, size=60)]
        assert quality._pair_counts(truth, predicted) == reference_pair_counts(
            truth, predicted
        )
        assert quality.rand_index(truth, predicted) == reference_rand_index(
            truth, predicted
        )
        assert quality.adjusted_rand_index(
            truth, predicted
        ) == reference_adjusted_rand_index(truth, predicted)
        assert quality.purity(truth, predicted) == reference_purity(truth, predicted)

    def test_average_square_distance_singletons(self):
        matrix = random_matrix(5, 1)
        labels = [0, 1, 1, 2, 2]
        assert quality.average_square_distance(
            matrix, labels
        ) == reference_average_square_distance(matrix, labels)
