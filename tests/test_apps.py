"""Tests for the record linkage and outlier detection applications."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.linkage import private_record_linkage
from repro.apps.outliers import knn_outliers
from repro.core.config import SessionConfig
from repro.core.session import ClusteringSession
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.data.partition import GlobalIndex, ObjectRef
from repro.distance.dissimilarity import DissimilarityMatrix
from repro.exceptions import ConfigurationError
from repro.types import AttributeType


def _linkage_setup():
    """Two sites holding noisy copies of the same three entities plus a
    distractor on each side; built through the real private pipeline."""
    schema = [AttributeSpec("income", AttributeType.NUMERIC, precision=0)]
    site_a = DataMatrix(schema, [[100], [500], [900], [380]])
    site_b = DataMatrix(schema, [[101], [498], [903], [710]])
    session = ClusteringSession(
        SessionConfig(num_clusters=2, master_seed=4),
        {"A": site_a, "B": site_b},
    )
    return session.final_matrix(), session.index


class TestRecordLinkage:
    @pytest.mark.parametrize("strategy", ["optimal", "greedy"])
    def test_links_true_pairs(self, strategy):
        matrix, index = _linkage_setup()
        matches = private_record_linkage(
            matrix, index, "A", "B", threshold=0.02, strategy=strategy
        )
        linked = {(m.left.local_id, m.right.local_id) for m in matches}
        assert linked == {(0, 0), (1, 1), (2, 2)}

    def test_one_to_one(self):
        matrix, index = _linkage_setup()
        matches = private_record_linkage(matrix, index, "A", "B", threshold=1.0)
        lefts = [m.left for m in matches]
        rights = [m.right for m in matches]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)

    def test_threshold_zero_links_exact_duplicates_only(self):
        schema = [AttributeSpec("v", AttributeType.NUMERIC, precision=0)]
        session = ClusteringSession(
            SessionConfig(num_clusters=2),
            {
                "A": DataMatrix(schema, [[5], [70]]),
                "B": DataMatrix(schema, [[5], [200]]),
            },
        )
        matches = private_record_linkage(
            session.final_matrix(), session.index, "A", "B", threshold=0.0
        )
        assert [(m.left.local_id, m.right.local_id) for m in matches] == [(0, 0)]

    def test_sorted_by_distance(self):
        matrix, index = _linkage_setup()
        matches = private_record_linkage(matrix, index, "A", "B", threshold=1.0)
        distances = [m.distance for m in matches]
        assert distances == sorted(distances)

    def test_validation(self):
        matrix, index = _linkage_setup()
        with pytest.raises(ConfigurationError):
            private_record_linkage(matrix, index, "A", "A", threshold=0.1)
        with pytest.raises(ConfigurationError):
            private_record_linkage(matrix, index, "A", "B", threshold=-1)
        with pytest.raises(ConfigurationError):
            private_record_linkage(matrix, index, "A", "B", 0.1, strategy="magic")

    def test_optimal_beats_greedy_on_crossing_pairs(self):
        """A configuration where greedy's first pick forces a bad total."""
        index = GlobalIndex({"A": 2, "B": 2})
        matrix = DissimilarityMatrix.zeros(4)
        # A0-B0=0.10, A0-B1=0.11, A1-B0=0.12, A1-B1=0.50
        matrix[2, 0] = 0.10
        matrix[3, 0] = 0.11
        matrix[2, 1] = 0.12
        matrix[3, 1] = 0.50
        greedy = private_record_linkage(matrix, index, "A", "B", 0.2, "greedy")
        optimal = private_record_linkage(matrix, index, "A", "B", 0.2, "optimal")
        assert len(greedy) == 1  # greedy takes A0-B0, stranding A1 (0.50 > t)
        assert len(optimal) == 2  # optimal: A0-B1 + A1-B0, both under t


def test_party_import_loads_no_scipy():
    """A party process imports ``repro.apps.cluster`` and never links
    records, so its import graph stays free of scipy: only the optimal
    linkage strategy loads ``scipy.optimize``, when it runs."""
    probe = (
        "import sys, repro.apps.cluster; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestOutliers:
    def _planted(self):
        """Nine clustered objects and one far-away outlier at B2."""
        schema = [AttributeSpec("v", AttributeType.NUMERIC, precision=0)]
        session = ClusteringSession(
            SessionConfig(num_clusters=2, master_seed=5),
            {
                "A": DataMatrix(schema, [[10], [11], [12], [13], [14]]),
                "B": DataMatrix(schema, [[15], [16], [900], [12]]),
            },
        )
        return session.final_matrix(), session.index

    def test_planted_outlier_found_top_n(self):
        matrix, index = self._planted()
        report = knn_outliers(matrix, index, k=2, top_n=1)
        assert report.flagged == (ObjectRef("B", 2),)

    def test_planted_outlier_found_threshold(self):
        matrix, index = self._planted()
        report = knn_outliers(matrix, index, k=2, threshold=0.5)
        assert ObjectRef("B", 2) in report.flagged

    def test_scores_shape_and_order(self):
        matrix, index = self._planted()
        report = knn_outliers(matrix, index, k=3, top_n=2)
        assert len(report.scores) == index.total_objects
        outlier_pos = index.global_position(ObjectRef("B", 2))
        assert report.scores[outlier_pos] == max(report.scores)

    def test_flagged_sorted_by_score(self):
        matrix, index = self._planted()
        report = knn_outliers(matrix, index, k=2, top_n=3)
        scores = [report.scores[index.global_position(r)] for r in report.flagged]
        assert scores == sorted(scores, reverse=True)

    def test_validation(self):
        matrix, index = self._planted()
        with pytest.raises(ConfigurationError):
            knn_outliers(matrix, index, k=0, top_n=1)
        with pytest.raises(ConfigurationError):
            knn_outliers(matrix, index, k=20, top_n=1)
        with pytest.raises(ConfigurationError):
            knn_outliers(matrix, index, k=2)
        with pytest.raises(ConfigurationError):
            knn_outliers(matrix, index, k=2, top_n=1, threshold=0.5)
        with pytest.raises(ConfigurationError):
            knn_outliers(matrix, index, k=2, top_n=100)

    def test_top_n_zero(self):
        matrix, index = self._planted()
        assert knn_outliers(matrix, index, k=2, top_n=0).flagged == ()
