"""T-NORM -- dissimilarity-matrix normalisation equivalence (Section 2.1).

Paper: normalising the dissimilarity matrix "yields the same effect"
as normalising the data, "without loss of accuracy and the need for
another [min/max] protocol".  For the |x-y| metric this is an exact
identity; we verify it numerically on partitioned workloads where the
partitions deliberately cover different value ranges (the very case
that motivates the design).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SessionConfig
from repro.core.session import ClusteringSession
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.distance.local import local_dissimilarity
from repro.distance.normalize import min_max_normalize_column
from repro.types import AttributeType


def _skewed_partitions():
    """Site A holds low values, site B high ones -- local min/max are
    useless, which is exactly why the paper normalises the matrix."""
    schema = [AttributeSpec("v", AttributeType.NUMERIC, precision=0)]
    return {
        "A": DataMatrix(schema, [[0], [10], [25], [40]]),
        "B": DataMatrix(schema, [[500], [730], [999]]),
    }


def test_matrix_normalisation_equals_data_normalisation(table):
    partitions = _skewed_partitions()
    session = ClusteringSession(SessionConfig(num_clusters=2), partitions)
    private_normalized = session.final_matrix()

    # Reference: a trusted party min-max-normalises the pooled column
    # first, then computes plain |x - y|.
    pooled = [float(v) for site in sorted(partitions) for (v,) in partitions[site].rows]
    scaled = min_max_normalize_column(pooled)
    reference = local_dissimilarity(scaled, lambda a, b: abs(a - b))

    max_diff = float(
        np.abs(private_normalized.condensed - reference.condensed).max()
    )
    table(
        "T-NORM: matrix normalisation vs data normalisation",
        [("skewed two-site workload", len(pooled), max_diff)],
        ("workload", "objects", "max difference"),
    )
    assert private_normalized.allclose(reference, atol=1e-12)


def test_equivalence_across_random_partitions():
    rng = np.random.default_rng(3)
    schema = [AttributeSpec("v", AttributeType.NUMERIC, precision=0)]
    for trial in range(5):
        values = [int(v) for v in rng.integers(-10_000, 10_000, size=12)]
        split = 4 + int(rng.integers(5))
        partitions = {
            "A": DataMatrix(schema, [[v] for v in values[:split]]),
            "B": DataMatrix(schema, [[v] for v in values[split:]]),
        }
        session = ClusteringSession(
            SessionConfig(num_clusters=2, master_seed=trial), partitions
        )
        scaled = min_max_normalize_column([float(v) for v in values])
        reference = local_dissimilarity(scaled, lambda a, b: abs(a - b))
        assert session.final_matrix().allclose(reference, atol=1e-12)


def test_no_minmax_protocol_needed():
    """Structural check: no message kind in the transcript carries global
    min/max negotiation -- normalisation is TP-local."""
    partitions = _skewed_partitions()
    session = ClusteringSession(SessionConfig(num_clusters=2), partitions)
    session.execute_protocol()
    observed_kinds = {kind for _, _, kind, _ in session.network.ledger()}
    assert observed_kinds <= {
        "local_matrix",
        "masked_vector",
        "masked_matrix",
        "comparison_matrix",
        "weights",
    }


@pytest.mark.benchmark(group="normalization")
def test_bench_normalisation(benchmark):
    from repro.distance.dissimilarity import DissimilarityMatrix

    rng = np.random.default_rng(0)
    matrix = DissimilarityMatrix(
        200, np.abs(rng.normal(size=200 * 199 // 2))
    )
    normalized = benchmark(matrix.normalized)
    assert normalized.max_value() == 1.0
