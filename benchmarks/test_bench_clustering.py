"""T-CLUSTERING -- the rewritten clustering layer vs the seed.

PRs 1-2 made protocol math and transport fast; after them a session's
runtime lives *downstream* of the Figure 11 construction, in the
clustering the paper positions as its main advantage (Section 6).  This
module measures the rewritten matrix consumers against the seed
implementations preserved in :mod:`repro.clustering.reference`:

* **agglomerative** -- seed: O(n^3) global argmin over a dense square.
  New: nearest-neighbor chains in-place on the condensed vector plus a
  canonicalizing replay.  Gate: >= 10x at n >= 1000, with the output
  dendrogram asserted merge-for-merge identical first.
* **k-medoids** -- seed: classic PAM re-scoring every medoid/candidate
  pair per SWAP.  New: FasterPAM-style cached nearest/second-nearest
  arrays with whole-candidate numpy evaluation.  Gate: >= 10x, with
  identical medoids/labels/iterations asserted first.
* **quality metrics** -- seed: nested Python pair loops.  New:
  condensed-array formulations (bincount reductions).  Reported and
  gated lightly; headline numbers ride along.

Headline numbers persist to ``BENCH_clustering.json`` (uploaded as a CI
artifact); every persisted entry carries its gate so
``benchmarks/check_gates.py`` can fail the job on regression.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.clustering import quality
from repro.clustering.kmedoids import k_medoids
from repro.clustering.linkage import agglomerative
from repro.clustering.reference import (
    reference_agglomerative,
    reference_cophenetic_correlation,
    reference_k_medoids,
    reference_pair_counts,
    reference_silhouette_score,
)
from repro.distance.dissimilarity import DissimilarityMatrix

#: The acceptance bar is 10x on an idle machine (measured ~14x
#: agglomerative at n=3500, ~40x PAM at n=1500).  Wall-clock asserts
#: flake on contended shared runners, so CI lowers the gates (and sizes)
#: via env vars instead of turning red on timing noise.
SPEEDUP_BAR = float(os.environ.get("CLUSTERING_SPEEDUP_BAR", "10.0"))
AGGLOMERATIVE_N = int(os.environ.get("CLUSTERING_BENCH_N", "3500"))
PAM_N = int(os.environ.get("CLUSTERING_PAM_N", "1500"))


def _matrix(n: int, seed: int = 42) -> DissimilarityMatrix:
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 4))
    square = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    return DissimilarityMatrix.from_square(square)


def test_agglomerative_speedup(table, bench_store, alternating):
    """>= 10x on hierarchical clustering, dendrogram identical."""
    n = AGGLOMERATIVE_N
    matrix = _matrix(n)

    fast = agglomerative(matrix, "average")
    start = time.perf_counter()
    seed_dendrogram = reference_agglomerative(matrix, "average")
    seed_time = time.perf_counter() - start
    assert fast.merges == seed_dendrogram.merges, "dendrogram diverged from seed"
    fast_time = alternating(lambda: agglomerative(matrix, "average"))[0]

    speedup = seed_time / fast_time
    table(
        f"T-CLUSTERING: agglomerative (average linkage, n={n})",
        [
            ("seed argmin square", f"{seed_time:.2f} s", "O(n^3), full square"),
            ("NN-chain condensed", f"{fast_time:.2f} s", "O(n^2), condensed"),
            ("speedup", f"{speedup:.1f}x", f"gate {SPEEDUP_BAR}x"),
        ],
        ("path", "time", "notes"),
    )
    bench_store(
        "clustering",
        {
            "agglomerative": {
                "n": n,
                "method": "average",
                "seed_s": round(seed_time, 3),
                "fast_s": round(fast_time, 3),
                "speedup": round(speedup, 2),
                "gate": SPEEDUP_BAR,
            }
        },
    )
    assert speedup >= SPEEDUP_BAR, (
        f"agglomerative speedup {speedup:.1f}x below the {SPEEDUP_BAR}x bar"
    )


def test_kmedoids_speedup(table, bench_store, alternating):
    """>= 10x on PAM, identical medoids/labels (same SWAP trajectory)."""
    n, k, iterations = PAM_N, 8, 3
    matrix = _matrix(n, seed=7)

    fast = k_medoids(matrix, k, max_iterations=iterations)
    start = time.perf_counter()
    seed_result = reference_k_medoids(matrix, k, max_iterations=iterations)
    seed_time = time.perf_counter() - start
    assert fast.labels == seed_result.labels
    assert fast.medoids == seed_result.medoids
    assert fast.iterations == seed_result.iterations
    assert abs(fast.cost - seed_result.cost) <= 1e-9
    fast_time = alternating(lambda: k_medoids(matrix, k, max_iterations=iterations))[0]

    speedup = seed_time / fast_time
    table(
        f"T-CLUSTERING: k-medoids (n={n}, k={k}, {iterations} SWAP iterations)",
        [
            ("seed PAM re-scoring", f"{seed_time:.2f} s", "O(k n^2) per iter"),
            ("FasterPAM-style deltas", f"{fast_time:.2f} s", "O(n^2) per iter"),
            ("speedup", f"{speedup:.1f}x", f"gate {SPEEDUP_BAR}x"),
        ],
        ("path", "time", "notes"),
    )
    bench_store(
        "clustering",
        {
            "k_medoids": {
                "n": n,
                "k": k,
                "iterations": iterations,
                "seed_s": round(seed_time, 3),
                "fast_s": round(fast_time, 3),
                "speedup": round(speedup, 2),
                "gate": SPEEDUP_BAR,
            }
        },
    )
    assert speedup >= SPEEDUP_BAR, (
        f"k-medoids speedup {speedup:.1f}x below the {SPEEDUP_BAR}x bar"
    )


def test_quality_metrics_speedup(table, bench_store, alternating):
    """Condensed-array metrics vs the seed's nested pair loops."""
    n = min(PAM_N, 1500)
    matrix = _matrix(n, seed=11)
    rng = np.random.default_rng(13)
    labels = [int(x) for x in rng.integers(0, 8, size=n)]
    truth = [int(x) for x in rng.integers(0, 6, size=n)]
    dendrogram = agglomerative(matrix, "average")

    assert quality.silhouette_score(matrix, labels) == pytest.approx(
        reference_silhouette_score(matrix, labels), abs=1e-9
    )
    assert quality._pair_counts(truth, labels) == reference_pair_counts(truth, labels)
    assert quality.cophenetic_correlation(matrix, dendrogram) == pytest.approx(
        reference_cophenetic_correlation(matrix, dendrogram), abs=1e-9
    )

    sil_seed = alternating(lambda: reference_silhouette_score(matrix, labels), repeats=1)[0]
    sil_fast = alternating(lambda: quality.silhouette_score(matrix, labels))[0]
    pairs_seed = alternating(lambda: reference_pair_counts(truth, labels), repeats=1)[0]
    pairs_fast = alternating(lambda: quality._pair_counts(truth, labels))[0]
    coph_seed = alternating(
        lambda: reference_cophenetic_correlation(matrix, dendrogram), repeats=1
    )[0]
    coph_fast = alternating(lambda: quality.cophenetic_correlation(matrix, dendrogram))[0]

    rows = [
        ("silhouette", sil_seed, sil_fast, 2.0),
        ("rand/ARI pair counts", pairs_seed, pairs_fast, 10.0),
        ("cophenetic correlation", coph_seed, coph_fast, 5.0),
    ]
    payload = {}
    printable = []
    for name, seed_time, fast_time, full_gate in rows:
        speedup = seed_time / fast_time
        gate = min(full_gate, SPEEDUP_BAR)
        key = name.split()[0].replace("/", "_")
        payload[key] = {
            "n": n,
            "seed_ms": round(seed_time * 1e3, 2),
            "fast_ms": round(fast_time * 1e3, 2),
            "speedup": round(speedup, 2),
            "gate": gate,
        }
        printable.append(
            (name, f"{seed_time * 1e3:.1f} ms", f"{fast_time * 1e3:.1f} ms",
             f"{speedup:.1f}x", f"{gate}x")
        )
    table(
        f"T-CLUSTERING: quality metrics (n={n})",
        printable,
        ("metric", "seed", "condensed", "speedup", "gate"),
    )
    bench_store("clustering", {"quality": payload})
    for key, entry in payload.items():
        assert entry["speedup"] >= entry["gate"], (
            f"{key} speedup {entry['speedup']}x below the {entry['gate']}x bar"
        )


@pytest.mark.benchmark(group="clustering")
def test_bench_agglomerative_fast_path(benchmark):
    matrix = _matrix(400, seed=3)
    dendrogram = benchmark(lambda: agglomerative(matrix, "ward"))
    assert dendrogram.num_leaves == 400


@pytest.mark.benchmark(group="clustering")
def test_bench_kmedoids_fast_path(benchmark):
    matrix = _matrix(400, seed=5)
    result = benchmark(lambda: k_medoids(matrix, 6))
    assert len(result.medoids) == 6
