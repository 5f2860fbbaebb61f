"""T-VEC -- vectorized protocol engine vs the scalar reference.

The protocol construction phase (mask, respond, unmask -- the paper's
Figures 4-6 and 8-10) is rewritten as array operations over block-drawn
randomness; :mod:`repro.core.reference` preserves the original
per-element implementation as the executable specification.  This module
times both on identical inputs and asserts the acceptance bar: at least
a 5x speedup on protocol construction, with byte-identical messages
(the equivalence itself is pinned by ``tests/test_vectorized_equivalence``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import alphanumeric as alnum_vec
from repro.core import numeric as num_vec
from repro.core import reference as ref
from repro.crypto.prng import make_prng
from repro.data.alphabet import DNA_ALPHABET
from repro.distance.edit import edit_distance_from_ccm

MASK_BITS = 64
N = 256  # initiator/responder vector sizes for the numeric phase
STRINGS = 16  # per-site string counts for the alphanumeric phase
LENGTH = 32

#: The acceptance bar is 5x on an idle machine (measured 8x numeric,
#: 80x+ alphanumeric).  Wall-clock asserts flake on contended shared
#: runners, so CI lowers the gate via this env var instead of turning
#: red on timing noise; local/acceptance runs keep the full bar.
SPEEDUP_BAR = float(os.environ.get("VECTORIZED_SPEEDUP_BAR", "5.0"))


def _numeric_inputs():
    rng = np.random.default_rng(7)
    values_j = [int(v) for v in rng.integers(-10_000, 10_000, size=N)]
    values_k = [int(v) for v in rng.integers(-10_000, 10_000, size=N)]
    return values_j, values_k


def _numeric_construction(module, values_j, values_k):
    masked = module.initiator_mask_batch(
        values_j, make_prng(1), make_prng(2), MASK_BITS
    )
    matrix = module.responder_matrix_batch(values_k, masked, make_prng(1))
    return module.third_party_unmask_batch(matrix, make_prng(2), MASK_BITS)


def _dna_strings(seed: int):
    rng = np.random.default_rng(seed)
    return [
        "".join("ACGT"[i] for i in rng.integers(0, 4, size=LENGTH))
        for _ in range(STRINGS)
    ]


def test_numeric_construction_speedup(table, alternating):
    values_j, values_k = _numeric_inputs()
    scalar, vectorized = alternating(
        lambda: _numeric_construction(ref, values_j, values_k),
        lambda: _numeric_construction(num_vec, values_j, values_k),
    )
    speedup = scalar / vectorized
    table(
        "T-VEC: numeric construction phase (batch mode, n=m=256, 64-bit masks)",
        [
            ("scalar reference", f"{scalar * 1e3:.1f} ms"),
            ("vectorized engine", f"{vectorized * 1e3:.1f} ms"),
            ("speedup", f"{speedup:.1f}x"),
        ],
        ("engine", "time"),
    )
    assert speedup >= SPEEDUP_BAR, (
        f"speedup {speedup:.1f}x below the {SPEEDUP_BAR}x acceptance bar"
    )


def test_alphanumeric_construction_speedup(table, alternating):
    strings_j = _dna_strings(1)
    strings_k = _dna_strings(2)

    def scalar_run():
        masked = ref.initiator_mask_strings(strings_j, DNA_ALPHABET, make_prng(1))
        matrices = alnum_vec.responder_ccm_matrices(strings_k, masked, DNA_ALPHABET)
        tp = make_prng(1)
        return [
            [
                edit_distance_from_ccm(
                    ref.third_party_decode_ccm(m, DNA_ALPHABET, tp)
                )
                for m in row
            ]
            for row in matrices
        ]

    def vectorized_run():
        masked = alnum_vec.initiator_mask_strings(
            strings_j, DNA_ALPHABET, make_prng(1)
        )
        matrices = alnum_vec.responder_ccm_matrices(strings_k, masked, DNA_ALPHABET)
        return alnum_vec.third_party_distances(matrices, DNA_ALPHABET, make_prng(1))

    assert np.asarray(scalar_run()).tolist() == vectorized_run().tolist()
    scalar = alternating(scalar_run, repeats=2)[0]
    vectorized = alternating(vectorized_run)[0]
    speedup = scalar / vectorized
    table(
        "T-VEC: alphanumeric construction phase (16x16 DNA strings, length 32)",
        [
            ("scalar reference", f"{scalar * 1e3:.1f} ms"),
            ("vectorized engine", f"{vectorized * 1e3:.1f} ms"),
            ("speedup", f"{speedup:.1f}x"),
        ],
        ("engine", "time"),
    )
    assert speedup >= SPEEDUP_BAR, (
        f"speedup {speedup:.1f}x below the {SPEEDUP_BAR}x acceptance bar"
    )


def test_block_draw_speedup_hash_drbg(table, alternating):
    """Block word generation vs scalar draws for the default DRBG."""
    count = 50_000

    def scalar_run():
        g = make_prng("bench")
        for _ in range(count):
            g.next_uint64()

    def block_run():
        make_prng("bench").next_words(count)

    scalar = alternating(scalar_run, repeats=2)[0]
    block = alternating(block_run)[0]
    speedup = scalar / block
    table(
        "T-VEC: HashDRBG word generation (50k words)",
        [
            ("scalar draws", f"{scalar * 1e3:.1f} ms"),
            ("block draw", f"{block * 1e3:.1f} ms"),
            ("speedup", f"{speedup:.1f}x"),
        ],
        ("path", "time"),
    )
    # Locally ~4x; the loose bound only guards against the block path
    # regressing to scalar speed, without flaking on contended CI runners.
    assert speedup >= min(1.5, SPEEDUP_BAR)


@pytest.mark.benchmark(group="vectorized")
def test_bench_numeric_construction_vectorized(benchmark):
    values_j, values_k = _numeric_inputs()
    result = benchmark(lambda: _numeric_construction(num_vec, values_j, values_k))
    assert result.shape == (N, N)


@pytest.mark.benchmark(group="vectorized")
def test_bench_alphanumeric_distances_vectorized(benchmark):
    strings_j = _dna_strings(3)
    strings_k = _dna_strings(4)
    masked = alnum_vec.initiator_mask_strings(strings_j, DNA_ALPHABET, make_prng(1))
    matrices = alnum_vec.responder_ccm_matrices(strings_k, masked, DNA_ALPHABET)
    result = benchmark(
        lambda: alnum_vec.third_party_distances(matrices, DNA_ALPHABET, make_prng(1))
    )
    assert result.shape == (STRINGS, STRINGS)
