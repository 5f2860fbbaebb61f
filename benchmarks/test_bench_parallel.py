"""T-PARALLEL -- the parallel execution engine vs serial scheduling.

The Figure 11 construction decomposes into ``C(k, 2) x attributes``
independent comparison runs; PR 2/PR 4 proved their protocol messages
schedule-independent, and the parallel engine finally *exploits* that
independence with real worker threads.  The win a deployment cares about
is wall-clock: protocol rounds of a distributed consortium spend their
time in flight, so the network simulates per-message link latency
(:attr:`ProtocolSuiteConfig.link_latency`) and the parallel schedule
overlaps those round trips across (attribute, pair) runs -- on multicore
hardware the GIL-releasing numpy steps overlap too, stacking both wins.

Headline measurements, persisted to ``BENCH_parallel.json`` (required
artifact of ``benchmarks/check_gates.py``):

* **Construction** at k=4 sites x 4 mixed attributes (2 numeric,
  2 alphanumeric; 24 comparison runs, 64 in-flight messages):
  ``construction_schedule="parallel"`` with ``max_workers=4`` must beat
  sequential by >= 2x (the acceptance gate; measured ~3x on one core --
  pure latency overlap -- and more on multicore).  ``max_workers=2``
  rides along with a regression bar.
* **Batch serving**: :meth:`SessionBatch.run_many_parallel` over 8
  datasets with 4 workers vs :meth:`run_many`, same >= wall-clock shape.

Every timing is trusted only after the outputs are asserted
bit-identical across policies -- the determinism contract is what makes
the parallel number *free* rather than a correctness trade.
"""

from __future__ import annotations

import functools
import os

from repro.apps.sessions import SessionBatch
from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.data.alphabet import DNA_ALPHABET
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.types import AttributeType

#: Acceptance gate for parallel(w=4) construction vs sequential; CI
#: relaxes via env on noisy shared runners.
SPEEDUP_BAR = float(os.environ.get("PARALLEL_SPEEDUP_BAR", "2.0"))
#: Regression bar for the w=2 point (ideal ~1.9x; keep generous margin).
W2_BAR = float(os.environ.get("PARALLEL_W2_BAR", "1.2"))
#: Bar for concurrent whole-session serving (8 sessions over 4 workers).
BATCH_BAR = float(os.environ.get("PARALLEL_BATCH_BAR", "1.8"))
#: Simulated per-message link delay; latency-bound by design so the
#: measurement is stable on loaded single-core runners.
LINK_LATENCY = float(os.environ.get("PARALLEL_LINK_LATENCY_MS", "8")) / 1e3
BATCH_LATENCY = float(os.environ.get("PARALLEL_BATCH_LATENCY_MS", "5")) / 1e3

SITES = ("A", "B", "C", "D")
SCHEMA = [
    AttributeSpec("age", AttributeType.NUMERIC, precision=0),
    AttributeSpec("score", AttributeType.NUMERIC, precision=2),
    AttributeSpec("dna", AttributeType.ALPHANUMERIC, alphabet=DNA_ALPHABET),
    AttributeSpec("plate", AttributeType.ALPHANUMERIC, alphabet=DNA_ALPHABET),
]


def _construction_partitions(rows_per_site: int = 10):
    def row(i: int):
        return [
            (i * 37) % 90,
            ((i * 91) % 700) / 100.0,
            "ACGT"[(i % 4) :] * 2 + "AC",
            "TGCA"[(i % 3) :] * 2,
        ]

    return {
        site: DataMatrix(
            SCHEMA,
            [row(i) for i in range(s * rows_per_site, (s + 1) * rows_per_site)],
        )
        for s, site in enumerate(SITES)
    }


def _construction_config(policy: str, workers: int) -> SessionConfig:
    return SessionConfig(
        num_clusters=3,
        master_seed=31,
        max_workers=workers,
        suite=ProtocolSuiteConfig(
            construction_schedule=policy, link_latency=LINK_LATENCY
        ),
    )


def test_parallel_construction_speedup(table, bench_store, alternating):
    """>= 2x wall-clock for parallel(w=4) construction at k=4, bit-exact."""
    partitions = _construction_partitions()
    variants = {
        ("sequential", 1): None,
        ("parallel", 2): None,
        ("parallel", 4): None,
    }

    # Determinism first: no timing is trusted until every policy lands
    # on identical bits (matrices and traffic totals).
    reference = None
    for policy, workers in variants:
        session = SessionBatch(
            _construction_config(policy, workers), list(SITES)
        ).session(partitions)
        session.execute_protocol()
        state = (
            session.final_matrix().condensed.tobytes(),
            {
                spec.name: session.third_party.attribute_matrix(spec.name)
                .condensed.tobytes()
                for spec in SCHEMA
            },
            session.total_bytes(),
        )
        if reference is None:
            reference = state
        assert state == reference, f"{policy}(w={workers}) diverged"

    batches = {
        variant: SessionBatch(_construction_config(*variant), list(SITES))
        for variant in variants
    }
    sessions = {}

    def stage():
        # A session constructs once: stage a fresh one per variant, untimed.
        for variant, batch in batches.items():
            sessions[variant] = batch.session(partitions)

    def construct(variant):
        sessions[variant].execute_protocol()

    stage()
    timings = alternating(
        *(functools.partial(construct, variant) for variant in variants),
        repeats=5,
        reset=stage,
    )
    variants = dict(zip(variants, timings))

    sequential = variants[("sequential", 1)]
    speedup_w4 = sequential / variants[("parallel", 4)]
    speedup_w2 = sequential / variants[("parallel", 2)]
    messages = 4 * len(SITES) + 2 * 6 * len(SCHEMA)  # locals + (masked, block) per pair
    table(
        f"T-PARALLEL: k=4 construction, 4 mixed attributes, "
        f"{LINK_LATENCY * 1e3:.0f} ms link latency",
        [
            ("sequential", f"{sequential * 1e3:.0f} ms", "1.0x"),
            (
                "parallel w=2",
                f"{variants[('parallel', 2)] * 1e3:.0f} ms",
                f"{speedup_w2:.1f}x (gate {W2_BAR}x)",
            ),
            (
                "parallel w=4",
                f"{variants[('parallel', 4)] * 1e3:.0f} ms",
                f"{speedup_w4:.1f}x (gate {SPEEDUP_BAR}x)",
            ),
        ],
        ("schedule", "construction", "speedup"),
    )
    bench_store(
        "parallel",
        {
            "construction_k4": {
                "sites": len(SITES),
                "attributes": len(SCHEMA),
                "scheduled_messages": messages,
                "link_latency_ms": LINK_LATENCY * 1e3,
                "sequential_ms": round(sequential * 1e3, 1),
                "parallel_w2_ms": round(variants[("parallel", 2)] * 1e3, 1),
                "parallel_w4_ms": round(variants[("parallel", 4)] * 1e3, 1),
                "speedup_w2": {"speedup": round(speedup_w2, 2), "gate": W2_BAR},
                "speedup": round(speedup_w4, 2),
                "gate": SPEEDUP_BAR,
            }
        },
    )
    assert speedup_w4 >= SPEEDUP_BAR, (
        f"parallel(w=4) construction speedup {speedup_w4:.1f}x below the "
        f"{SPEEDUP_BAR}x bar"
    )
    assert speedup_w2 >= W2_BAR, (
        f"parallel(w=2) construction speedup {speedup_w2:.1f}x below the "
        f"{W2_BAR}x bar"
    )


def test_run_many_parallel_throughput(table, bench_store, alternating):
    """Concurrent whole-session serving over one consortium's pool."""
    schema = [AttributeSpec("v", AttributeType.NUMERIC, precision=2)]
    config = SessionConfig(
        num_clusters=2,
        master_seed=7,
        max_workers=4,
        suite=ProtocolSuiteConfig(link_latency=BATCH_LATENCY),
    )
    batch = SessionBatch(config, ["A", "B"])
    datasets = [
        {
            "A": DataMatrix(schema, [[((i * s) % 97) / 4.0] for i in range(10)]),
            "B": DataMatrix(schema, [[((i * s + 13) % 89) / 4.0] for i in range(10)]),
        }
        for s in range(1, 9)
    ]

    sequential_results = batch.run_many(datasets)
    parallel_results = batch.run_many_parallel(datasets)
    assert [r.to_payload() for r in parallel_results] == [
        r.to_payload() for r in sequential_results
    ], "parallel serving diverged from run_many"

    sequential_time, parallel_time = alternating(
        lambda: batch.run_many(datasets),
        lambda: batch.run_many_parallel(datasets),
        repeats=2,
    )

    speedup = sequential_time / parallel_time
    throughput = len(datasets) / parallel_time
    table(
        f"T-PARALLEL: batch serving, 8 sessions x 2 sites, "
        f"{BATCH_LATENCY * 1e3:.0f} ms link latency, 4 workers",
        [
            ("run_many (serial)", f"{sequential_time * 1e3:.0f} ms", "1.0x"),
            (
                "run_many_parallel",
                f"{parallel_time * 1e3:.0f} ms",
                f"{speedup:.1f}x (gate {BATCH_BAR}x)",
            ),
            ("throughput", f"{throughput:.0f} sessions/s", ""),
        ],
        ("path", "8 sessions", "speedup"),
    )
    bench_store(
        "parallel",
        {
            "batch_serving": {
                "sessions": len(datasets),
                "workers": 4,
                "link_latency_ms": BATCH_LATENCY * 1e3,
                "run_many_ms": round(sequential_time * 1e3, 1),
                "run_many_parallel_ms": round(parallel_time * 1e3, 1),
                "sessions_per_second": round(throughput, 1),
                "speedup": round(speedup, 2),
                "gate": BATCH_BAR,
            }
        },
    )
    assert speedup >= BATCH_BAR, (
        f"run_many_parallel speedup {speedup:.1f}x below the {BATCH_BAR}x bar"
    )
