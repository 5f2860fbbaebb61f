"""Shared fixtures and reporting helpers for the benchmark suite.

Every module here regenerates one experiment row from DESIGN.md
(paper artifact -> measured reproduction).  Benchmarks both *time* the
operation under ``pytest-benchmark`` and *assert* the paper's claim, so
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction
gate.  Human-readable tables print with ``-s``; EXPERIMENTS.md records
the reference numbers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from check_gates import bench_dir


def persist_bench(name: str, payload: dict) -> Path:
    """Merge measured numbers into ``BENCH_<name>.json`` in :func:`bench_dir`.

    Benchmarks persist their headline results so the perf trajectory is
    recorded per PR (CI records with ``REPRO_BENCH_RECORD=1`` and uploads
    every ``BENCH_*.json`` as an artifact).  Merging keeps one file per
    bench module with the latest value under each key.
    """
    directory = bench_dir()
    directory.mkdir(exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError):
            existing = {}
    existing.update(payload)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return path


def report(title: str, rows: list[tuple], headers: tuple) -> None:
    """Print an aligned table (visible with ``pytest -s``)."""
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def best_of_alternating(*workloads, repeats: int = 3, reset=None) -> tuple[float, ...]:
    """Best times of workloads whose runs alternate.

    Every side then samples the same stretches of host load, so a burst
    on a shared machine cannot land on one side of a ratio only.
    ``reset``, when given, runs untimed after each round of runs, to undo
    what they changed before the next round.
    """
    best = [float("inf")] * len(workloads)
    for _ in range(repeats):
        for slot, fn in enumerate(workloads):
            start = time.perf_counter()
            fn()
            best[slot] = min(best[slot], time.perf_counter() - start)
        if reset is not None:
            reset()
    return tuple(best)


@pytest.fixture
def table():
    return report


@pytest.fixture
def alternating():
    """The :func:`best_of_alternating` timer, as a fixture: the speedup
    gates time every side of their ratios with it."""
    return best_of_alternating


@pytest.fixture
def bench_store():
    """The :func:`persist_bench` writer, as a fixture (no package import
    needed from benchmark modules)."""
    return persist_bench
