"""T-STORAGE -- the sharded condensed-matrix backends at scale.

The storage tentpole's claim is twofold: (1) the float64 memmap backend
is *bit-identical* to the in-memory default -- same dendrograms, same
medoids, digest for digest -- and (2) it decouples peak RSS from the
triangle size, so clustering runs at object counts whose condensed
matrix could never sit in RAM.  This bench runs the synthetic-scale
probe (:mod:`repro.apps.storage_probe`) in subprocesses (one workload
per process, so ``ru_maxrss`` measures exactly that workload) for both
scenarios on both float64 backends, asserts digest equality and the
RSS ceiling, and persists the numbers to ``BENCH_storage.json``.

Scale knobs: ``STORAGE_BENCH_N`` (default 2000 keeps the tier-1 suite
fast) and ``STORAGE_RSS_FLOOR_MB`` (the interpreter+numpy baseline CI
can relax).  Entries persist keyed by ``n`` so a one-time acceptance
run at n=50,000 records alongside -- not instead of -- the everyday
numbers; ``check_gates.py`` re-validates every persisted RSS ceiling.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STORAGE_BENCH_N = int(os.environ.get("STORAGE_BENCH_N", "2000"))
#: Process floor: interpreter + numpy import + probe bookkeeping.
#: Importing the probe peaks at ~40 MB locally; shared CI runners pad
#: their allocators.
RSS_FLOOR_MB = float(os.environ.get("STORAGE_RSS_FLOOR_MB", "700"))
#: Shard-block LRU budget the memmap probes run under.
CACHE_BYTES = 256 << 20


def _triangle_mb(n: int) -> float:
    return n * (n - 1) / 2 * 8 / (1 << 20)


def rss_cap_mb(scenario: str, n: int) -> float:
    """The ceiling a memmap run must stay under.

    PAM streams panels off a store of several blocks, so its cap is
    *well below* the triangle: the block cache plus panel scratch (a
    single-block store -- n <= 2048 at the default block size -- runs
    PAM's square evaluator instead, a few blocks of memory, which the
    cache term covers).  Agglomerative keeps one working copy of the
    triangle resident by design (refaulting the working set every merge
    is pathological): a single memmap block with a cache that holds it,
    beside the source's own block cache.  Its tie check runs before
    that copy exists and its replay refills it, so its honest cap is
    ~1.5x the triangle -- the win over dense is the absent second square
    materialisation, not the working set itself.
    """
    triangle = _triangle_mb(n)
    if scenario == "pam":
        return RSS_FLOOR_MB + CACHE_BYTES / (1 << 20) + 0.2 * triangle
    return RSS_FLOOR_MB + 1.5 * triangle


def _probe(scenario: str, backend: str, n: int, tmp_path) -> dict:
    report_path = os.path.join(str(tmp_path), f"{scenario}-{backend}.json")
    argv = [
        sys.executable,
        "-m",
        "repro.apps.storage_probe",
        "--scenario",
        scenario,
        "--n",
        str(n),
        "--backend",
        backend,
        "--k",
        "4",
        "--json-out",
        report_path,
    ]
    if backend == "memmap":
        argv += ["--cache-bytes", str(CACHE_BYTES), "--store-dir", str(tmp_path)]
    completed = subprocess.run(
        argv,
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert completed.returncode == 0, completed.stderr
    with open(report_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_storage_backends_at_scale(tmp_path, table, bench_store):
    """Digest-identical float64 backends; memmap RSS under its ceiling."""
    n = STORAGE_BENCH_N
    #: Above this, the in-memory reference run itself needs the full
    #: triangle in RAM -- the regime the backend exists to escape -- so
    #: acceptance-scale runs record without the cross-backend digest.
    cross_check = n <= 10_000
    entries: dict[str, dict] = {}
    rows = []
    for scenario in ("agglomerative", "pam"):
        report = _probe(scenario, "memmap", n, tmp_path)
        cap = round(rss_cap_mb(scenario, n), 1)
        assert report["peak_rss_mb"] <= cap, (
            f"{scenario} memmap RSS {report['peak_rss_mb']} MB "
            f"over the {cap} MB ceiling"
        )
        if cross_check:
            reference = _probe(scenario, "memory", n, tmp_path)
            assert report["digest"] == reference["digest"], (
                f"{scenario}: memmap diverged from the in-memory reference"
            )
            rows.append(
                (
                    scenario,
                    "memory",
                    reference["seconds"],
                    reference["peak_rss_mb"],
                    "-",
                )
            )
        entries[f"{scenario}_n{n}"] = {
            "n": n,
            "backend": "memmap",
            "seconds": report["seconds"],
            "fill_seconds": report["fill_seconds"],
            "cluster_seconds": report["cluster_seconds"],
            "peak_rss_mb": report["peak_rss_mb"],
            "rss_cap_mb": cap,
            "digest": report["digest"],
            "digest_checked": cross_check,
        }
        rows.append(
            (scenario, "memmap", report["seconds"], report["peak_rss_mb"], cap)
        )
    table(
        f"condensed storage backends, n={n}",
        rows,
        ("scenario", "backend", "seconds", "peak RSS (MB)", "cap (MB)"),
    )
    bench_store("storage", entries)
