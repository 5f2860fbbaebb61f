"""Scale probe for the condensed storage backends.

Fills a synthetic tie-free dissimilarity matrix block-by-block (never
materialising the full triangle in Python), runs one clustering
scenario on it, and reports wall time, peak RSS and a result digest as
JSON.  The benchmark suite and the RSS regression tests run this in a
subprocess so the RSS high-water mark measures exactly one workload;
the n=50,000 acceptance runs use it directly::

    PYTHONPATH=src python -m repro.apps.storage_probe \
        --scenario pam --n 50000 --backend memmap

The synthetic fill is a fixed bijection of the condensed positions:
``value(p) = ((p * ODD) mod 2^53 + 1) * 2^-53``.  Multiplying by an odd
constant is invertible mod ``2^53``, so every pairwise distance is
distinct (no linkage ties -- the NN-chain never needs its replay pass)
and exactly representable in float64 (bit-identical across backends).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import resource
import sys
import time

import numpy as np

from repro.clustering.kmedoids import k_medoids
from repro.clustering.linkage import agglomerative
from repro.distance.dissimilarity import DissimilarityMatrix, condensed_size
from repro.distance.store import StoreSpec, default_store_spec
from repro.types import LinkageMethod

#: Odd multiplier for the position-scrambling bijection (the golden
#: ratio's 64-bit fixed-point form, masked to 53 bits in use).
_SCRAMBLE = 0x9E3779B97F4A7C15
_MASK53 = (1 << 53) - 1

SCENARIOS = ("agglomerative", "pam")


def synthetic_matrix(
    n: int, spec: StoreSpec, *, fill_block: int = 1 << 21
) -> DissimilarityMatrix:
    """A tie-free synthetic matrix on ``spec``'s backend, filled streamed."""
    matrix = DissimilarityMatrix.zeros(n, store_spec=spec)
    size = condensed_size(n)
    for start in range(0, size, fill_block):
        stop = min(start + fill_block, size)
        positions = np.arange(start, stop, dtype=np.uint64)
        scrambled = (positions * np.uint64(_SCRAMBLE)) & np.uint64(_MASK53)
        matrix.write_condensed(
            start, (scrambled.astype(np.float64) + 1.0) * 2.0**-53
        )
    return matrix


def peak_rss_kb() -> int:
    """This process's peak resident set, in kilobytes.

    Prefers ``VmHWM`` from ``/proc/self/status``: it is tracked per
    address space, so it resets at ``exec`` and measures only this
    program.  ``ru_maxrss`` does not -- a process forked from a fat
    parent (a long pytest session) inherits the parent's resident size
    as its starting high-water mark, which once inflated an n=2000
    probe's reading past a cap sized for a 15 MB triangle.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            status = handle.read()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match:
            return int(match.group(1))
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _digest(parts: list[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def run_probe(
    scenario: str,
    n: int,
    spec: StoreSpec,
    *,
    k: int = 8,
    linkage: LinkageMethod | str = LinkageMethod.AVERAGE,
) -> dict[str, object]:
    """Build the synthetic matrix, run ``scenario``, report the numbers.

    The report's ``peak_rss_mb`` is the process high-water mark
    (:func:`peak_rss_kb`), which is only meaningful when the probe is
    the dominant allocation in its process -- run it in a subprocess.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    started = time.perf_counter()
    matrix = synthetic_matrix(n, spec)
    fill_seconds = time.perf_counter() - started

    clustered = time.perf_counter()
    if scenario == "agglomerative":
        tree = agglomerative(matrix, linkage)
        parts = [
            np.array(
                [(m.left, m.right, m.size) for m in tree.merges], dtype=np.int64
            ).tobytes(),
            np.array([m.height for m in tree.merges], dtype=np.float64).tobytes(),
        ]
    else:
        result = k_medoids(matrix, k)
        parts = [
            np.array(result.labels, dtype=np.int64).tobytes(),
            np.array(result.medoids, dtype=np.int64).tobytes(),
            np.array([result.cost], dtype=np.float64).tobytes(),
        ]
    cluster_seconds = time.perf_counter() - clustered

    peak_kb = peak_rss_kb()
    return {
        "scenario": scenario,
        "n": n,
        "backend": matrix.store_kind,
        "block_entries": spec.block_entries,
        "cache_bytes": spec.cache_bytes,
        "fill_seconds": round(fill_seconds, 3),
        "cluster_seconds": round(cluster_seconds, 3),
        "seconds": round(fill_seconds + cluster_seconds, 3),
        "peak_rss_mb": round(peak_kb / 1024.0, 1),
        "digest": _digest(parts),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.storage_probe",
        description="run one clustering scenario on a synthetic matrix "
        "and report time, peak RSS and a result digest as JSON",
    )
    parser.add_argument("--scenario", choices=SCENARIOS, required=True)
    parser.add_argument("--n", type=int, required=True, help="object count")
    parser.add_argument("--backend", default=None, help="memory|memmap")
    parser.add_argument("--block-entries", type=int, default=None)
    parser.add_argument("--cache-bytes", type=int, default=None)
    parser.add_argument("--store-dir", default=None)
    parser.add_argument("--k", type=int, default=8, help="clusters for pam")
    parser.add_argument(
        "--linkage", default="average", help="method for agglomerative"
    )
    parser.add_argument("--json-out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    spec = default_store_spec()
    overrides = {
        "backend": args.backend,
        "block_entries": args.block_entries,
        "cache_bytes": args.cache_bytes,
        "directory": args.store_dir,
    }
    spec = dataclasses.replace(
        spec,
        **{name: value for name, value in overrides.items() if value is not None},
    )
    report = run_probe(
        args.scenario, args.n, spec, k=args.k, linkage=args.linkage
    )
    payload = json.dumps(report, sort_keys=True)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
