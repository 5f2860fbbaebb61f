"""Fail if any persisted benchmark measurement regressed past its gate.

Walks every ``BENCH_*.json`` in :func:`bench_dir`; any JSON object carrying
both a ``speedup`` and a ``gate`` key is a gated measurement, and the
recorded speedup must meet the recorded gate.  Objects carrying both
``peak_rss_mb`` and ``rss_cap_mb`` are gated the other way around: the
recorded peak RSS must stay under the recorded ceiling (the storage
bench's memory-bound runs).  Benchmarks persist the gate they actually
ran under (CI relaxes the bars via env vars for noisy shared runners),
so this check is consistent in both environments while still catching a
bench that silently recorded a regression.

Usage: ``python benchmarks/check_gates.py`` (exit code 1 on regression);
``REPRO_BENCH_RECORD=1`` checks the committed record at the repo root.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_dir() -> Path:
    """Where benchmarks persist ``BENCH_*.json`` and this check reads them.

    ``REPRO_BENCH_RECORD=1`` (CI, and a change's final recorded run)
    selects the committed files at the repo root; otherwise a run's
    host-dependent figures go to ``.bench_out/``, so a plain test run
    leaves the committed record untouched.
    """
    if os.environ.get("REPRO_BENCH_RECORD") == "1":
        return REPO_ROOT
    return REPO_ROOT / ".bench_out"


#: Artifacts that must exist for the gate check to pass: a bench that
#: silently stopped persisting would otherwise "pass" by absence.
REQUIRED_BENCH_FILES = (
    "BENCH_clustering.json",
    "BENCH_faults.json",
    "BENCH_incremental.json",
    "BENCH_parallel.json",
    "BENCH_sockets.json",
    "BENCH_storage.json",
    "BENCH_transport.json",
)


def gated_entries(node, path=""):
    """Yield (path, speedup, gate) for every gated object in the tree."""
    if isinstance(node, dict):
        if "speedup" in node and "gate" in node:
            yield path, float(node["speedup"]), float(node["gate"])
        for key, value in node.items():
            yield from gated_entries(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from gated_entries(value, f"{path}[{index}]")


def rss_entries(node, path=""):
    """Yield (path, peak_rss_mb, rss_cap_mb) for every RSS-gated object."""
    if isinstance(node, dict):
        if "peak_rss_mb" in node and "rss_cap_mb" in node:
            yield path, float(node["peak_rss_mb"]), float(node["rss_cap_mb"])
        for key, value in node.items():
            yield from rss_entries(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from rss_entries(value, f"{path}[{index}]")


def main() -> int:
    failures = []
    checked = 0
    directory = bench_dir()
    for required in REQUIRED_BENCH_FILES:
        if not (directory / required).exists():
            failures.append(
                f"{directory / required}: missing (bench stopped persisting?)"
            )
    for bench_file in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = json.loads(bench_file.read_text())
        except (OSError, ValueError) as error:
            failures.append(f"{bench_file.name}: unreadable ({error})")
            continue
        for path, speedup, gate in gated_entries(payload):
            checked += 1
            status = "ok" if speedup >= gate else "REGRESSED"
            print(f"{bench_file.name}:{path}: {speedup}x (gate {gate}x) {status}")
            if speedup < gate:
                failures.append(
                    f"{bench_file.name}:{path}: {speedup}x below gate {gate}x"
                )
        for path, peak, cap in rss_entries(payload):
            checked += 1
            status = "ok" if peak <= cap else "REGRESSED"
            print(
                f"{bench_file.name}:{path}: {peak} MB RSS (cap {cap} MB) {status}"
            )
            if peak > cap:
                failures.append(
                    f"{bench_file.name}:{path}: {peak} MB RSS over cap {cap} MB"
                )
    if not checked:
        print("no gated benchmark entries found")
    if failures:
        print("\n" + "\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
