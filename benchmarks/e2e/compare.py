#!/usr/bin/env python3
"""Judge a change against its parent from paired benchmark runs.

Usage::

    python3 benchmarks/e2e/compare.py --parent p1.jsonl ... p10.jsonl \\
                                      --change c1.jsonl ... c10.jsonl

Each file is one untraced ``run.py --out`` result of runs as long as
``run_seconds`` in BENCHMARK.json; the i-th parent file and the i-th
change file form a pair, and the runs should alternate which side goes
first.  At least ten pairs are required.  For every (workload,
end-to-end metric) the verdict is, using the bounds in BENCHMARK.json:

* ``improved``   -- the change wins at least 9 of 10 pairs (ties count for
  neither) and its median beats the parent's by more than the parent's
  interquartile range;
* ``unresolved`` -- the parent's own spread is wider than the bound and
  not every change run beats every parent run;
* ``regressed``  -- the change's median is worse than the parent's by
  more than the bound;
* ``no-worse``   -- otherwise.

Each workload's error rate (failed / attempted operations, failed checks
included) must not rise.  The exit status is non-zero on any regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10


def load(path: str, seconds: float) -> dict[str, dict]:
    """``{workload: result}`` from one ``run.py --out`` file of ``seconds``-long runs."""
    results = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["trace"]:
            raise ValueError(f"{path}: traced runs carry no end-to-end metrics")
        if record["seconds"] != seconds:
            # A longer run completes more operations and retains more check
            # outputs, so its numbers are not comparable.
            raise ValueError(f"{path}: {record['workload']} ran {record['seconds']} s, not {seconds} s")
        results[record["workload"]] = record["result"]
    return results


def verdict(parent: list[float], change: list[float], bound: float, lower_is_better: bool) -> tuple[str, dict]:
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    base, moved = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    facts = {"parent": base, "q1": q1, "q3": q3, "change": moved, "wins": wins}
    if wins >= 0.9 * len(parent) and better(moved, base) and abs(moved - base) > q3 - q1:
        return "improved", facts
    every_run_better = all(better(c, p) for c in change for p in parent)
    if q3 - q1 > bound * base and not every_run_better:
        return "unresolved", facts
    if better(base, moved) and abs(moved - base) > bound * base:
        return "regressed", facts
    return "no-worse", facts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change) or len(args.parent) < MIN_PAIRS:
        parser.error(f"need at least {MIN_PAIRS} parent/change pairs, got "
                     f"{len(args.parent)} parent and {len(args.change)} change files")
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parents = [load(path, spec["run_seconds"]) for path in args.parent]
    changes = [load(path, spec["run_seconds"]) for path in args.change]
    workloads = [w["name"] for w in spec["workloads"] if all(w["name"] in r for r in parents + changes)]
    if not workloads:
        parser.error("no workload appears in every result file")

    failed = False
    print(f"{'workload':20} {'metric':12} {'parent [q1, q3]':>30} {'change':>11} {'wins':>5}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = [r[workload]["metrics"][name]["value"] for r in parents]
            after = [r[workload]["metrics"][name]["value"] for r in changes]
            outcome, f = verdict(before, after, metric["bound"], metric["better"] == "lower")
            failed |= outcome == "regressed"
            print(f"{workload:20} {name:12} {f['parent']:11.5g} [{f['q1']:.5g}, {f['q3']:.5g}]"
                  f" {f['change']:11.5g} {f['wins']:>2}/{len(before):<2}  {outcome}")
        rates = [
            sum(r[workload]["failed"] for r in side) / sum(r[workload]["attempted"] for r in side)
            for side in (parents, changes)
        ]
        worse = rates[1] > rates[0]
        failed |= worse
        print(f"{workload:20} {'error_rate':12} {rates[0]:11.5g} {'':>18} {rates[1]:11.5g}"
              f" {'':>5}  {'regressed' if worse else 'no-worse'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
