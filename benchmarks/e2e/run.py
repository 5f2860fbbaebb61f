#!/usr/bin/env python3
"""End-to-end benchmark of the privacy-preserving clustering system.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 1                     # every workload
    python3 benchmarks/e2e/run.py --workload socket-mesh --seed 1 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --trace 1           # per-layer table
    python3 benchmarks/e2e/run.py --seed 1 --out results.jsonl # for compare.py

Each workload runs in a fresh child interpreter, one after another, so
the load is a single process and ``peak_rss_mb`` belongs to one workload.
The child times set-ups and operations -- in CPU seconds of itself and
its reaped children, and in wall seconds, both scaled to a nominal host
speed by ``hostmeter`` -- runs the workload's correctness checks after
the last operation, and prints a table followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Untraced runs report
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs report
its per-layer metrics, tracing half the operations and timing the
others, so the difference is the tracing overhead.  The exit status is
non-zero when an operation or a check fails, a declared trace target
never fired, or a workload printed no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 170.0


def load_benchmark() -> dict[str, Any]:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


# -- measurement (child side) --------------------------------------------------------


class Instant(NamedTuple):
    """Clock readings at one moment."""

    #: ``perf_counter``.
    wall: float
    #: CPU seconds of this process and its reaped children so far.
    cpu: float
    #: CPU seconds of the main thread so far.
    main: float
    #: The vCPU the main thread last ran on.
    vcpu: int


def now() -> Instant:
    """Read the clocks; from any thread, they describe the main thread.

    Party processes are reaped before their session returns, so their CPU
    time is in the second reading of any interval that spawned them.
    """
    main = threading.main_thread()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(f"/proc/self/task/{main.native_id}/stat", encoding="ascii") as stat:
        vcpu = int(stat.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    return Instant(
        time.perf_counter(),
        own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        time.clock_gettime(time.pthread_getcpuclockid(main.ident)),
        vcpu,
    )


class Timed(NamedTuple):
    """One timed interval."""

    start: Instant
    end: Instant


class Op:
    """One timed operation and what the workload measured about it."""

    __slots__ = ("index", "traced", "failed", "timed", "wire_bytes", "links")

    def __init__(self, index: int, traced: bool) -> None:
        self.index = index
        self.traced = traced
        self.failed = False
        self.timed: Timed | None = None
        self.wire_bytes = 0
        self.links: dict[str, int] = {}


class Recorder:
    """Times one workload's set-ups and operations; traces half the ops.

    ``iterations`` keeps yielding operation indexes until ``seconds`` have
    passed and at least ``min_ops`` operations ran.  ``meter`` (a
    ``hostmeter.HostMeter``) scales every timed interval to the nominal
    host speed; ``finish`` stops it.
    """

    def __init__(self, seconds: float, min_ops: int, meter: Any, tracer: Any = None,
                 table: dict | None = None) -> None:
        self.seconds = seconds
        self.min_ops = min_ops
        self.meter = meter
        self.tracer = tracer
        self.table = table or {}
        self.ops: list[Op] = []
        self.setups: list[Timed] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.checks: list[tuple[int, str, Callable[[], bool]]] = []
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()
        #: Peak resident sizes of party processes, when the parties run in
        #: processes of their own; ``finish`` reads this process's otherwise.
        self.party_rss_mb: list[float] = []
        self.peak_rss_mb = 0.0
        self._aux_count: Counter[str] = Counter()

    def iterations(self) -> Iterator[int]:
        started = time.perf_counter()
        index = 0
        while index < self.min_ops or time.perf_counter() - started < self.seconds:
            yield index
            index += 1

    @contextmanager
    def _root(self, kind: str, traced: bool) -> Iterator[None]:
        if not traced:
            yield
            return
        with self.tracer.installed(self.table), self.tracer.operation(kind):
            yield

    def _traced(self, index: int) -> bool:
        """Whether the ``index``-th operation of its kind is traced.

        The pattern is untraced, traced, traced, untraced, and again, so an
        effect that alternates from one operation to the next or drifts
        over the run falls equally on both sides of ``trace.overhead``.
        """
        return self.tracer is not None and (index + 1) // 2 % 2 == 1

    def _fail(self, index: int, what: str) -> None:
        self.failures.append(what)
        self.failed_ops.add(index)

    @contextmanager
    def op(self) -> Iterator[Op]:
        """Time one operation.  An exception fails this operation only: it
        is reported, ``op.failed`` is set and the run goes on."""
        op = Op(len(self.ops), traced=self._traced(len(self.ops)))
        self.ops.append(op)
        try:
            with self._root("op", op.traced):
                started = now()
                yield op
                op.timed = Timed(started, now())
        except Exception as exc:  # the run must go on to count and report it
            traceback.print_exc()
            op.failed = True
            self._fail(op.index, f"operation {op.index}: {type(exc).__name__}: {exc}")

    @contextmanager
    def setup(self) -> Iterator[None]:
        with self._root("setup", self.tracer is not None):
            started = now()
            yield
            self.setups.append(Timed(started, now()))

    @contextmanager
    def aux(self, name: str) -> Iterator[None]:
        """A secondary operation; its untraced durations become ``apps.<name>_s``.

        Like operations, half of them are traced.  An exception fails the
        operation it follows.
        """
        traced = self._traced(self._aux_count[name])
        self._aux_count[name] += 1
        try:
            with self._root(name, traced):
                started = time.perf_counter()
                yield
                elapsed = time.perf_counter() - started
        except Exception as exc:  # the run must go on to count and report it
            traceback.print_exc()
            index = len(self.ops) - 1
            self._fail(index, f"{name} after operation {index}: {type(exc).__name__}: {exc}")
            return
        if not traced:
            self.samples[f"apps.{name}_s"].append(elapsed)

    def span(self, name: str) -> Any:
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    now = staticmethod(now)

    def setup_sample(self, start: Instant, end: Instant) -> None:
        """A set-up that happens inside an operation, timed by the workload
        with ``Recorder.now``."""
        self.setups.append(Timed(start, end))

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def check(self, what: str, verify: Callable[[], bool]) -> None:
        """Queue a correctness check of the latest operation for ``finish``.

        ``verify`` should hold only that operation's outputs and build any
        reference itself, so that nothing else stays alive until then.
        """
        self.checks.append((len(self.ops) - 1, what, verify))

    def finish(self) -> None:
        """Stop the meter, record the peak resident size, run the checks.

        Checks run after the last operation so that their time is not
        measured, and after the peak is read so that their own memory is
        not either.  A False result or an error fails the checked operation.
        """
        self.meter.stop()
        self.peak_rss_mb = max(self.party_rss_mb) if self.party_rss_mb else peak_rss_mb()
        for index, what, verify in self.checks:
            try:
                ok = bool(verify())
            except Exception as exc:  # a crashing check is a failed check, reported below
                traceback.print_exc()
                ok = False
                what = f"{what}: {type(exc).__name__}: {exc}"
            if not ok:
                self._fail(index, what)

    def _cost(self, start: Instant, end: Instant) -> tuple[float, float]:
        """CPU seconds of an interval, at the nominal host speed and not.

        The main thread's share is scaled by the probes of the vCPU it ran
        on -- a busy thread rarely moves, and the vCPUs' speeds differ --
        and the rest (other threads, party processes) by those of all.
        """
        total = end.cpu - start.cpu
        main = min(max(end.main - start.main, 0.0), total)
        vcpu = start.vcpu if start.vcpu == end.vcpu else None
        scaled = (main * self.meter.scale(start.wall, end.wall, vcpu)
                  + (total - main) * self.meter.scale(start.wall, end.wall))
        return scaled, total

    def cpu(self, intervals: list[Timed]) -> list[float]:
        """CPU seconds of each interval at the nominal host speed."""
        return [self._cost(start, end)[0] for start, end in intervals]

    def wall(self, intervals: list[Timed]) -> list[float]:
        """Wall seconds of each interval at the nominal host speed, scaled
        as its CPU seconds were."""
        walls = []
        for start, end in intervals:
            scaled, total = self._cost(start, end)
            scale = scaled / total if total > 0 else self.meter.scale(start.wall, end.wall)
            walls.append((end.wall - start.wall) * scale)
        return walls


def peak_rss_mb() -> float:
    """This process's ``VmHWM``; ``ru_maxrss`` would inherit the parent's peak."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _op_intervals(rec: Recorder, traced: bool) -> list[Timed]:
    return [op.timed for op in rec.ops if op.traced == traced and not op.failed]


def end_to_end(rec: Recorder) -> dict[str, float]:
    return {
        "setup_s": statistics.median(rec.cpu(rec.setups)),
        "op_s": statistics.median(rec.cpu(_op_intervals(rec, traced=False))),
        "wire_bytes": statistics.fmean(op.wire_bytes for op in rec.ops[: rec.min_ops]),
        "peak_rss_mb": rec.peak_rss_mb,
    }


def per_layer(rec: Recorder, names: list[str]) -> dict[str, float]:
    """Per-layer metrics, per traced operation.

    A name ``<layer>.<field>`` with field ``self_s``, ``calls`` or
    ``bytes`` reads the tracer's mean for that layer over the traced
    operations.  Set-ups that are not part of an operation are traced as
    roots of their own; ``notes`` shows their figures.  Layer times are
    the host's wall seconds, unscaled: they are shares of one run's
    operations.  ``wall.*`` are the scaled wall-clock medians of the
    untraced operations and of the set-ups; ``trace.overhead`` compares
    scaled CPU seconds of operations of the same run.
    """
    tracer = rec.tracer
    traced = [op for op in rec.ops if op.traced]
    totals = tracer.layer_totals("op")
    links: Counter[str] = Counter()
    for op in traced:
        links.update(op.links)

    def total(layer: str, field: str = "self_s") -> float:
        return totals.get(layer, {}).get(field, 0.0)

    def median_or_zero(name: str) -> float:
        return statistics.median(rec.samples[name]) if rec.samples.get(name) else 0.0

    frames = links["frames"]
    special = {
        "network.retransmits": links["retransmits"] / len(traced),
        "network.duplicates_suppressed": links["duplicates_suppressed"] / len(traced),
        "network.corrupt_detected": links["corrupt_detected"] / len(traced),
        "network.goodput_ratio": (frames - links["retransmits"]) / frames if frames else 0.0,
        "network.socket.receive.wait_s": total("network.socket.receive"),
        "network.socket.connect_s": total("network.socket.connect"),
        "apps.op.self_s": total("op"),
        "apps.retire_s": median_or_zero("apps.retire_s"),
        "apps.cluster.import_s": median_or_zero("apps.cluster.import_s"),
        "trace.coverage": min(tracer.coverage().values()),
        "wall.setup_s": statistics.median(rec.wall(rec.setups)),
        "wall.op_s": statistics.median(rec.wall(_op_intervals(rec, traced=False))),
        "trace.overhead": statistics.median(rec.cpu(_op_intervals(rec, traced=True)))
        - statistics.median(rec.cpu(_op_intervals(rec, traced=False))),
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
        else:
            layer, _, field = name.rpartition(".")
            metrics[name] = total(layer, field)
    return metrics


def notes(rec: Recorder, names: list[str]) -> dict[str, str]:
    """The table's last column: for timings, the sample count, the tail and
    the median wall-clock time, scaled and not; for a layer, its self time
    in each traced root other than an operation."""
    if rec.tracer is None:
        timings = {"setup_s": rec.setups, "op_s": _op_intervals(rec, traced=False)}
        return {
            name: f"n={len(intervals)} {_tail(rec.cpu(intervals))}"
            f"wall {statistics.median(rec.wall(intervals)):.4g} s "
            f"(unscaled {statistics.median(end.wall - start.wall for start, end in intervals):.4g})"
            for name, intervals in timings.items()
        }
    kinds = sorted({root.name for root in rec.tracer.roots} - {"op"})
    others = {kind: rec.tracer.layer_totals(kind) for kind in kinds}
    column = {}
    for name in names:
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            column[name] = " ".join(
                f"{kind} {others[kind][layer]['self_s']:.4g}" for kind in kinds if layer in others[kind]
            )
    return column


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for pct in (99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            return f"p{pct} {statistics.quantiles(samples, n=100)[pct - 1]:.4g} s, "
    return ""


def print_table(title: str, rows: list[tuple[str, str, str, str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    print(f"== {title} ==")
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def child(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise RuntimeError(f"repro was imported from {repro.__file__}, not from this checkout")
    import trace as tr  # this directory's tracer: the script's own directory leads sys.path
    import workloads as wl
    from hostmeter import HostMeter

    workload = wl.WORKLOADS[args.workload]
    os.environ.update(dict(workload.env))
    wl.OUT.mkdir(exist_ok=True)
    tracer = tr.Tracer() if args.trace else None
    meter = HostMeter()
    try:
        rec = Recorder(
            args.seconds, workload.smoke_ops if args.smoke else workload.min_ops, meter, tracer,
            workload.trace_table,
        )
        origin = time.perf_counter()
        workload.run(rec, workload.smoke if args.smoke else workload.full, args.seed)
        rec.finish()
    finally:
        meter.stop()

    if tracer is not None:
        declared = {t for targets in workload.trace_table.values() for t in targets}
        unfired = sorted(declared - tracer.fired)
        if unfired:
            rec.failures.append(f"trace targets never fired: {unfired}")
        tracer.write_jsonl(str(wl.OUT / f"trace-{args.workload}.jsonl"), origin)
        declared_metrics = spec["per_layer"]
        values = per_layer(rec, [m["name"] for m in declared_metrics])
    else:
        declared_metrics = spec["end_to_end"]
        values = end_to_end(rec)
    names = [m["name"] for m in declared_metrics]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    units = {m["name"]: m["unit"] for m in declared_metrics}

    column = notes(rec, names)
    rows = [("metric", "value", "unit", "samples")]
    rows += [(name, f"{values[name]:.6g}", units[name], column.get(name, "")) for name in names]
    mode = "traced" if tracer is not None else "untraced"
    print_table(
        f"{args.workload} seed {args.seed}, {mode}, {len(rec.ops)} ops, {len(rec.checks)} checks, "
        f"median host scale {statistics.median(meter.scale(a.wall, b.wall) for a, b in rec.setups):.4g}",
        rows,
    )
    for failure in rec.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": not rec.failures,
        "attempted": len(rec.ops),
        "failed": len(rec.failed_ops),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# -- orchestration (parent side) -----------------------------------------------------


def run_child(args: argparse.Namespace, workload: str) -> tuple[int, str]:
    """Run one workload in a fresh interpreter; returns (exit code, stdout)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    # A session of its own, so a timeout can stop the party processes too.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1, stdout
    return proc.returncode, stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float,
        help="measuring time per workload run (default: run_seconds in BENCHMARK.json); "
        "compare.py refuses to compare runs of different lengths",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="also write each workload's result as a JSON line here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, a few operations")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_benchmark()
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if args.child:
        return child(args, spec)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    results: dict[str, Any] = {}
    status = 0
    for name in names:
        code, stdout = run_child(args, name)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        status = status or code
        try:
            results[name] = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit status {code})", file=sys.stderr)
            status = 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            for name, result in results.items():
                record = {
                    "workload": name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "result": result,
                }
                out.write(json.dumps(record) + "\n")
    if len(names) > 1 and len(results) == len(names):
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
        print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
