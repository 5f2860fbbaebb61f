"""Tests of the end-to-end benchmark's own machinery.

The tracer's arithmetic is checked on a synthetic call tree driven by a
fake clock; the catalogue of trace targets is resolved against ``src/``
so a rename there fails here first; the recorder's failure counting and
host-speed scaling, and the host meter, are checked on known inputs;
``BENCHMARK.json`` is checked
against the metric grammar; and one ``--smoke`` run of every workload
must pass all its correctness checks and print exactly the metric names
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load(name: str) -> types.ModuleType:
    # By path: the tracer's file name is also a standard-library module's.
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tr = _load("trace")
compare = _load("compare")
run = _load("run")
hostmeter = _load("hostmeter")


# -- tracer ------------------------------------------------------------------


def test_self_time_and_coverage_of_a_nested_tree_with_a_worker_span():
    """root [0, 10] holds outer [1, 6] (with inner [2, 4]) on the driver
    thread and a worker-thread span [5, 9] that attaches to the root."""
    now = [0.0]
    tracer = tr.Tracer(clock=lambda: now[0])
    opened, release = threading.Event(), threading.Event()

    def worker():
        with tracer.span("worker"):
            opened.set()
            release.wait(5)

    with tracer.operation("op") as root:
        now[0] = 1.0
        with tracer.span("outer"):
            now[0] = 2.0
            with tracer.span("inner"):
                now[0] = 4.0
            now[0] = 5.0
            thread = threading.Thread(target=worker)
            thread.start()
            assert opened.wait(5)
            now[0] = 6.0
        now[0] = 9.0
        release.set()
        thread.join(5)
        assert not thread.is_alive()
        now[0] = 10.0

    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == root.id
    assert by_name["worker"].parent == root.id
    selfs = tracer.self_times()
    assert selfs[by_name["inner"].id] == pytest.approx(2.0)
    assert selfs[by_name["outer"].id] == pytest.approx(3.0)
    assert selfs[by_name["worker"].id] == pytest.approx(4.0)
    assert selfs[root.id] == pytest.approx(2.0)  # 10 - |[1, 6] u [5, 9]|
    assert tracer.coverage() == {root.id: pytest.approx(0.8)}
    totals = tracer.layer_totals("op")
    assert totals["op"]["self_s"] == pytest.approx(2.0)
    assert totals["outer"] == {"self_s": pytest.approx(3.0), "calls": 1.0, "bytes": 0.0}


def test_installed_wrappers_record_only_inside_operations_and_restore(monkeypatch):
    fake = types.ModuleType("e2e_fake_layer")

    def double(x):
        return 2 * x

    class Store:
        def read(self, n):
            return n

    original_read = Store.read
    fake.double, fake.Store = double, Store
    monkeypatch.setitem(sys.modules, "e2e_fake_layer", fake)
    tracer = tr.Tracer()
    table = {"math": ("e2e_fake_layer:double",), "store": ("e2e_fake_layer:Store.read",)}
    with tracer.installed(table):
        assert fake.double is not double
        assert fake.double(3) == 6
        assert tracer.spans == [] and tracer.fired == set()
        with tracer.operation("op"):
            assert fake.double(2) == 4
            assert Store().read(7) == 7
    assert fake.double is double and Store.read is original_read
    assert [span.name for span in tracer.spans] == ["math", "store"]
    assert tracer.fired == {"e2e_fake_layer:double", "e2e_fake_layer:Store.read"}
    with pytest.raises(AttributeError, match="missing"):
        with tracer.installed({"store": ("e2e_fake_layer:Store.missing",)}):
            pass
    assert fake.double is double


def test_every_catalogue_target_resolves_in_src():
    for layer, targets in tr.CATALOGUE.items():
        for target in targets:
            owner, attr, value = tr.resolve(target)
            assert callable(value), (layer, target)


# -- recorder ------------------------------------------------------------------


class HalfSpeedHost:
    """A host meter for a host running at half the nominal speed."""

    stopped = False

    def stop(self):
        self.stopped = True

    def scale(self, start, end, vcpu=None):
        return 0.5 if vcpu is None else 0.25


def test_failed_operations_and_checks_are_counted_and_the_run_goes_on(capsys):
    rec = run.Recorder(seconds=0.0, min_ops=4, meter=HalfSpeedHost())
    for i in rec.iterations():
        with rec.op() as op:
            if i == 1:
                raise ValueError("lost frame")
        if op.failed:
            continue
        rec.check(f"op {i}", lambda i=i: i != 2)
        if i == 3:
            with rec.aux("retire"):
                raise KeyError("row")
    rec.finish()
    assert rec.meter.stopped
    assert len(rec.ops) == 4 and [op.failed for op in rec.ops] == [False, True, False, False]
    assert rec.failed_ops == {1, 2, 3}
    assert [f.split(":")[0] for f in rec.failures] == ["operation 1", "retire after operation 3", "op 2"]
    assert "ValueError: lost frame" in capsys.readouterr().err


def _timed(wall: float, cpu: float, main: float = 0.0, moved: bool = False) -> "run.Timed":
    return run.Timed(run.Instant(10.0, 20.0, 5.0, 1), run.Instant(10.0 + wall, 20.0 + cpu, 5.0 + main, 0 if moved else 1))


def test_cpu_and_wall_seconds_are_scaled_to_the_nominal_host():
    """The main thread's CPU seconds scale by its vCPU's probes (0.25 here),
    the rest by all vCPUs' (0.5)."""
    rec = run.Recorder(seconds=0.0, min_ops=1, meter=HalfSpeedHost())
    rec.setups = [_timed(9.0, 1.0), _timed(9.0, 3.0), _timed(9.0, 2.0)]
    op = run.Op(0, traced=False)
    op.timed, op.wire_bytes = _timed(8.0, 6.0, main=4.0), 10
    rec.ops = [op]
    rec.peak_rss_mb = 50.0
    metrics = run.end_to_end(rec)
    assert metrics == {"setup_s": 1.0, "op_s": 2.0, "wire_bytes": 10, "peak_rss_mb": 50.0}
    assert rec.wall([op.timed]) == [8.0 * 2.0 / 6.0]
    assert rec.cpu([_timed(8.0, 6.0, main=4.0, moved=True)]) == [3.0]


def test_clock_readings_count_reaped_children_and_the_main_thread():
    before = run.now()
    subprocess.run([sys.executable, "-c", "sum(range(3_000_000))"], check=True)
    sum(range(3_000_000))
    after = run.now()
    assert after.cpu - before.cpu > after.main - before.main > 0.01
    assert after.vcpu in os.sched_getaffinity(0)


def test_host_meter_probes_every_vcpu_and_scales_by_the_probes_inside_an_interval():
    meter = hostmeter.HostMeter()
    time.sleep(0.2)
    meter.stop()
    meter.stop()
    assert set(meter._series) == {None} | os.sched_getaffinity(0)
    assert all(len(mids) >= 3 and min(cpu) > 0 for mids, cpu in meter._series.values())
    # Replace the measured samples with known ones: probes at 1..4 s.
    meter._series = {None: ([1.0, 2.0, 3.0, 4.0], [0.001, 0.002, 0.004, 0.008]), 0: ([2.0], [0.01])}
    nominal = hostmeter.PROBE_NOMINAL_S
    assert meter.scale(1.5, 3.5) == pytest.approx(nominal / 0.003)
    assert meter.scale(2.2, 2.4) == pytest.approx(nominal / 0.003)  # no probe inside: neighbours
    assert meter.scale(0.0, 0.5) == pytest.approx(nominal / 0.001)
    assert meter.scale(1.5, 3.5, vcpu=0) == pytest.approx(nominal / 0.01)
    assert meter.scale(1.5, 3.5, vcpu=7) == pytest.approx(nominal / 0.003)  # never probed: all


# -- BENCHMARK.json ------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_follows_the_metric_grammar():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    names = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


# -- compare.py ---------------------------------------------------------------


@pytest.mark.parametrize(
    "change, expected",
    [
        ([0.80 + 0.001 * i for i in range(10)], "improved"),
        ([1.00 + 0.001 * i for i in range(10)], "no-worse"),
        ([1.20 + 0.001 * i for i in range(10)], "regressed"),
    ],
)
def test_compare_verdicts(change, expected):
    parent = [1.00 + 0.002 * i for i in range(10)]
    assert compare.verdict(parent, change, 0.1, lower_is_better=True)[0] == expected


def test_compare_calls_a_spread_wider_than_the_bound_unresolved():
    parent = [1.0, 1.3, 0.8, 1.25, 0.75, 1.2, 0.85, 1.1, 0.9, 1.0]
    assert compare.verdict(parent, list(parent), 0.1, lower_is_better=True)[0] == "unresolved"


def test_compare_refuses_runs_of_another_length(tmp_path):
    path = tmp_path / "run.jsonl"
    record = {"workload": "socket-mesh", "seed": 1, "seconds": 30.0, "trace": 0, "result": {}}
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match="30.0 s"):
        compare.load(str(path), SPEC["run_seconds"])


# -- smoke run ---------------------------------------------------------------------


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_smoke_run_of_every_workload_passes_its_checks(tmp_path):
    out = tmp_path / "smoke.jsonl"
    traced = _run("--trace", "1", "--out", str(out))
    assert traced.returncode == 0, traced.stdout[-4000:] + traced.stderr[-4000:]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["workload"] for r in records] == [w["name"] for w in SPEC["workloads"]]
    for record in records:
        result = record["result"]
        assert result["correct"] and result["failed"] == 0, record
        assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95, record

    untraced = _run("--workload", "construct-mixed")
    assert untraced.returncode == 0, untraced.stdout[-4000:] + untraced.stderr[-4000:]
    result = json.loads(untraced.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
