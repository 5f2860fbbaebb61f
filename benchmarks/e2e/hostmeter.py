"""Host-speed meter: how fast each vCPU ran while an interval was timed.

The benchmark's host is a virtual machine whose speed drifts with other
tenants' load.  A fixed piece of interpreter work takes 0.5 ms in one
moment and 0.95 ms in another, in phases lasting from under a second to
whole minutes, and the two vCPUs drift separately: probing both at once
for a minute, their one-second speeds differed by up to 36% (correlation
0.2).  The guest's clocks cannot see it: its CPU time slows exactly as
its wall time does, and no steal is reported.  Unscaled, the median of
the same session moved by 1.5x between runs a few minutes apart.

So the benchmark runs this module as a side process for the whole of a
measured run.  It pins one thread to each vCPU the benchmark may use;
every ``INTERVAL_S`` each thread times ``probe``, the same fixed work
each time, in its own thread CPU time, which the guest's scheduler
cannot inflate but the host's slowdown does.  ``HostMeter.scale`` turns
the probes of one vCPU (or of all) during a timed interval into the
factor that converts the interval's seconds into seconds on a host where
one probe takes ``PROBE_NOMINAL_S`` -- about what a probe takes here when
the host is not slowed.  The probe is the benchmark's own code, so no
change to the system under test can alter it.  It costs about 3% of each
vCPU.

Run directly (``python3 hostmeter.py``), it probes until its standard
input closes, then prints its samples as one JSON list.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

PROBE_NOMINAL_S = 0.0005
INTERVAL_S = 0.02


def probe() -> float:
    """Thread CPU seconds of one fixed piece of interpreter work.

    The garbage collector is off meanwhile, so the probe's cost does not
    depend on how many objects the process holds.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        state, table = 0, {}
        for i in range(3000):
            state = (state * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
            table[i & 255] = state
        hashlib.sha256(b"".join(v.to_bytes(8, "little") for v in table.values())).digest()
        return time.thread_time() - started
    finally:
        if collecting:
            gc.enable()


def serve() -> None:
    """Probe every vCPU every ``INTERVAL_S`` until stdin closes; print the samples.

    A sample is ``[start, end, seconds, vcpu]``: ``perf_counter`` readings
    around the probe, comparable across processes, the probe's thread CPU
    seconds and the vCPU it ran on.
    """
    closed = threading.Event()
    samples: list[tuple[float, float, float, int]] = []
    lock = threading.Lock()
    first = {vcpu: threading.Event() for vcpu in sorted(os.sched_getaffinity(0))}

    def probe_on(vcpu: int) -> None:
        os.sched_setaffinity(0, {vcpu})  # 0: the calling thread
        while True:
            begun = time.perf_counter()
            seconds = probe()
            with lock:
                samples.append((begun, time.perf_counter(), seconds, vcpu))
            first[vcpu].set()
            if closed.wait(INTERVAL_S):
                return

    threads = [threading.Thread(target=probe_on, args=(vcpu,), daemon=True) for vcpu in first]
    for thread in threads:
        thread.start()
    if not all(probed.wait(10) for probed in first.values()):
        sys.exit("hostmeter: a probe thread did not start")
    print("ready", flush=True)
    sys.stdin.read()
    closed.set()
    for thread in threads:
        thread.join()
    json.dump(samples, sys.stdout)


class HostMeter:
    """Runs ``serve`` in a side process from construction to ``stop``."""

    def __init__(self) -> None:
        self._proc: subprocess.Popen | None = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the host meter did not start")
        #: ``(midpoints, probe seconds)`` by vCPU, and for all under ``None``.
        self._series: dict[int | None, tuple[list[float], list[float]]] = {}

    def stop(self) -> None:
        """End the side process and keep its samples; safe to call twice."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            out, _ = proc.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        by_vcpu: dict[int | None, list[tuple[float, float]]] = {None: []}
        for begun, ended, seconds, vcpu in json.loads(out):
            point = ((begun + ended) / 2, seconds)
            by_vcpu[None].append(point)
            by_vcpu.setdefault(vcpu, []).append(point)
        for vcpu, points in by_vcpu.items():
            points.sort()
            self._series[vcpu] = ([mid for mid, _ in points], [s for _, s in points])

    def scale(self, start: float, end: float, vcpu: int | None = None) -> float:
        """Nominal over mean probe time on ``vcpu`` (default: on every
        vCPU) during ``[start, end]``.

        An interval too short to hold a probe takes the nearest probe on
        each side.
        """
        if not self._series:
            raise RuntimeError("no host meter samples: stop() the meter first")
        mids, seconds = self._series.get(vcpu, self._series[None])
        lo = bisect.bisect_left(mids, start)
        hi = bisect.bisect_right(mids, end)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(mids))
        return PROBE_NOMINAL_S / statistics.fmean(seconds[lo:hi])


if __name__ == "__main__":
    serve()
