"""Meters one party process of the benchmark's ``process-cluster`` workload.

``workloads.party_meter`` starts party processes with this directory
first on ``PYTHONPATH`` and an output directory in ``E2E_PARTY_METER``,
so the interpreter imports this module at start-up.  It counts the bytes
of every sealed frame the party sends -- retransmissions and replays
included -- as ``socket-mesh`` does in-process, and at exit writes them,
with the process's peak resident size (``VmHWM``), to
``<E2E_PARTY_METER>/<pid>.json``.  Without the variable it does nothing.
"""

import atexit
import json
import os
import threading

_OUT = os.environ.get("E2E_PARTY_METER")

if _OUT:
    from repro.network.handshake import LinkCipher

    _lock = threading.Lock()
    _sent = [0]
    _seal = LinkCipher.seal

    def _counted_seal(self, plain):
        body = _seal(self, plain)
        with _lock:
            _sent[0] += len(body)
        return body

    LinkCipher.seal = _counted_seal

    def _report():
        with open("/proc/self/status", encoding="ascii") as status:
            peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
        with open(os.path.join(_OUT, f"{os.getpid()}.json"), "w", encoding="utf-8") as out:
            json.dump({"wire_bytes": _sent[0], "peak_rss_mb": peak_kb / 1024.0}, out)

    atexit.register(_report)
