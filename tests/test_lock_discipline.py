"""Concurrency regression tests for the `# guarded-by:` annotated state.

Each test hammers one lock-protected invariant that the RL3xx lint now
proves lexically: the lint shows every write site is inside the declared
``with <lock>``; these tests show the locks actually protect what the
annotations claim under real thread interleavings.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.config import ProtocolSuiteConfig
from repro.core.scheduler import Step, _ParallelRun
from repro.data.matrix import AttributeSpec, Schema
from repro.data.partition import GlobalIndex
from repro.distance.dissimilarity import DissimilarityMatrix
from repro.exceptions import ProtocolError
from repro.network.channel import ChannelStats
from repro.network.serialization import serialize
from repro.network.simulator import Network
from repro.parties.third_party import ThirdParty
from repro.types import AttributeType

SCHEMA = [
    AttributeSpec("v", AttributeType.NUMERIC, precision=0),
    AttributeSpec("w", AttributeType.NUMERIC, precision=0),
]


def _third_party() -> ThirdParty:
    net = Network()
    for name in ("A", "B", "TP"):
        net.add_party(name)
    for pair in (("A", "TP"), ("B", "TP")):
        net.connect(*pair, secure=False)
    return ThirdParty(
        "TP",
        net,
        Schema(SCHEMA),
        GlobalIndex({"A": 2, "B": 2}),
        ProtocolSuiteConfig(secure_channels=False),
    )


def _hammer(threads: int, body) -> None:
    barrier = threading.Barrier(threads)
    errors: list[BaseException] = []

    def runner(index: int) -> None:
        barrier.wait()
        try:
            body(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(runner, range(threads)))
    assert not errors, errors


class TestThirdPartyStorageLock:
    def test_matrix_for_first_touch_is_one_object(self):
        # Double-checked creation: every thread racing the first touch of
        # an attribute must observe the same matrix object, or concurrent
        # block writes would land in different matrices and be lost.
        for _ in range(20):
            tp = _third_party()
            seen: list[object] = []
            lock = threading.Lock()

            def touch(_index: int, tp=tp, seen=seen, lock=lock) -> None:
                matrix = tp._matrix_for("v")
                with lock:
                    seen.append(matrix)

            _hammer(8, touch)
            assert all(m is seen[0] for m in seen)

    def test_concurrent_finalize_attribute(self):
        tp = _third_party()
        size = tp.index.total_objects
        tail = size * (size - 1) // 2
        for spec in SCHEMA:
            tp._raw[spec.name] = DissimilarityMatrix(
                size, np.arange(1.0, tail + 1.0, dtype=np.float64)
            )

        def finalize(index: int) -> None:
            tp.finalize_attribute(SCHEMA[index % len(SCHEMA)].name)

        _hammer(8, finalize)
        for spec in SCHEMA:
            expected = tp._raw[spec.name].normalized().condensed
            assert np.array_equal(
                tp.attribute_matrix(spec.name).condensed, expected
            )

    def test_concurrent_receive_encrypted_columns(self):
        # Per-holder tag lanes make the receives lane-exclusive, so the
        # only shared state racing here is the ``_pending_categorical``
        # dict: the setdefault + insert must be atomic or columns vanish.
        net = Network()
        holders = [f"S{i}" for i in range(4)]
        for name in [*holders, "TP"]:
            net.add_party(name)
        for name in holders:
            net.connect(name, "TP", secure=False)
        tp = ThirdParty(
            "TP",
            net,
            Schema([AttributeSpec("c", AttributeType.CATEGORICAL)]),
            GlobalIndex({name: 2 for name in holders}),
            ProtocolSuiteConfig(secure_channels=False),
        )
        for i, holder in enumerate(holders):
            net.send(
                holder,
                "TP",
                "encrypted_column",
                {"attribute": "c", "ciphertexts": [b"x%d" % i, b"y%d" % i]},
                tag=f"col{i}",
            )

        def receive(index: int) -> None:
            tp.receive_encrypted_column(holders[index], tag=f"col{index}")

        _hammer(len(holders), receive)
        assert set(tp._pending_categorical["c"]) == set(holders)


class TestNetworkLaneLocks:
    def test_concurrent_sends_account_every_arrival(self):
        # The per-recipient arrival counter is read-modify-write; without
        # its lock, concurrent sends would lose increments and deliveries.
        net = Network()
        senders = [f"S{i}" for i in range(4)]
        for name in [*senders, "R"]:
            net.add_party(name)
        for name in senders:
            net.connect(name, "R", secure=False)
        per_sender = 25

        def send(index: int) -> None:
            for n in range(per_sender):
                net.send(senders[index], "R", "k", n, tag=f"lane{index}")

        _hammer(len(senders), send)
        received = 0
        while True:
            try:
                net.receive("R")
            except ProtocolError:
                break
            received += 1
        assert received == len(senders) * per_sender

    def test_concurrent_transmits_account_every_byte(self):
        net = Network()
        for name in ("A", "B"):
            net.add_party(name)
        channel = net.connect("A", "B", secure=False)
        per_thread = 50

        def send(index: int) -> None:
            sender, recipient = ("A", "B") if index % 2 == 0 else ("B", "A")
            for n in range(per_thread):
                net.send(sender, recipient, "k", [n] * 4, tag="hammer")

        _hammer(4, send)
        # Two threads per direction; insecure links: wire == payload.
        sent = 2 * sum(len(serialize([n] * 4)) for n in range(per_thread))
        row = ChannelStats(2 * per_thread, sent, sent)
        assert channel.ledger() == {("A", "B", "k", "hammer"): row, ("B", "A", "k", "hammer"): row}


class TestParallelRunState:
    def _steps(self, count: int, log: list[str], lock: threading.Lock):
        def make(name: str):
            def run() -> None:
                with lock:
                    log.append(name)

            return run

        steps = [Step(name="root", run=make("root"), order=(0,))]
        steps += [
            Step(name=f"mid{i}", run=make(f"mid{i}"), deps=("root",), order=(1, i))
            for i in range(count)
        ]
        steps.append(
            Step(
                name="sink",
                run=make("sink"),
                deps=tuple(f"mid{i}" for i in range(count)),
                order=(2,),
            )
        )
        return steps

    def test_fan_out_fan_in_trace_is_complete(self):
        log: list[str] = []
        lock = threading.Lock()
        steps = self._steps(12, log, lock)
        trace, failed, cancelled = _ParallelRun(steps, max_workers=6).run()
        assert sorted(trace) == sorted(s.name for s in steps)
        assert not failed and cancelled == ()
        assert trace[0] == "root" and trace[-1] == "sink"
        assert sorted(log) == sorted(trace)

    def test_step_failure_propagates(self):
        def boom() -> None:
            raise ValueError("step exploded")

        steps = [
            Step(name="ok", run=lambda: None, order=(0,)),
            Step(name="bad", run=boom, deps=("ok",), order=(1,)),
            Step(name="after", run=lambda: None, deps=("bad",), order=(2,)),
        ]
        with pytest.raises(ValueError, match="step exploded"):
            _ParallelRun(steps, max_workers=2).run()
