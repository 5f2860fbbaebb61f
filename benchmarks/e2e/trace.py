"""Outside-in span tracer for the end-to-end benchmark.

The benchmark measures layers without touching ``src/``: a traced run
replaces chosen public callables, at the binding their caller looks up,
with wrappers that record one span per call.  ``repro.network.channel``
imports ``serialize`` by name, for example, so the target is
``repro.network.channel:serialize`` -- wrapping
``repro.network.serialization:serialize`` would never fire on that path.

A span records name, start, end, parent, thread and operation id.  Each
thread keeps its own stack of open spans; a span opened on a thread
whose stack is empty (a scheduler pool worker, a socket event loop, a
party thread) attaches to the root of the one operation in flight.
Spans opened while no operation is in flight are not recorded.  A span's
self time is its duration minus the part of it that its children cover,
so overlapping children on other threads are counted once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import AbstractContextManager, contextmanager
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np


#: Byte counters for targets whose traffic a metric reports, computed
#: from ``(args, kwargs, result)`` of the wrapped call.  Store entries
#: are float64, 8 bytes each.
MEASURES: dict[str, Callable[[tuple, dict, Any], int]] = {
    "repro.network.channel:serialize": lambda a, k, r: len(r),
    "repro.network.tcp:serialize": lambda a, k, r: len(r),
    "repro.distance.store:MemmapStore.read": lambda a, k, r: 8 * np.size(r),
    "repro.distance.store:MemmapStore.write": lambda a, k, r: 8 * np.size(a[2]),
    "repro.distance.store:MemmapStore.gather": lambda a, k, r: 8 * np.size(r),
    "repro.distance.store:MemmapStore.scatter": lambda a, k, r: 8 * np.size(a[2]),
}


class Span:
    """One timed call (or one operation, for a root span)."""

    __slots__ = ("id", "name", "parent", "op", "thread", "start", "end", "nbytes")

    def __init__(self, span_id: int, name: str, parent: int | None, op: int, thread: str) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.nbytes = 0


def resolve(target: str) -> tuple[Any, str, Any]:
    """``"module:Attr.path"`` -> (owner, attribute name, current value).

    A method must be defined on the named class itself: wrapping an
    inherited attribute would shadow it rather than replace it, and a
    target that no longer exists is an error, so a rename in ``src/``
    fails the traced run instead of silently dropping a layer.
    """
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(f"trace target {target!r}: {owner.__name__} defines no {attr!r}")
        value = vars(owner)[attr]
        if not callable(value) or isinstance(value, (staticmethod, classmethod)):
            raise TypeError(f"trace target {target!r} is not a plain method")
    else:
        value = getattr(owner, attr)
    return owner, attr, value


@contextmanager
def patched(wrappers: Mapping[str, Callable[[Callable], Callable]]) -> Iterator[None]:
    """Replace each target with ``make(original)`` for a block, then restore."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for target, make in wrappers.items():
            owner, attr, original = resolve(target)
            setattr(owner, attr, make(original))
            undo.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class Tracer:
    """Records spans around wrapped callables, grouped by operation."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        #: Targets that recorded at least one span inside an operation.
        self.fired: set[str] = set()
        self._ids = itertools.count(1)
        #: Open spans per thread, by thread ident.
        self._stacks: dict[int, list[Span]] = {}
        self._root: Span | None = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span | None:
        root = self._root
        if root is None:
            return None
        stack = self._stacks.setdefault(threading.get_ident(), [])
        # Idents are reused as threads come and go, so an outermost span
        # looks the thread's name up afresh and nested spans inherit it.
        parent = stack[-1] if stack else root
        thread = parent.thread if stack else threading.current_thread().name
        span = Span(next(self._ids), name, parent.id, root.id, thread)
        stack.append(span)
        span.start = self.clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stacks[threading.get_ident()].pop()
        self.spans.append(span)

    @contextmanager
    def operation(self, kind: str) -> Iterator[Span]:
        """Root span of one operation (``"op"``, ``"setup"``, ...)."""
        if self._root is not None:
            raise RuntimeError("operations do not nest")
        root = Span(next(self._ids), kind, None, 0, threading.current_thread().name)
        root.op = root.id
        root.start = self.clock()
        self._root = root
        try:
            yield root
        finally:
            root.end = self.clock()
            self._root = None
            self.roots.append(root)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            if span is not None:
                self._close(span)

    def wrap(self, fn: Callable, layer: str, target: str) -> Callable:
        measure = MEASURES.get(target)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(layer)
            if span is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self.fired.add(target)
            if measure is not None:
                span.nbytes = measure(args, kwargs, result)
            return result

        return traced

    def installed(self, table: Mapping[str, Sequence[str]]) -> AbstractContextManager:
        """Wrap every target of ``table`` (layer -> targets) for a block."""
        return patched(
            {
                target: functools.partial(self.wrap, layer=layer, target=target)
                for layer, targets in table.items()
                for target in targets
            }
        )

    # -- analysis ----------------------------------------------------------

    def _children(self) -> dict[int, list[Span]]:
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        return children

    @staticmethod
    def _covered(span: Span, children: Sequence[Span]) -> float:
        """Length of ``span``'s interval covered by the union of children."""
        covered, reach = 0.0, span.start
        clipped = ((c.start, min(c.end, span.end)) for c in children if c.start < span.end)
        for start, stop in sorted(clipped):
            if stop > reach:
                covered += stop - max(start, reach)
                reach = stop
        return covered

    def self_times(self) -> dict[int, float]:
        """Self time of every span and root, by span id."""
        children = self._children()
        return {
            span.id: (span.end - span.start) - self._covered(span, children.get(span.id, ()))
            for span in itertools.chain(self.spans, self.roots)
        }

    def coverage(self) -> dict[int, float]:
        """Share of each root's duration covered by its child spans."""
        children = self._children()
        return {
            root.id: self._covered(root, children.get(root.id, ())) / (root.end - root.start)
            for root in self.roots
            if root.end > root.start
        }

    def layer_totals(self, kind: str) -> dict[str, dict[str, float]]:
        """Per span name: mean self seconds, calls and bytes per root of ``kind``.

        The root itself appears under its own name (``"op"``, ...).
        """
        selfs = self.self_times()
        roots = {root.id for root in self.roots if root.name == kind}
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0.0, "bytes": 0.0}
        )
        for span in itertools.chain(self.spans, self.roots):
            if span.op in roots:
                entry = totals[span.name]
                entry["self_s"] += selfs[span.id] / len(roots)
                entry["calls"] += 1 / len(roots)
                entry["bytes"] += span.nbytes / len(roots)
        return dict(totals)

    def write_jsonl(self, path: str, origin: float) -> None:
        """Every recorded span as one JSON object per line."""
        spans = sorted(itertools.chain(self.roots, self.spans), key=lambda s: s.start)
        with open(path, "w", encoding="utf-8") as out:
            for span in spans:
                record = {
                    "id": span.id,
                    "name": span.name,
                    "parent": span.parent,
                    "op": span.op,
                    "thread": span.thread,
                    "start": round(span.start - origin, 9),
                    "end": round(span.end - origin, 9),
                }
                if span.nbytes:
                    record["bytes"] = span.nbytes
                out.write(json.dumps(record) + "\n")


# -- target tables -------------------------------------------------------------

#: Every wrapped callable, by layer.  A workload's table is a subset:
#: exactly the targets its operations reach.
CATALOGUE: dict[str, tuple[str, ...]] = {
    "crypto.dh": (
        "repro.core.session:agree_pairwise",
        "repro.crypto.keys:DiffieHellman.__init__",
        "repro.crypto.keys:DiffieHellman.shared_secret",
    ),
    "crypto.seal": (
        "repro.crypto.sym:SymmetricCipher.transmit_roundtrip",
        "repro.network.handshake:LinkCipher.seal",
        "repro.network.handshake:LinkCipher.open",
    ),
    "crypto.prng": (
        "repro.crypto.prng:ReseedablePRNG.next_words",
        "repro.crypto.prng:ReseedablePRNG.next_bits_block",
        "repro.crypto.prng:ReseedablePRNG.next_sign_bits",
        "repro.crypto.prng:ReseedablePRNG.next_below_block",
    ),
    "network.serialize": (
        "repro.network.channel:serialize",
        "repro.network.tcp:serialize",
    ),
    "network.deserialize": (
        "repro.network.channel:deserialize",
        "repro.network.tcp:deserialize",
    ),
    "network.channel": ("repro.network.channel:Channel.transmit",),
    "network.lane": (
        "repro.network.simulator:Network.send",
        "repro.network.simulator:Network.receive",
    ),
    "network.socket.send": ("repro.network.tcp:SocketTransport.send",),
    "network.socket.receive": ("repro.network.tcp:SocketTransport.receive",),
    "network.socket.connect": ("repro.network.tcp:SocketTransport.connect_all",),
    "parties.holder": tuple(
        f"repro.parties.holder:DataHolder.{name}"
        for name in (
            "local_matrix",
            "send_local_matrix",
            "numeric_initiate",
            "numeric_respond",
            "alnum_initiate",
            "alnum_respond",
            "distribute_group_key",
            "receive_group_key",
            "send_categorical",
            "send_weights",
            "receive_result",
            "ingest_rows",
            "retire_rows",
            "announce_retirement",
            "send_local_delta",
            "numeric_initiate_delta",
            "numeric_respond_delta",
            "alnum_initiate_delta",
            "alnum_respond_delta",
            "send_categorical_delta",
        )
    ),
    "parties.tp.absorb": tuple(
        f"repro.parties.third_party:ThirdParty.{name}"
        for name in (
            "receive_local_matrix",
            "receive_numeric_block",
            "receive_alnum_block",
            "receive_encrypted_column",
            "receive_weights",
            "begin_delta",
            "receive_local_delta",
            "receive_numeric_delta_block",
            "receive_alnum_delta_block",
            "receive_encrypted_delta",
            "retire_objects",
        )
    ),
    "parties.tp.finalize": tuple(
        f"repro.parties.third_party:ThirdParty.{name}"
        for name in ("finalize_attribute", "finalize_categorical", "finalize_categorical_delta")
    ),
    "parties.tp.publish": (
        "repro.parties.third_party:ThirdParty.cluster_and_publish",
        "repro.parties.third_party:ThirdParty.merged_matrix",
    ),
    "parties.runner": (
        "repro.parties.runner:encode_spec",
        "repro.parties.runner:PartyRunner.__init__",
        "repro.parties.runner:PartyRunner.run",
        "repro.parties.runner:PartyRunner.close",
    ),
    "core.session": (
        "repro.core.session:ClusteringSession.__init__",
        "repro.core.session:ClusteringSession.execute_protocol",
        "repro.core.session:ClusteringSession.run",
        "repro.core.session:ClusteringSession.run_per_holder",
    ),
    "core.scheduler": ("repro.core.scheduler:ConstructionScheduler.run",),
    "core.numeric": (
        "repro.core.numeric:initiator_mask_batch",
        "repro.core.numeric:responder_matrix_batch",
        "repro.core.numeric:third_party_unmask_batch",
    ),
    "core.alnum": (
        "repro.core.alphanumeric:initiator_mask_strings",
        "repro.core.alphanumeric:responder_ccm_matrices",
        "repro.core.alphanumeric:third_party_distances",
    ),
    "core.categorical": (
        "repro.core.categorical:holder_encrypt_column",
        "repro.core.categorical:third_party_categorical_matrix",
    ),
    "distance.local": (
        "repro.parties.holder:pairwise_edit_distances",
        "repro.parties.holder:pairwise_edit_distance_rows",
        "repro.core.categorical:local_dissimilarity",
    ),
    "distance.merge": ("repro.parties.third_party:merge_weighted",),
    "distance.matrix.insert": ("repro.distance.dissimilarity:DissimilarityMatrix.insert_objects",),
    "distance.matrix.remove": ("repro.distance.dissimilarity:DissimilarityMatrix.remove_objects",),
    "distance.store.read": ("repro.distance.store:MemmapStore.read",),
    "distance.store.write": ("repro.distance.store:MemmapStore.write",),
    "distance.store.gather": ("repro.distance.store:MemmapStore.gather",),
    "distance.store.scatter": ("repro.distance.store:MemmapStore.scatter",),
    # Dirty-block writeback: the store flushes evicted blocks through the
    # numpy memmap it holds, so that is the binding to wrap.
    "distance.store.flush": ("numpy:memmap.flush",),
    "clustering.agglomerative": ("repro.parties.third_party:agglomerative",),
    "clustering.cut": ("repro.clustering.dendrogram:Dendrogram.cut_at_k",),
    "clustering.quality": ("repro.parties.third_party:average_square_distance",),
    "clustering.kmedoids": ("repro.clustering.kmedoids:k_medoids",),
    "clustering.silhouette": ("repro.clustering.quality:silhouette_score",),
    "apps.service": (
        "repro.apps.service:ClusteringService.__init__",
        "repro.apps.service:ClusteringService.ingest",
        "repro.apps.service:ClusteringService.retire",
    ),
    "apps.cluster.supervise": ("repro.apps.cluster:ClusterSupervisor.run",),
    "apps.cluster.spawn": ("repro.apps.cluster:ClusterSupervisor._spawn",),
}


def table(layers: Sequence[str], drop: Sequence[str] = ()) -> dict[str, tuple[str, ...]]:
    """The catalogue restricted to ``layers``, minus the ``drop`` targets."""
    unknown = set(drop) - {t for targets in CATALOGUE.values() for t in targets}
    if unknown:
        raise KeyError(f"unknown trace targets {sorted(unknown)}")
    selected = {
        layer: tuple(t for t in CATALOGUE[layer] if t not in drop) for layer in layers
    }
    return {layer: targets for layer, targets in selected.items() if targets}
