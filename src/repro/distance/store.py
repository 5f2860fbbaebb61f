"""Sharded storage backends beneath the condensed dissimilarity matrix.

The paper's protocols produce one global dissimilarity matrix, and every
consumer in this repo (NN-chain linkage, FasterPAM, quality metrics,
delta ingest) runs on its condensed vector.  Holding that vector as one
resident float64 array caps the reachable scale at what RAM affords --
~40 GB at n = 10^5 -- so this module splits the storage *policy* away
from the matrix *semantics*:

* :class:`InMemoryStore` -- the seed representation, one float64 array
  that is also the store's single block.  The default.
* :class:`MemmapStore` -- fixed-size row-block shard files under a
  session directory, memory-mapped on demand through an LRU cache with
  a configurable byte budget and dirty-block writeback.  Evicting a
  block unmaps it, so peak RSS tracks the cache budget plus the
  caller's working buffers, not the triangle size.

Both backends store float64 and the matrix layer runs one code path
over both, so every result is bit-identical between them.  Every store
speaks float64 at the interface: ``read`` returns a read-only array
(a view of the in-memory store's array; a fresh copy from the memmap
store, never a view into a shard -- eviction unmaps the backing pages),
``gather`` a fresh array, and ``write``/``scatter`` accept float64.
Positions are condensed-layout indices (pair ``(i, j)``, ``i > j``, at
``i*(i-1)/2 + j``); a *row block* is therefore a contiguous span of the
condensed vector, which keeps whole-row reads (one contiguous segment
below the diagonal) single-shard-friendly.

Backend selection is a :class:`StoreSpec`, resolved by default from the
environment (``REPRO_STORE_BACKEND`` = ``memory`` | ``memmap``, plus
``REPRO_STORE_BLOCK_ENTRIES`` / ``REPRO_STORE_CACHE_BYTES`` /
``REPRO_STORE_DIR``) so whole test suites and spawned party processes
can be re-pointed at a backend without code changes; explicit specs
flow through :class:`~repro.core.config.ProtocolSuiteConfig`.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from repro.exceptions import ConfigurationError

#: Entries (float64 cells) per row-block shard: 2^21 cells = 16 MiB.
DEFAULT_BLOCK_ENTRIES = 1 << 21
#: LRU budget for resident memmap blocks: 256 MiB.
DEFAULT_CACHE_BYTES = 256 << 20

#: Environment knobs honoured by :func:`default_store_spec`.
ENV_BACKEND = "REPRO_STORE_BACKEND"
ENV_BLOCK_ENTRIES = "REPRO_STORE_BLOCK_ENTRIES"
ENV_CACHE_BYTES = "REPRO_STORE_CACHE_BYTES"
ENV_DIRECTORY = "REPRO_STORE_DIR"

_BACKENDS = ("memory", "memmap")

#: Name of the per-store metadata file that makes a shard directory
#: self-describing (reopenable without the creating process).
_META_FILE = "meta.json"
_META_FORMAT = 1


@dataclass(frozen=True)
class StoreSpec:
    """How to materialise a condensed vector: backend plus its knobs.

    ``block_entries``/``cache_bytes``/``directory`` only shape the memmap
    backend (the in-memory store is always one block); ``directory`` is
    the *base* under which each memmap store creates its own unique
    shard directory (``None`` means the system temp dir).
    """

    backend: str = "memory"
    block_entries: int = DEFAULT_BLOCK_ENTRIES
    cache_bytes: int = DEFAULT_CACHE_BYTES
    directory: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown store backend {self.backend!r}; expected one of {_BACKENDS}"
            )
        if self.block_entries < 1:
            raise ConfigurationError(
                f"store block_entries must be >= 1, got {self.block_entries}"
            )
        if self.cache_bytes < 1:
            raise ConfigurationError(
                f"store cache_bytes must be >= 1, got {self.cache_bytes}"
            )


def default_store_spec() -> StoreSpec:
    """The process-wide default spec, resolved from the environment.

    Unset or empty variables fall back to the in-memory float64 backend
    with the module defaults -- exactly the pre-backend behaviour -- so
    the environment is a pure opt-in override (the ``storage-memmap`` CI
    job and spawned party processes use it to re-point whole runs).
    """
    backend = os.environ.get(ENV_BACKEND, "").strip() or "memory"
    spec_kwargs: dict[str, object] = {"backend": backend}
    for env, field in (
        (ENV_BLOCK_ENTRIES, "block_entries"),
        (ENV_CACHE_BYTES, "cache_bytes"),
    ):
        raw = os.environ.get(env, "").strip()
        if raw:
            try:
                spec_kwargs[field] = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"{env} must be an integer, got {raw!r}"
                ) from None
    directory = os.environ.get(ENV_DIRECTORY, "").strip()
    if directory:
        spec_kwargs["directory"] = directory
    return StoreSpec(**spec_kwargs)  # type: ignore[arg-type]


def open_store(
    spec: StoreSpec, size: int, values: np.ndarray | None = None
) -> "CondensedStore":
    """Materialise a condensed vector of ``size`` entries under ``spec``.

    With ``values`` (a float64 array of length ``size``) the store is
    filled block-wise; without, it starts at zero (free for the memmap
    backend -- shard files are created sparse).
    """
    if spec.backend == "memory":
        if values is not None:
            return InMemoryStore(values)
        return InMemoryStore(np.zeros(size, dtype=np.float64))
    store = MemmapStore.create(
        size,
        block_entries=spec.block_entries,
        cache_bytes=spec.cache_bytes,
        base_directory=spec.directory,
    )
    if values is not None:
        values = np.asarray(values, dtype=np.float64)
        for start, stop in store.block_ranges():
            store.write(start, values[start:stop])
    return store


class CondensedStore(ABC):
    """Storage backend for one condensed vector.

    The contract every :class:`~repro.distance.dissimilarity.DissimilarityMatrix`
    operation is written against: each one streams through ``read``/
    ``write``/``gather``/``scatter`` in :meth:`block_ranges`-sized spans,
    whatever the backend.  How a span reaches its bytes is the store's
    business alone.
    """

    #: Backend name, matching :class:`StoreSpec.backend`.
    kind: str = "abstract"

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of condensed entries."""

    @property
    @abstractmethod
    def block_entries(self) -> int:
        """Streaming granularity (entries per block, >= 1)."""

    @abstractmethod
    def read(self, start: int, stop: int) -> np.ndarray:
        """Entries ``[start, stop)`` as a read-only float64 array.

        It may share memory with the store, and then shows later writes:
        copy it to keep a snapshot.
        """

    @abstractmethod
    def write(self, start: int, values: np.ndarray) -> None:
        """Overwrite entries ``[start, start + len(values))``."""

    @abstractmethod
    def gather(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Entries at ``positions`` (any order), as float64.

        Ascending position runs are the fast path (one grouped read per
        touched block); callers in hot loops pass ``out`` to amortise
        allocation.
        """

    @abstractmethod
    def scatter(self, positions: np.ndarray, values: np.ndarray) -> None:
        """Write ``values`` at ``positions`` (duplicate-free)."""

    @abstractmethod
    def spawn(
        self,
        size: int,
        block_entries: int | None = None,
        cache_bytes: int | None = None,
    ) -> "CondensedStore":
        """Fresh all-zero sibling store of the same kind.

        Derived matrices (copies, submatrices, grown/shrunk epochs) and
        algorithm workspaces inherit their source's backend through this
        -- the overrides let a workspace pick coarser blocks or a larger
        cache than the source without changing backends.
        """

    def spawn_filled(
        self, size: int, fill: Callable[[int, int], np.ndarray]
    ) -> "CondensedStore":
        """Sibling store whose span ``[start, stop)`` holds ``fill(start, stop)``.

        ``fill`` runs once per block of the new store, in order, and must
        return a fresh writable float64 array that the store may keep.
        """
        fresh = self.spawn(size)
        for start, stop in fresh.block_ranges():
            fresh.write(start, fill(start, stop))
        return fresh

    def flush(self) -> None:
        """Push dirty state to durable storage (no-op for RAM backends)."""

    def close(self) -> None:
        """Release resources; sharded backends drop their shard files."""

    def block_ranges(self) -> Iterator[tuple[int, int]]:
        """``(start, stop)`` spans covering ``[0, size)`` block by block."""
        step = self.block_entries
        for start in range(0, self.size, step):
            yield start, min(self.size, start + step)


class InMemoryStore(CondensedStore):
    """The seed representation: one resident float64 array, one block.

    The whole vector is a single block, so every block-wise loop makes
    one pass over it and block-order-sensitive reductions (sums, means)
    see exactly the seed's operand order.  Constructing from an existing
    float64 array wraps it, never copies.
    """

    kind = "memory"

    def __init__(self, values: np.ndarray) -> None:
        self._values = np.asarray(values, dtype=np.float64)
        # Slices of a read-only view are read-only views: ``read`` costs
        # one slice, not a flag write per call.
        self._readonly = self._values.view()
        self._readonly.flags.writeable = False

    @property
    def size(self) -> int:
        return int(self._values.size)

    @property
    def block_entries(self) -> int:
        return max(1, self._values.size)

    def read(self, start: int, stop: int) -> np.ndarray:
        return self._readonly[start:stop]

    def write(self, start: int, values: np.ndarray) -> None:
        self._values[start : start + len(values)] = values

    def gather(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is not None:
            return self._values.take(positions, out=out)
        return self._values[positions]

    def scatter(self, positions: np.ndarray, values: np.ndarray) -> None:
        self._values[positions] = values

    def spawn(
        self,
        size: int,
        block_entries: int | None = None,
        cache_bytes: int | None = None,
    ) -> "InMemoryStore":
        return InMemoryStore(np.zeros(size, dtype=np.float64))

    def spawn_filled(
        self, size: int, fill: Callable[[int, int], np.ndarray]
    ) -> "InMemoryStore":
        # One block: keep fill's array rather than copy it into zeros.
        return InMemoryStore(fill(0, size))


def _cleanup_shards(
    cache: "OrderedDict[int, np.memmap]",
    dirty: set[int],
    directory: str,
    owns_directory: bool,
) -> None:
    """GC/close hook for :class:`MemmapStore` (no ``self``: a bound
    method inside ``weakref.finalize`` would keep the store alive).

    Only a borrowed directory outlives the store, so only its dirty
    blocks are flushed: an owned directory is deleted next, and syncing
    its shards would write bytes nothing can read."""
    if not owns_directory:
        for block in list(dirty):
            mapped = cache.get(block)
            if mapped is not None:
                mapped.flush()
    dirty.clear()
    cache.clear()
    if owns_directory:
        shutil.rmtree(directory, ignore_errors=True)


class MemmapStore(CondensedStore):
    """Row-block shard files, memory-mapped through a bounded LRU cache.

    Layout: entries ``[b * block_entries, (b+1) * block_entries)`` live
    in ``block-<b>.f64`` (raw little-endian float64, the numpy memmap
    dtype) under one shard directory, beside a ``meta.json`` describing
    ``size`` and ``block_entries`` so the directory is self-contained
    (:meth:`open` reopens it).  Shard files are created sparse via
    ``mode="w+"``, so an all-zero store costs no disk writes.

    Cache/writeback contract: at most ``cache_bytes`` worth of blocks
    are mapped at once.  Eviction flushes a dirty block and drops the
    mapping (munmap), which is what bounds RSS; clean evictions just
    unmap.  Data remains coherent across evict/reopen within a machine
    regardless of :meth:`flush` (shared file mappings), while
    :meth:`flush` additionally makes it crash-durable.

    Stores created here own their shard directory and delete it on
    :meth:`close` (or garbage collection) without flushing it; stores
    from :meth:`open` borrow the directory, flush their dirty blocks on
    close and leave it in place.

    A store of one block (``size <= block_entries``) gathers and
    scatters with one numpy call on its one mapping.
    """

    kind = "memmap"

    def __init__(
        self,
        size: int,
        block_entries: int,
        cache_bytes: int,
        directory: str,
        base_directory: str | None,
        owns_directory: bool,
    ) -> None:
        if size < 0:
            raise ConfigurationError(f"store size must be >= 0, got {size}")
        self._size = int(size)
        self._block_entries = int(block_entries)
        self._cache_bytes = int(cache_bytes)
        self._max_blocks = max(1, self._cache_bytes // (self._block_entries * 8))
        self._directory = directory
        self._base_directory = base_directory
        self._lock = threading.RLock()
        #: Mapped blocks, LRU order (oldest first).
        # guarded-by: self._lock
        self._cache: OrderedDict[int, np.memmap] = OrderedDict()
        #: Blocks written since their last flush.
        # guarded-by: self._lock
        self._dirty: set[int] = set()
        self._finalizer = weakref.finalize(
            self, _cleanup_shards, self._cache, self._dirty, directory, owns_directory
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        size: int,
        block_entries: int = DEFAULT_BLOCK_ENTRIES,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        base_directory: str | None = None,
    ) -> "MemmapStore":
        """New zero store in a fresh shard directory under ``base_directory``."""
        if base_directory is not None:
            os.makedirs(base_directory, exist_ok=True)
            directory = tempfile.mkdtemp(prefix="condensed-", dir=base_directory)
        else:
            directory = tempfile.mkdtemp(prefix="repro-condensed-")
        meta = {
            "format": _META_FORMAT,
            "size": int(size),
            "block_entries": int(block_entries),
        }
        with open(os.path.join(directory, _META_FILE), "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        return cls(
            size,
            block_entries=block_entries,
            cache_bytes=cache_bytes,
            directory=directory,
            base_directory=base_directory,
            owns_directory=True,
        )

    @classmethod
    def open(cls, directory: str, cache_bytes: int = DEFAULT_CACHE_BYTES) -> "MemmapStore":
        """Reopen an existing shard directory (does not take ownership)."""
        meta_path = os.path.join(directory, _META_FILE)
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"not a condensed shard directory ({meta_path}): {exc}"
            ) from exc
        if not isinstance(meta, dict):
            raise ConfigurationError(
                f"shard metadata in {meta_path} is not a JSON object"
            )
        if meta.get("format") != _META_FORMAT:
            raise ConfigurationError(
                f"unsupported shard format {meta.get('format')!r} in {directory}"
            )
        for field, minimum in (("size", 0), ("block_entries", 1)):
            value = meta.get(field)
            if type(value) is not int or value < minimum:
                raise ConfigurationError(
                    f"shard metadata {field!r} must be an integer >= {minimum}, "
                    f"got {value!r} in {meta_path}"
                )
        return cls(
            meta["size"],
            block_entries=meta["block_entries"],
            cache_bytes=cache_bytes,
            directory=directory,
            base_directory=os.path.dirname(directory) or None,
            owns_directory=False,
        )

    # -- introspection -----------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    @property
    def block_entries(self) -> int:
        return self._block_entries

    @property
    def directory(self) -> str:
        """The shard directory (reopenable via :meth:`open` after flush)."""
        return self._directory

    @property
    def cached_blocks(self) -> int:
        """Currently mapped blocks (the LRU test hook)."""
        with self._lock:
            return len(self._cache)

    # -- block machinery ---------------------------------------------------

    def _block_locked(self, block: int) -> np.memmap:
        """Map (or touch) one block; evict past the budget.  Caller holds
        ``self._lock``."""
        mapped = self._cache.get(block)
        if mapped is not None:
            self._cache.move_to_end(block)
            return mapped
        start = block * self._block_entries
        entries = min(self._size - start, self._block_entries)
        path = os.path.join(self._directory, f"block-{block:06d}.f64")
        mode = "r+" if os.path.exists(path) else "w+"
        mapped = np.memmap(path, dtype=np.float64, mode=mode, shape=(entries,))
        self._cache[block] = mapped
        while len(self._cache) > self._max_blocks:
            evicted, evicted_map = self._cache.popitem(last=False)
            if evicted == block:  # budget of one: keep the requested block
                self._cache[evicted] = evicted_map
                break
            if evicted in self._dirty:
                evicted_map.flush()
                self._dirty.discard(evicted)
            # Dropping the last reference unmaps the block -- that munmap
            # is what keeps RSS at the cache budget.
            del evicted_map
        return mapped

    def _segments(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Group flat positions by block: (blocks, starts, stops, order).

        ``order`` is ``None`` when positions are already block-ascending
        (the structured-gather fast path); otherwise it is the stable
        permutation that sorts them by block.
        """
        blocks = positions // self._block_entries
        if blocks.size and np.any(blocks[:-1] > blocks[1:]):
            order = np.argsort(blocks, kind="stable")
            blocks = blocks[order]
        else:
            order = None
        bounds = np.flatnonzero(blocks[1:] != blocks[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        stops = np.concatenate((bounds, [blocks.size]))
        return blocks, starts, stops, order

    # -- CondensedStore interface ------------------------------------------

    def read(self, start: int, stop: int) -> np.ndarray:
        out = np.empty(stop - start, dtype=np.float64)
        with self._lock:
            position = start
            while position < stop:
                block = position // self._block_entries
                boundary = min(stop, (block + 1) * self._block_entries)
                mapped = self._block_locked(block)
                local = position - block * self._block_entries
                out[position - start : boundary - start] = mapped[
                    local : local + (boundary - position)
                ]
                position = boundary
        out.flags.writeable = False
        return out

    def write(self, start: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        stop = start + values.size
        with self._lock:
            position = start
            while position < stop:
                block = position // self._block_entries
                boundary = min(stop, (block + 1) * self._block_entries)
                mapped = self._block_locked(block)
                local = position - block * self._block_entries
                mapped[local : local + (boundary - position)] = values[
                    position - start : boundary - start
                ]
                self._dirty.add(block)
                position = boundary

    def gather(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        if out is None:
            out = np.empty(positions.shape, dtype=np.float64)
        if positions.size == 0:
            return out
        if self._size <= self._block_entries:
            with self._lock:
                np.take(self._block_locked(0), positions, out=out)
            return out
        flat_out = out.reshape(-1)
        flat_pos = positions.reshape(-1)
        with self._lock:
            blocks, starts, stops, order = self._segments(flat_pos)
            sorted_pos = flat_pos if order is None else flat_pos[order]
            gathered = flat_out if order is None else np.empty_like(flat_out)
            for seg_start, seg_stop in zip(starts, stops):
                block = int(blocks[seg_start])
                mapped = self._block_locked(block)
                np.take(
                    mapped,
                    sorted_pos[seg_start:seg_stop] - block * self._block_entries,
                    out=gathered[seg_start:seg_stop],
                )
            if order is not None:
                flat_out[order] = gathered
        return out

    def scatter(self, positions: np.ndarray, values: np.ndarray) -> None:
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if positions.size != values.size:
            raise ConfigurationError(
                f"scatter got {positions.size} positions for {values.size} values"
            )
        if positions.size == 0:
            return
        if self._size <= self._block_entries:
            with self._lock:
                self._block_locked(0)[positions] = values
                self._dirty.add(0)
            return
        with self._lock:
            blocks, starts, stops, order = self._segments(positions)
            sorted_pos = positions if order is None else positions[order]
            sorted_vals = values if order is None else values[order]
            for seg_start, seg_stop in zip(starts, stops):
                block = int(blocks[seg_start])
                mapped = self._block_locked(block)
                mapped[
                    sorted_pos[seg_start:seg_stop] - block * self._block_entries
                ] = sorted_vals[seg_start:seg_stop]
                self._dirty.add(block)

    def spawn(
        self,
        size: int,
        block_entries: int | None = None,
        cache_bytes: int | None = None,
    ) -> "MemmapStore":
        return MemmapStore.create(
            size,
            block_entries=block_entries or self._block_entries,
            cache_bytes=cache_bytes or self._cache_bytes,
            base_directory=self._base_directory,
        )

    def flush(self) -> None:
        with self._lock:
            for block in sorted(self._dirty):
                mapped = self._cache.get(block)
                if mapped is not None:
                    mapped.flush()
            self._dirty.clear()

    def close(self) -> None:
        """Unmap everything, and remove the shards if owned (flushing
        them first if borrowed)."""
        self._finalizer()


def spec_of(store: CondensedStore) -> StoreSpec:
    """Reconstruct the :class:`StoreSpec` a store was built under (the
    knobs a sibling would inherit) -- used when a matrix must hand its
    configuration to a component that builds matrices itself."""
    if isinstance(store, MemmapStore):
        return StoreSpec(
            backend="memmap",
            block_entries=store.block_entries,
            cache_bytes=store._cache_bytes,
            directory=store._base_directory,
        )
    return StoreSpec(backend="memory")


def with_backend(spec: StoreSpec, backend: str) -> StoreSpec:
    """``spec`` with its backend swapped (knobs preserved)."""
    return replace(spec, backend=backend)
