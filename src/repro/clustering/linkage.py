"""Agglomerative hierarchical clustering via nearest-neighbor chains.

The paper deliberately outputs a dissimilarity matrix rather than wiring
the protocol to one algorithm: "The main advantage of our method is its
generality in applicability to different clustering methods such as
hierarchical clustering" (Section 6).  This module is the hierarchical
family: single, complete, average (UPGMA), weighted (WPGMA) and Ward
linkage, all driven purely by the matrix.

Every method is expressed through the Lance-Williams recurrence

    d(i∪j, k) = a_i·d(i,k) + a_j·d(j,k) + b·d(i,j) + g·|d(i,k) − d(j,k)|

(Ward works on squared distances with a final square root, matching the
convention of ``scipy.cluster.hierarchy.linkage``, against which the test
suite cross-validates merge heights and flat cuts.)

Algorithm
---------
The seed implementation (preserved in
:func:`repro.clustering.reference.reference_agglomerative`) re-scans a
dense n x n square for the global minimum before every merge: O(n^3)
time, O(n^2) full-square memory.  This module works **in place on the
condensed vector** (O(n^2/2) floats, the matrix's native storage) and
never materialises a square.  Two discovery strategies feed one shared
emission pass:

* **Nearest-neighbor chain** (Murtagh), the default: follow
  nearest-neighbor links until two clusters are mutually nearest, merge
  them, and keep the remaining chain -- valid because every supported
  method is *reducible* (merging two mutually-nearest clusters never
  brings any third cluster closer than their merge distance).  O(n^2)
  worst-case total work.
* **Cached-argmin replay**, used when the input contains duplicate
  distances: ties make the mutual-nearest-neighbor relation ambiguous,
  and NN-chain may legitimately resolve it differently from the seed's
  global argmin.  This path replays the seed's selection rule exactly
  (smallest ``(distance, i, j)`` key) with Anderberg-style per-row
  nearest-neighbor caches, typically O(n^2) -- only rows whose cached
  neighbor was consumed are rescanned.

NN-chain discovers merges out of height order, and its intermediate
Lance-Williams evaluations associate floats in discovery order, so a
canonicalization pass finishes the job: order the discovered merges by
the seed's argmin key (heap-Kahn over the cluster-dependency partial
order), then *replay* them on the working copy refilled from the source,
so every update is evaluated in the seed's association order.  The
emitted dendrogram is merge-for-merge identical to the seed's --
bit-equal heights included
(``tests/test_clustering_equivalence.py`` holds the layer to that; the
one reservation is adversarial inputs whose *distinct* distances
collide bitwise only after repeated update arithmetic, which no
condensed-time tie check can see).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.clustering.dendrogram import Dendrogram, Merge
from repro.distance.dissimilarity import (
    DissimilarityMatrix,
    condensed_has_duplicates,
    condensed_offsets,
    condensed_row_gather,
)
from repro.distance.store import CondensedStore
from repro.exceptions import ClusteringError
from repro.types import LinkageMethod


class _Workspace:
    """Condensed working state plus reusable buffers for the hot loops.

    The working state is a one-block
    :class:`~repro.distance.store.CondensedStore` copy of the source the
    workspace owns (see :func:`_spawn_working`); :meth:`reset` refills it
    for the NN-chain replay.  Rows are read as a contiguous
    below-diagonal slice plus one strided above-diagonal gather, and
    merge updates are written back the same way *unmasked*: retired
    pairs' condensed slots receive stale garbage, which is safe because
    every reader either indexes active slots only or masks inactive
    entries to infinity afterwards.  The merge arithmetic only ever sees
    gathered float64 rows, so it is the same on every backend.
    """

    def __init__(
        self, source: CondensedStore, n: int, method: LinkageMethod
    ) -> None:
        self.n = n
        self.offsets = condensed_offsets(n)
        self.method = method
        self._source = source
        self.working = _spawn_working(source)
        self.active = np.empty(n, dtype=bool)
        self.sizes = np.empty(n, dtype=np.int64)
        # inf where retired, 0.0 where active: adding it to a gathered row
        # masks retired slots without allocating a boolean inverse.
        self.inactive_inf = np.empty(n, dtype=np.float64)
        self._row_i = np.empty(n, dtype=np.float64)
        self._row_j = np.empty(n, dtype=np.float64)
        self._delta = np.empty(n, dtype=np.float64)
        self._tail = np.empty(n, dtype=np.int64)
        self.reset()

    def reset(self) -> None:
        """Back to the source's values (squared for Ward), every slot an
        active singleton -- the state before any merge.

        The copy goes one source block at a time, in steps of at most
        :data:`_FILL_ENTRIES`: never one whole-triangle read."""
        source = self._source
        for start, stop in source.block_ranges():
            for step in range(start, stop, _FILL_ENTRIES):
                values = source.read(step, min(stop, step + _FILL_ENTRIES))
                if self.method is LinkageMethod.WARD:
                    values = np.square(values)
                self.working.write(step, values)
        self.active[:] = True
        self.sizes[:] = 1
        self.inactive_inf[:] = 0.0

    def _tail_positions(self, index: int) -> np.ndarray:
        tail = self._tail[: self.n - index - 1]
        np.add(self.offsets[index + 1 :], index, out=tail)
        return tail

    def close(self) -> None:
        """Release the owned working store."""
        self.working.close()

    def gather_row(self, index: int, out: np.ndarray) -> np.ndarray:
        """Row ``index`` of the square, read off the condensed vector
        (diagonal entry fixed at 0.0)."""
        return condensed_row_gather(
            self.working, index, self.n, self.offsets, out=out, scratch=self._tail
        )

    def merge(self, i: int, j: int) -> float:
        """Merge slot ``j`` into slot ``i`` (``i < j``) in place.

        One Lance-Williams row update against every other cluster,
        evaluated with the seed loop's exact per-element operations (and
        operand order) so the produced values are bit-identical to a
        seed run performing the same merges in the same order.  Returns
        the raw merge height (squared scale for Ward).
        """
        method = self.method
        sizes = self.sizes
        d_ik = self.gather_row(i, self._row_i)
        d_jk = self.gather_row(j, self._row_j)
        # d(j, i) sits in row j's below-diagonal slice (i < j); read it
        # before the in-place arithmetic below overwrites the row.
        height = float(d_jk[i])

        size_i = int(sizes[i])
        size_j = int(sizes[j])
        if method is LinkageMethod.SINGLE or method is LinkageMethod.COMPLETE:
            sign = -0.5 if method is LinkageMethod.SINGLE else 0.5
            delta = np.subtract(d_ik, d_jk, out=self._delta)
            np.abs(delta, out=delta)
            delta *= sign
            updated = np.multiply(d_ik, 0.5, out=d_ik)
            updated += np.multiply(d_jk, 0.5, out=d_jk)
            updated += delta
        elif method is LinkageMethod.AVERAGE:
            total = float(size_i + size_j)
            updated = np.multiply(d_ik, size_i / total, out=d_ik)
            updated += np.multiply(d_jk, size_j / total, out=d_jk)
        elif method is LinkageMethod.WEIGHTED:
            updated = np.multiply(d_ik, 0.5, out=d_ik)
            updated += np.multiply(d_jk, 0.5, out=d_jk)
        elif method is LinkageMethod.WARD:
            size_k = sizes.astype(np.float64)
            total = size_i + size_j + size_k
            updated = ((size_i + size_k) / total) * d_ik
            updated += ((size_j + size_k) / total) * d_jk
            updated += (-size_k / total) * height
        else:
            raise ClusteringError(f"unsupported linkage method: {method}")

        # Unmasked write-back: the diagonal entry has no condensed slot,
        # and retired pairs' slots may take garbage (never read again).
        self.working.write(int(self.offsets[i]), updated[:i])
        if i + 1 < self.n:
            self.working.scatter(self._tail_positions(i), updated[i + 1 :])
        self.active[j] = False
        self.inactive_inf[j] = np.inf
        sizes[i] = size_i + size_j
        sizes[j] = 0
        return height


def _nn_chain_pairs(workspace: _Workspace) -> list[tuple[int, int, float]]:
    """NN-chain discovery pass, mutating the workspace in place.

    Returns the discovered merges in chronological order as
    ``(rep_i, rep_j, raw_height)`` with ``rep_i < rep_j``; representatives
    are minimum leaf indices (the merged cluster keeps the smaller slot,
    mirroring the seed loop's bookkeeping).
    """
    n = workspace.n
    active = workspace.active
    row = np.empty(n, dtype=np.float64)
    chain: list[int] = []
    merges: list[tuple[int, int, float]] = []

    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.argmax(active)))  # smallest active index
        while True:
            x = chain[-1]
            workspace.gather_row(x, row)
            row += workspace.inactive_inf
            row[x] = np.inf
            if len(chain) > 1:
                y = chain[-2]
                best = row[y]
            else:
                y = -1
                best = np.inf
            candidate = int(np.argmin(row))
            # Ties prefer the chain predecessor, guaranteeing progress:
            # the chain only extends on a strict improvement.
            if row[candidate] < best:
                y = candidate
            if len(chain) > 1 and y == chain[-2]:
                break
            chain.append(y)

        # x and y are mutually nearest: merge, keep the remaining chain.
        chain.pop()
        chain.pop()
        i, j = (x, y) if x < y else (y, x)
        height = workspace.merge(i, j)
        merges.append((i, j, height))

    return merges


def _argmin_pairs(workspace: _Workspace) -> list[tuple[int, int, float]]:
    """Exact seed-order discovery: global argmin with per-row NN caches.

    ``nn_distance[i]`` / ``nn_partner[i]`` cache the smallest distance
    from cluster ``i`` to any active cluster ``j > i`` (smallest such
    ``j`` on ties), so the global minimum pair under the seed's
    ``(distance, i, j)`` key is one O(n) argmin per step.  After a merge
    only the merged row and rows whose cached partner was touched are
    rescanned (Anderberg's scheme); everything else is a vectorized
    compare-and-update against the freshly written column.  Because this
    path discovers merges in the seed's chronological order, its heights
    are already bit-identical to the seed's -- no replay needed.
    """
    n = workspace.n
    offsets = workspace.offsets
    active = workspace.active
    nn_distance = np.full(n, np.inf)
    nn_partner = np.full(n, -1, dtype=np.int64)

    def rescan(row: int) -> None:
        partners = np.flatnonzero(active[row + 1 :]) + row + 1
        if partners.size == 0:
            nn_distance[row] = np.inf
            nn_partner[row] = -1
            return
        values = workspace.working.gather(offsets[partners] + row)
        best = int(np.argmin(values))
        nn_distance[row] = values[best]
        nn_partner[row] = int(partners[best])

    for row in range(n - 1):
        rescan(row)

    merges: list[tuple[int, int, float]] = []
    for _ in range(n - 1):
        i = int(np.argmin(nn_distance))
        j = int(nn_partner[i])
        height = workspace.merge(i, j)
        merges.append((i, j, height))
        nn_distance[j] = np.inf
        nn_partner[j] = -1
        if i > 0:
            rows = np.flatnonzero(active[:i])
            fresh = workspace.working.gather(offsets[i] + rows)
            cached_partner = nn_partner[rows]
            stale = (cached_partner == i) | (cached_partner == j)
            better = ~stale & (
                (fresh < nn_distance[rows])
                | ((fresh == nn_distance[rows]) & (i < cached_partner))
            )
            nn_distance[rows[better]] = fresh[better]
            nn_partner[rows[better]] = i
            for row in rows[stale]:
                rescan(int(row))
        # Rows between i and j never pair with slot i (partners are always
        # larger than the row), but lose slot j from their partner set.
        between = np.flatnonzero(active[i + 1 : j]) + i + 1
        for row in between[nn_partner[between] == j]:
            rescan(int(row))
        rescan(i)

    return merges


def _canonical_order(
    raw_merges: list[tuple[int, int, float]]
) -> list[tuple[int, int]]:
    """Order discovered merges by the seed loop's deterministic rule.

    Emits the ready merge (both operand clusters formed) with the
    smallest ``(raw_height, rep_i, rep_j)`` key -- the seed's global
    argmin selection restricted to the discovered merge set.  Dependency
    tracking is by representative: merges touching the same cluster
    representative must replay in discovery order.
    """
    touching: dict[int, list[int]] = {}
    for step, (rep_i, rep_j, _) in enumerate(raw_merges):
        touching.setdefault(rep_i, []).append(step)
        touching.setdefault(rep_j, []).append(step)
    frontier = {rep: 0 for rep in touching}

    def ready(step: int) -> bool:
        rep_i, rep_j, _ = raw_merges[step]
        return (
            touching[rep_i][frontier[rep_i]] == step
            and touching[rep_j][frontier[rep_j]] == step
        )

    heap: list[tuple[float, int, int, int]] = []
    for step, (rep_i, rep_j, height) in enumerate(raw_merges):
        if ready(step):
            heapq.heappush(heap, (height, rep_i, rep_j, step))

    ordered: list[tuple[int, int]] = []
    while heap:
        _, rep_i, rep_j, step = heapq.heappop(heap)
        ordered.append((rep_i, rep_j))
        frontier[rep_i] += 1
        frontier[rep_j] += 1
        # rep_j is consumed; only rep_i can unlock a successor merge.
        queue = touching[rep_i]
        if frontier[rep_i] < len(queue):
            successor = queue[frontier[rep_i]]
            if ready(successor):
                si, sj, sh = raw_merges[successor]
                heapq.heappush(heap, (sh, si, sj, successor))
    return ordered


def _replay(
    workspace: _Workspace, ordered_pairs: list[tuple[int, int]]
) -> list[tuple[int, int, float]]:
    """Re-apply ordered merges on a reset workspace.

    The replay exists for bit-equality: Lance-Williams updates associate
    floats in evaluation order, so heights must be produced by applying
    the merges in their final (canonical) order -- exactly what the seed
    loop does -- not in NN-chain discovery order.
    """
    workspace.reset()
    return [(i, j, workspace.merge(i, j)) for i, j in ordered_pairs]


#: Entries per fill step: bounds Ward's squared temporary when the
#: source is one large in-memory block.
_FILL_ENTRIES = 1 << 20


def _spawn_working(source: CondensedStore) -> CondensedStore:
    """An empty working store for a copy of ``source``: one block on the
    source's backend, with a cache that holds it.

    The merge loop revisits every row constantly, so the working copy is
    kept wholly resident by design (an undersized cache would turn each
    row gather into a munmap/remap refault storm).  Blocks would then buy
    nothing, and as one block every row gather and merge scatter is one
    numpy call.  Peak RSS for the linkage path is therefore ~one
    condensed triangle (plus O(n) buffers) beyond the source's own cache
    -- half the square-matrix footprint.  On the memmap backend the copy
    stays a file-backed shard rather than anonymous memory.
    """
    return source.spawn(
        source.size, block_entries=source.size, cache_bytes=8 * source.size
    )


def _emit(
    chronological: list[tuple[int, int, float]], n: int, method: LinkageMethod
) -> list[Merge]:
    """Turn ``(rep_i, rep_j, raw_height)`` triples into numbered Merges."""
    node_of = np.arange(n, dtype=np.int64)
    leaf_count = np.ones(n, dtype=np.int64)
    merges: list[Merge] = []
    for step, (i, j, raw_height) in enumerate(chronological):
        height = (
            float(np.sqrt(raw_height))
            if method is LinkageMethod.WARD
            else float(raw_height)
        )
        merges.append(
            Merge(
                left=int(node_of[i]),
                right=int(node_of[j]),
                height=height,
                size=int(leaf_count[i] + leaf_count[j]),
            )
        )
        node_of[i] = n + step
        leaf_count[i] += leaf_count[j]
    return merges


def agglomerative(
    matrix: DissimilarityMatrix,
    method: LinkageMethod | str = LinkageMethod.AVERAGE,
) -> Dendrogram:
    """Cluster a dissimilarity matrix bottom-up into a full dendrogram.

    O(n^2) time via nearest-neighbor chains over the condensed vector
    (cached-argmin replay for tied inputs); deterministic, and
    merge-for-merge identical to the preserved seed implementation (ties
    break by the smallest flat square index), so two runs on equal
    inputs produce identical trees -- a property the zero-accuracy-loss
    experiments rely on.
    """
    if isinstance(method, str):
        try:
            method = LinkageMethod(method)
        except ValueError:
            raise ClusteringError(f"unknown linkage method {method!r}") from None
    n = matrix.num_objects
    if n == 1:
        return Dendrogram(1, [])

    # The tie check reads the source (squared for Ward, as the merges
    # will see it) before the working copy exists, so its sort buffer
    # never sits beside a live working triangle.
    has_ties = condensed_has_duplicates(
        matrix.store, squared=method is LinkageMethod.WARD
    )
    workspace = _Workspace(matrix.store, n, method)
    try:
        if has_ties:
            chronological = _argmin_pairs(workspace)
        else:
            discovered = _nn_chain_pairs(workspace)
            chronological = _replay(workspace, _canonical_order(discovered))
    finally:
        workspace.close()
    return Dendrogram(n, _emit(chronological, n, method))
