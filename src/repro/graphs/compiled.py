"""The compiled graph-kernel plane: njit / scipy.sparse ports of the hot kernels.

BENCH_core.json shows the numpy CSR kernels of :mod:`repro.graphs.csr` are the
wall-clock floor of every simulation: CSR bought 3-4x over the dict backend and
the vectorized message plane 2-4x over the scalar scan, but each relaxation
round is still a chain of interpreter-dispatched numpy calls, which caps
experiments near n = 512.  This module provides a third execution plane for the
same three kernels -- multi-source Dijkstra/Bellman-Ford distances, hop-limited
``d_h`` relaxation, and level-synchronous BFS -- compiled to native code:

* **numba** ``@njit(cache=True)`` ports when numba is importable: a per-source
  array-heap Dijkstra, a synchronous hop-limited Bellman-Ford, and a frontier
  BFS, all operating directly on the frozen CSR arrays; and
* **scipy.sparse.csgraph** formulations when scipy is importable: exact
  distances and BFS levels via the C implementation of
  :func:`scipy.sparse.csgraph.dijkstra` over a cached ``csr_matrix`` view
  (the sparse-algebra template of ``graphkit-learn``'s kernels, see ROADMAP).

Selection is per kernel: njit when available, else the scipy formulation where
one is natural (exact distances, BFS levels), else the pure numpy kernel.  The
weighted hop-limited ``d_h`` is round-synchronous, which no csgraph search is,
so without numba it falls back to :func:`repro.graphs.csr._relax_rounds`: a
sort-free scatter-min (one unbuffered ``np.minimum.at`` per round, a stamp
array to dedupe the frontier) over L2-sized row blocks of sources, with
nothing left for a sparse-algebra formulation to win (DESIGN.md §4).
Graceful degradation is the contract: importing this module never fails, and
every public function returns bit-identical results on every plane.

**Oracle discipline (DESIGN.md §9).**  The numpy kernels stay pinned as the
differential-testing oracle exactly the way the scalar message plane anchors
the vectorized one: edge weights are positive integers, every distance is an
exact float64 sum along one path, and all three planes take the same minima,
so no floating-point divergence is possible.  tests/test_compiled_plane.py
pins compiled-vs-numpy-vs-dict equality property-style, and the benchmark
record ``compiled-kernel`` in BENCH_core.json tracks the measured speedup at
n = 4096.

:class:`~repro.graphs.graph.WeightedGraph` exposes this plane as
``backend="csr-njit"``; ``backend="auto"`` prefers it whenever
:func:`available` is true.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graphs import csr as _numpy_plane
from repro.graphs.csr import (
    CSRAdjacency,
    _levels_as_distances,
    _relax_rounds,
)

try:  # Optional accelerator: the plane degrades per kernel without it.
    from numba import njit as _njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is absent in the base container
    _njit = None
    HAS_NUMBA = False

try:  # Optional accelerator: C shortest-path kernels over sparse matrices.
    from scipy import sparse as _sparse
    from scipy.sparse import csgraph as _csgraph

    HAS_SCIPY = True
except ImportError:  # pragma: no cover - exercised in the no-scipy CI leg
    _sparse = None
    _csgraph = None
    HAS_SCIPY = False


def available() -> bool:
    """Whether any compiled kernel (njit or scipy) is importable."""
    return HAS_NUMBA or HAS_SCIPY


def kernel_report() -> dict:
    """Which implementation each kernel resolves to right now (diagnostics)."""
    compiled = "njit" if HAS_NUMBA else ("scipy" if HAS_SCIPY else "numpy")
    return {
        "available": available(),
        "numba": HAS_NUMBA,
        "scipy": HAS_SCIPY,
        "distance_matrix": compiled,
        "bfs_level_matrix": compiled,
        "hop_limited_matrix": "njit" if HAS_NUMBA else "numpy",
    }


def _scipy_view(csr: CSRAdjacency):
    """The cached ``scipy.sparse.csr_matrix`` view of a frozen adjacency.

    Built once per :class:`CSRAdjacency`; the adjacency is immutable after
    construction (mutation drops the whole view), so the cache never goes
    stale.
    """
    view = csr.sparse_view
    if view is None:
        view = _sparse.csr_matrix(
            (csr.weights, csr.indices, csr.indptr), shape=(csr.n, csr.n)
        )
        csr.sparse_view = view
    return view


# --------------------------------------------------------------------- numba
# The njit kernels operate on the raw CSR arrays; each is the textbook
# sequential algorithm, compiled.  Distances are float64 sums of positive
# integer weights, hence exact, hence bit-identical to the numpy plane.

if HAS_NUMBA:

    @_njit(cache=True)
    def _njit_dijkstra_many(indptr, indices, weights, sources, out):  # pragma: no cover
        """Array-heap Dijkstra from each source into ``out`` (one row each)."""
        n = out.shape[1]
        heap_d = np.empty(n + indices.shape[0] + 1, dtype=np.float64)
        heap_v = np.empty(n + indices.shape[0] + 1, dtype=np.int64)
        for row in range(sources.shape[0]):
            dist = out[row]
            for i in range(n):
                dist[i] = np.inf
            source = sources[row]
            dist[source] = 0.0
            heap_d[0] = 0.0
            heap_v[0] = source
            size = 1
            while size > 0:
                d = heap_d[0]
                u = heap_v[0]
                size -= 1
                # Pop: move the last leaf to the root and sift it down.
                last_d = heap_d[size]
                last_v = heap_v[size]
                pos = 0
                while True:
                    child = 2 * pos + 1
                    if child >= size:
                        break
                    if child + 1 < size and heap_d[child + 1] < heap_d[child]:
                        child += 1
                    if heap_d[child] < last_d:
                        heap_d[pos] = heap_d[child]
                        heap_v[pos] = heap_v[child]
                        pos = child
                    else:
                        break
                heap_d[pos] = last_d
                heap_v[pos] = last_v
                if d > dist[u]:
                    continue
                for e in range(indptr[u], indptr[u + 1]):
                    v = indices[e]
                    nd = d + weights[e]
                    if nd < dist[v]:
                        dist[v] = nd
                        # Push: append and sift up.
                        pos = size
                        size += 1
                        while pos > 0:
                            parent = (pos - 1) // 2
                            if heap_d[parent] > nd:
                                heap_d[pos] = heap_d[parent]
                                heap_v[pos] = heap_v[parent]
                                pos = parent
                            else:
                                break
                        heap_d[pos] = nd
                        heap_v[pos] = v

    @_njit(cache=True)
    def _njit_bfs_levels(indptr, indices, sources, max_hops, out):  # pragma: no cover
        """Frontier BFS levels from each source into ``out`` (-1 = unreached)."""
        n = out.shape[1]
        frontier = np.empty(n, dtype=np.int64)
        next_frontier = np.empty(n, dtype=np.int64)
        for row in range(sources.shape[0]):
            levels = out[row]
            for i in range(n):
                levels[i] = -1
            source = sources[row]
            levels[source] = 0
            frontier[0] = source
            frontier_size = 1
            hops = 0
            while frontier_size > 0 and hops < max_hops:
                hops += 1
                next_size = 0
                for f in range(frontier_size):
                    u = frontier[f]
                    for e in range(indptr[u], indptr[u + 1]):
                        v = indices[e]
                        if levels[v] < 0:
                            levels[v] = hops
                            next_frontier[next_size] = v
                            next_size += 1
                frontier, next_frontier = next_frontier, frontier
                frontier_size = next_size

    @_njit(cache=True)
    def _njit_hop_limited(indptr, indices, weights, sources, hop_limit, out):  # pragma: no cover
        """Synchronous hop-limited Bellman-Ford (the literal ``d_h``) per source.

        Rounds are strictly separated: each frontier node relaxes with the
        value it had at the *start* of the round (carried in ``frontier_val``),
        so after ``k`` rounds ``out[row, v]`` is the minimum weight of any
        walk with at most ``k`` edges -- never fewer hops than charged.
        """
        n = out.shape[1]
        frontier = np.empty(n, dtype=np.int64)
        frontier_val = np.empty(n, dtype=np.float64)
        improved = np.empty(n, dtype=np.int64)
        in_next = np.zeros(n, dtype=np.uint8)
        for row in range(sources.shape[0]):
            dist = out[row]
            for i in range(n):
                dist[i] = np.inf
            source = sources[row]
            dist[source] = 0.0
            frontier[0] = source
            frontier_val[0] = 0.0
            frontier_size = 1
            rounds = 0
            while frontier_size > 0 and rounds < hop_limit:
                rounds += 1
                improved_size = 0
                for f in range(frontier_size):
                    u = frontier[f]
                    du = frontier_val[f]
                    for e in range(indptr[u], indptr[u + 1]):
                        v = indices[e]
                        nd = du + weights[e]
                        if nd < dist[v]:
                            dist[v] = nd
                            if in_next[v] == 0:
                                in_next[v] = 1
                                improved[improved_size] = v
                                improved_size += 1
                for f in range(improved_size):
                    v = improved[f]
                    in_next[v] = 0
                    frontier[f] = v
                    frontier_val[f] = dist[v]
                frontier_size = improved_size


def _as_source_array(sources: Sequence[int]) -> np.ndarray:
    return np.asarray(list(sources), dtype=np.int64)


# ------------------------------------------------------------------ public API
# Same signatures and return conventions as repro.graphs.csr; WeightedGraph
# dispatches here when the resolved backend is "csr-njit".


def bfs_level_matrix(
    csr: CSRAdjacency, sources: Sequence[int], max_hops: int | None = None
) -> np.ndarray:
    """Compiled :func:`repro.graphs.csr.bfs_level_matrix` (bit-identical)."""
    src = _as_source_array(sources)
    if src.size == 0:
        return np.empty((0, csr.n), dtype=np.int64)
    limit = csr.n if max_hops is None else max_hops
    if HAS_NUMBA:
        out = np.empty((src.shape[0], csr.n), dtype=np.int64)
        _njit_bfs_levels(csr.indptr, csr.indices, src, limit, out)
        return out
    if HAS_SCIPY:
        hops = _csgraph.dijkstra(_scipy_view(csr), indices=src, unweighted=True, limit=limit)
        # ``hops`` is ours: mark unreached cells in place, then cast once.
        np.copyto(hops, -1.0, where=np.isinf(hops))
        return hops.astype(np.int64)
    return _numpy_plane.bfs_level_matrix(csr, sources, max_hops)


def distance_matrix(csr: CSRAdjacency, sources: Sequence[int]) -> np.ndarray:
    """Compiled :func:`repro.graphs.csr.distance_matrix` (bit-identical)."""
    src = _as_source_array(sources)
    if src.size == 0:
        return np.empty((0, csr.n), dtype=np.float64)
    if csr.unit_weights:
        return _levels_as_distances(bfs_level_matrix(csr, sources, None))
    if HAS_NUMBA:
        out = np.empty((src.shape[0], csr.n), dtype=np.float64)
        _njit_dijkstra_many(csr.indptr, csr.indices, csr.weights, src, out)
        return out
    if HAS_SCIPY:
        return _csgraph.dijkstra(_scipy_view(csr), indices=src)
    return _numpy_plane.distance_matrix(csr, sources)


def hop_limited_matrix(csr: CSRAdjacency, sources: Sequence[int], hop_limit: int) -> np.ndarray:
    """Compiled :func:`repro.graphs.csr.hop_limited_matrix` (bit-identical).

    Weighted ``d_h`` is inherently round-synchronous and csgraph has no
    hop-limited search, so without numba it runs the numpy oracle's blocked,
    sort-free scatter-min rounds directly.
    """
    if csr.unit_weights:
        return _levels_as_distances(bfs_level_matrix(csr, sources, hop_limit))
    src = _as_source_array(sources)
    if src.size == 0:
        return np.empty((0, csr.n), dtype=np.float64)
    if HAS_NUMBA:
        out = np.empty((src.shape[0], csr.n), dtype=np.float64)
        _njit_hop_limited(csr.indptr, csr.indices, csr.weights, src, hop_limit, out)
        return out
    return _relax_rounds(csr, sources, hop_limit)
