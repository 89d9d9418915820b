"""Compressed-sparse-row (CSR) array backend and batched traversal kernels.

The simulation's hot loops are all of the shape *"run one traversal from every
node"*: the depth-``h`` exploration of Compute-Skeleton (Algorithm 6) runs a
hop-limited distance computation from all ``n`` sources, the diameter
algorithm measures a bounded eccentricity per node, and the reference oracles
run Dijkstra per source.  Doing these one Python-level traversal at a time is
what capped experiments at a few hundred nodes.

This module stores the graph once as frozen CSR numpy arrays and provides
*batched multi-source* kernels that advance **all** sources together, one
synchronous round per iteration, with numpy doing the per-round work:

* :func:`bfs_level_matrix` -- level-synchronous BFS from many sources,
* :func:`hop_limited_matrix` -- ``hop_limit`` rounds of synchronous
  Bellman-Ford, i.e. the paper's *literal* ``d_h`` (Section 1.3), and
* :func:`distance_matrix` -- Bellman-Ford iterated to fixpoint, giving exact
  weighted distances (identical to Dijkstra for positive integer weights).

All kernels are exact, deterministic, and bit-identical to the pure-Python
dict-backend implementations: edge weights are positive integers, every
distance is a left-to-right float sum along a single path, and the same
minima are taken, so no floating-point divergence between backends is
possible.  :class:`~repro.graphs.graph.WeightedGraph` freezes a
:class:`CSRAdjacency` on first batched traversal and invalidates it on
``add_edge`` / ``remove_edge``.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

import numpy as np

#: Default per-chunk memory budget in bytes.  Sources are processed ``chunk``
#: at a time so a batched call over all ``n`` sources never allocates more
#: than roughly this much scratch at once; ``REPRO_KERNEL_CHUNK_BYTES``
#: overrides it (larger budgets = fewer, bigger chunks).
_DEFAULT_CHUNK_BYTES = 128 * 1024 * 1024

#: A BFS level materialises a few chunk-sized scratch arrays (candidate keys
#: and their sorted copy) beside the chunk matrix itself; the budget is
#: divided by this factor so peak allocation stays near the budget rather than
#: several times over it.  The weighted relaxation's scratch scales with its
#: row block (:data:`_BLOCK_BYTES`), not with the chunk, so
#: :class:`~repro.graphs.graph.WeightedGraph` chunks only the unit-weight calls.
_SCRATCH_FACTOR = 4

#: Row-block size, in bytes of float64 distance matrix, of the weighted
#: relaxation kernel.  The block and its int64 frontier stamps stay near a
#: core's L2, where the scatter-min's random reads and writes are cheap;
#: smaller blocks pay the per-round interpreter overhead more often.
_BLOCK_BYTES = 2 * 1024 * 1024

#: The plane-dispatched kernel surface: every alternate graph plane
#: (:mod:`repro.graphs.compiled`) must provide each of these under the same
#: name with exactly these leading parameter names, or carry an explicit
#: ``name = None`` degradation entry.  Checked statically by RL003 of
#: :mod:`repro.analysis.lint`; renaming a kernel on either plane without
#: updating this registry fails the lint gate.
PLANE_KERNELS = {
    "bfs_level_matrix": ("csr", "sources", "max_hops"),
    "distance_matrix": ("csr", "sources"),
    "hop_limited_matrix": ("csr", "sources", "hop_limit"),
}


class CSRAdjacency:
    """Frozen CSR view of an undirected weighted graph.

    ``indices[indptr[u]:indptr[u+1]]`` are the neighbours of ``u`` (sorted by
    ID for determinism) and ``weights`` the matching edge weights.  Because
    the graph is undirected the same arrays serve as both the out- and
    in-adjacency, which is what the relaxation kernels rely on.
    """

    __slots__ = ("n", "indptr", "indices", "weights", "unit_weights", "sparse_view")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # Lazily built scipy.sparse.csr_matrix over these same arrays, cached
        # by the compiled plane (repro.graphs.compiled); the adjacency is
        # frozen, so the view can never go stale.
        self.sparse_view = None
        # With unit weights d_h degenerates to BFS levels, which the weighted
        # kernels exploit as a fast path.
        self.unit_weights = bool((weights == 1.0).all()) if weights.size else True

    @property
    def directed_edge_count(self) -> int:
        """Number of directed edges stored (``2m`` for an undirected graph)."""
        return int(self.indices.shape[0])


def build_csr(adjacency: Sequence[dict]) -> CSRAdjacency:
    """Freeze a dict-of-dicts adjacency into CSR arrays."""
    n = len(adjacency)
    degrees = np.fromiter((len(adj) for adj in adjacency), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    total = int(indptr[-1])
    indices = np.empty(total, dtype=np.int64)
    weights = np.empty(total, dtype=np.float64)
    position = 0
    for adj in adjacency:
        if not adj:
            continue
        neighbours = sorted(adj)
        stop = position + len(neighbours)
        indices[position:stop] = neighbours
        weights[position:stop] = [adj[v] for v in neighbours]
        position = stop
    return CSRAdjacency(n, indptr, indices, weights)


def refresh_weight(csr: CSRAdjacency, u: int, v: int, weight: float) -> CSRAdjacency:
    """A CSR view with one undirected edge's weight replaced in place.

    A weight-only mutation leaves ``indptr``/``indices`` (the frozen
    topology) valid, so the refreshed view *shares* them and only copies and
    patches the weight array -- ``O(m)`` array work instead of the
    Python-loop re-freeze of :func:`build_csr`.  The result is bit-identical
    to re-freezing the mutated adjacency: per-row neighbour order is
    unchanged, so the new weight lands in exactly the slot a rebuild would
    put it in (``unit_weights`` is re-derived from the patched array).
    """
    weights = csr.weights.copy()
    for a, b in ((u, v), (v, u)):
        start, stop = int(csr.indptr[a]), int(csr.indptr[a + 1])
        position = start + int(np.searchsorted(csr.indices[start:stop], b))
        if position >= stop or int(csr.indices[position]) != b:
            raise KeyError(f"edge {{{u}, {v}}} not present in the CSR view")
        weights[position] = float(weight)
    return CSRAdjacency(csr.n, csr.indptr, csr.indices, weights)


def _gather_edges(csr: CSRAdjacency, cols: np.ndarray):
    """Positions into ``csr.indices`` of all edges leaving ``cols``, plus counts.

    This is the standard vectorised multi-slice: for frontier nodes ``cols``
    the concatenation of their CSR rows is ``indices[flat]`` without any
    Python-level loop.
    """
    starts = csr.indptr.take(cols)
    counts = csr.indptr.take(cols + 1) - starts
    boundaries = np.cumsum(counts)
    total = int(boundaries[-1]) if boundaries.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(starts - (boundaries - counts), counts)
    return flat, counts


def _sorted_unique_keys(keys: np.ndarray, bound: int) -> np.ndarray:
    """Sorted unique values of ``keys`` (all in ``[0, bound)``), radix-fast.

    ``np.unique`` hashes/sorts int64 keys an order of magnitude slower than a
    radix sort; when the key space fits int32 we downcast, ``np.sort`` (radix
    for 32-bit ints), and drop adjacent duplicates.
    """
    if bound <= np.iinfo(np.int32).max:
        ordered = np.sort(keys.astype(np.int32)).astype(np.int64)
    else:
        ordered = np.sort(keys)
    if ordered.size <= 1:
        return ordered
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def bfs_level_matrix(
    csr: CSRAdjacency, sources: Sequence[int], max_hops: int | None = None
) -> np.ndarray:
    """Hop distances from every source at once (``-1`` marks unreached nodes).

    Level-synchronous BFS over all sources simultaneously: each iteration
    expands every source's frontier in one numpy gather, dedupes the
    ``(source, node)`` pairs, and stamps the new level.  Returns an
    ``(S, n)`` int64 matrix.
    """
    n = csr.n
    src = np.asarray(list(sources), dtype=np.int64)
    count = src.shape[0]
    levels = np.full((count, n), -1, dtype=np.int64)
    source_rows = np.arange(count, dtype=np.int64)
    levels[source_rows, src] = 0
    frontier_rows, frontier_cols = source_rows, src.copy()
    hops = 0
    limit = n if max_hops is None else max_hops
    while frontier_cols.size and hops < limit:
        hops += 1
        flat, counts = _gather_edges(csr, frontier_cols)
        if flat.size == 0:
            break
        rows = np.repeat(frontier_rows, counts)
        cols = csr.indices[flat]
        fresh = levels[rows, cols] < 0
        rows, cols = rows[fresh], cols[fresh]
        if rows.size == 0:
            break
        keys = _sorted_unique_keys(rows * n + cols, count * n)
        rows = keys // n
        cols = keys - rows * n
        levels[rows, cols] = hops
        frontier_rows, frontier_cols = rows, cols
    return levels


def _relax_rounds(
    csr: CSRAdjacency, sources: Sequence[int], max_rounds: int | None
) -> np.ndarray:
    """Shared core of the weighted kernels: synchronous Bellman-Ford rounds.

    After ``k`` iterations ``dist[s, v]`` is the minimum weight of any walk
    from ``s`` to ``v`` using at most ``k`` edges -- exactly ``d_k`` from
    Section 1.3.  With ``max_rounds=None`` iteration continues to the fixpoint,
    which for positive weights is the exact distance ``d``.  Only nodes whose
    value improved in the previous round are relaxed again (their earlier
    relaxations already reached every neighbour), which keeps each round's
    work proportional to the active frontier.

    Sources are relaxed in row blocks of about :data:`_BLOCK_BYTES`, each
    written in place into the one preallocated ``(len(sources), n)`` result,
    so the scatter-min's random reads and writes stay in cache and no
    per-block matrix is ever concatenated.
    """
    n = csr.n
    src = np.asarray(list(sources), dtype=np.int64)
    count = src.shape[0]
    dist = np.full((count, n), np.inf)
    rows = max(1, _BLOCK_BYTES // (8 * max(1, n)))
    # Stamps are candidate positions within a round, up to (block rows) x
    # (directed edges); int64 always holds them (int32 measured no faster).
    stamp = np.empty(min(rows, count) * n, dtype=np.int64)
    for start in range(0, count, rows):
        # A row slice of a C-contiguous matrix: reshape(-1) is a view.
        block = dist[start : start + rows].reshape(-1)
        _relax_block(csr, block, src[start : start + rows], max_rounds, stamp)
    return dist


def _relax_block(
    csr: CSRAdjacency,
    dist: np.ndarray,
    sources: np.ndarray,
    max_rounds: int | None,
    stamp: np.ndarray,
) -> None:
    """Run the synchronous rounds of :func:`_relax_rounds` on one row block.

    ``dist`` is the block's flat ``len(sources) * n`` view (cell ``r * n + v``
    is ``d(sources[r], v)``), updated in place; ``stamp`` is scratch of at
    least that length.  The frontier is kept as flat cell keys plus their
    columns.
    """
    n = csr.n
    cols = sources.copy()
    keys = np.arange(sources.shape[0], dtype=np.int64) * n + cols
    dist[keys] = 0.0
    rounds = 0
    while keys.size and (max_rounds is None or rounds < max_rounds):
        rounds += 1
        # Frontier values as they stand at the start of the round: the
        # relaxations below never see a value written in this round.
        values = dist.take(keys)
        flat, counts = _gather_edges(csr, cols)
        if flat.size == 0:
            break
        targets = np.repeat(keys - cols, counts)
        targets += csr.indices.take(flat)
        candidates = np.repeat(values, counts)
        candidates += csr.weights.take(flat)
        # Keep the candidates that beat their target's start-of-round value;
        # the cells they name are exactly the cells this round improves.
        better = np.flatnonzero(candidates < dist.take(targets))
        if better.size == 0:
            break
        targets = targets.take(better)
        # Unbuffered scatter-min: duplicate targets all reduce, and min is
        # exact, so the order of the writes cannot matter.
        np.minimum.at(dist, targets, candidates.take(better))
        # Dedupe the next frontier: scatter each candidate's position into
        # its target's stamp; whichever write lands last, exactly one
        # position per target reads its own stamp back.
        position = np.arange(targets.shape[0], dtype=np.int64)
        stamp[targets] = position
        keys = targets.take(np.flatnonzero(stamp.take(targets) == position))
        cols = keys % n


def _levels_as_distances(levels: np.ndarray) -> np.ndarray:
    """BFS levels to float distances (``-1`` becomes ``inf``)."""
    dist = levels.astype(np.float64)
    np.copyto(dist, np.inf, where=levels < 0)
    return dist


def hop_limited_matrix(csr: CSRAdjacency, sources: Sequence[int], hop_limit: int) -> np.ndarray:
    """``dist[s, v] = d_{hop_limit}(source_s, v)`` (``inf`` outside the ball).

    Unit weights take the BFS fast path; weighted graphs run
    ``hop_limit`` synchronous rounds of :func:`_relax_rounds`, the
    sort-free, row-blocked scatter-min (DESIGN.md §4).
    """
    if csr.unit_weights:
        return _levels_as_distances(bfs_level_matrix(csr, sources, hop_limit))
    return _relax_rounds(csr, sources, hop_limit)


def distance_matrix(csr: CSRAdjacency, sources: Sequence[int]) -> np.ndarray:
    """Exact weighted distances from every source (``inf`` when disconnected)."""
    if csr.unit_weights:
        return _levels_as_distances(bfs_level_matrix(csr, sources, None))
    return _relax_rounds(csr, sources, None)


def chunk_byte_budget() -> int:
    """The per-chunk scratch budget in bytes (env-overridable).

    ``REPRO_KERNEL_CHUNK_BYTES`` overrides the default; non-numeric or
    non-positive values fall back to the default rather than erroring, so a
    stray environment variable can never break a run.
    """
    raw = os.environ.get("REPRO_KERNEL_CHUNK_BYTES")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value > 0:
            return value
    return _DEFAULT_CHUNK_BYTES


def chunked_sources(
    n: int, sources: Sequence[int], byte_budget: int | None = None
) -> list[Sequence[int]]:
    """Split a source list so each chunk's scratch stays within a byte budget.

    The chunk size is derived from the budget rather than a fixed cell count:
    ``chunk x n`` float64 cells times the scratch factor must fit in
    ``byte_budget`` (default :func:`chunk_byte_budget`), so an n = 4096+
    BFS-level call peaks near the budget instead of materialising a
    multi-GB dense intermediate.  Chunking never changes results -- chunk
    matrices are concatenated -- only the peak allocation.
    """
    sources = list(sources)
    budget = chunk_byte_budget() if byte_budget is None else byte_budget
    cells = max(1, budget // (8 * _SCRATCH_FACTOR))
    chunk = max(1, cells // max(1, n))
    if len(sources) <= chunk:
        return [sources]
    return [sources[i : i + chunk] for i in range(0, len(sources), chunk)]


def rows_to_dicts(matrix: np.ndarray, cast) -> list[dict]:
    """Convert kernel output rows to the dict-of-reached format of the dict backend."""
    result: list[dict] = []
    for row in matrix:
        if row.dtype == np.int64:
            reached = np.flatnonzero(row >= 0)
        else:
            reached = np.flatnonzero(np.isfinite(row))
        values = row[reached]
        result.append(dict(zip(reached.tolist(), map(cast, values.tolist()), strict=True)))
    return result
