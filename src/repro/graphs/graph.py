"""Weighted graph kernel used by every layer of the library.

The paper's local communication graph ``G = (V, E)`` is an undirected graph
with integer edge weights ``w : E -> [W]`` where ``W`` is at most polynomial in
``n`` (Section 1.3).  :class:`WeightedGraph` is a small, dependency-free
adjacency structure with exactly the operations the HYBRID algorithms need:

* neighbourhood queries (the LOCAL mode),
* hop-limited breadth-first search (``hop(u, v)`` and ``h``-hop balls),
* hop-limited weighted distances ``d_h(u, v)`` (Section 1.3), and
* conversions to/from :mod:`networkx` for cross-checking in tests.

Nodes are always the integers ``0 .. n-1``; the paper identifies nodes with IDs
``[n]`` and several protocols (hashing to intermediate nodes, implicit
aggregation trees) rely on the ID space being exactly ``[0, n)``.

Three storage/traversal backends are available (see DESIGN.md §4 and §9):

* ``"dict"`` -- the original dependency-free dict-of-dicts adjacency with
  pure-Python traversals;
* ``"csr"`` -- the same mutable adjacency plus a frozen numpy CSR view
  (:mod:`repro.graphs.csr`) built lazily on the first *batched* traversal and
  invalidated by ``add_edge`` / ``remove_edge``.  The batched multi-source
  kernels (``bfs_hops_many``, ``hop_limited_distances_many``,
  ``dijkstra_many``, the matrix variants, ``hop_eccentricities``) run as
  vectorised synchronous rounds over all sources at once; and
* ``"csr-njit"`` -- the same CSR view with the batched kernels executed on
  the compiled plane (:mod:`repro.graphs.compiled`): numba ``@njit`` ports
  when numba is importable, ``scipy.sparse.csgraph`` formulations when scipy
  is, per-kernel fallback to the numpy kernels otherwise.

The default ``"auto"`` prefers the compiled plane when an accelerator is
importable, then CSR whenever numpy is.  All backends return bit-identical
results for every method (weights are positive integers, so all float
distances are exact sums), which tests/test_backends.py and
tests/test_compiled_plane.py assert property-style.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

try:  # numpy is a hard dependency of the repo, but the dict backend works without it.
    import numpy as _np

    _HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised only in stripped environments
    _np = None
    _HAS_NUMPY = False

INFINITY = float("inf")

_BACKENDS = ("auto", "dict", "csr", "csr-njit")

#: How many mutations the delta log retains.  ``deltas_since`` answers None
#: once a gap falls off the log, so consumers (delta repair, DESIGN.md §12)
#: degrade to a cold rebuild rather than replaying an incomplete history.
DELTA_LOG_LIMIT = 1024


@dataclass(frozen=True)
class GraphDelta:
    """One recorded mutation of a :class:`WeightedGraph` (DESIGN.md §12).

    Every mutation that bumps :attr:`WeightedGraph.version` appends exactly
    one delta, so the log is a contiguous, replayable history of the version
    counter: ``version`` is the counter value *after* the mutation applied.
    No-op mutations (re-adding an edge at its current weight) record nothing
    because they bump nothing.

    Attributes
    ----------
    kind:
        ``"add"`` (new edge), ``"remove"`` (edge deleted) or ``"update"``
        (weight change on an existing edge; the hop topology is unchanged).
    u, v:
        The edge endpoints, in the order the caller named them.
    weight:
        The weight after the mutation (None for ``"remove"``).
    old_weight:
        The weight before the mutation (None for ``"add"``).
    version:
        :attr:`WeightedGraph.version` after this mutation.
    """

    kind: str
    u: int
    v: int
    weight: int | None
    old_weight: int | None
    version: int

    @property
    def topological(self) -> bool:
        """Whether the mutation changed the edge set (vs only a weight)."""
        return self.kind != "update"


class WeightedGraph:
    """An undirected graph with positive integer edge weights.

    Parameters
    ----------
    n:
        Number of nodes; nodes are ``0 .. n-1``.
    backend:
        ``"dict"``, ``"csr"`` or ``"auto"`` (default); see the module
        docstring.  ``"csr"`` requires numpy.  Backend selection, the frozen
        CSR view and the batched kernels are specified in DESIGN.md §4; all
        backends are bit-identical in results (only wall-clock differs).
    """

    def __init__(self, n: int, backend: str = "auto") -> None:
        if n <= 0:
            raise ValueError("a graph needs at least one node")
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
        if backend in ("csr", "csr-njit") and not _HAS_NUMPY:
            raise ValueError(f"the {backend!r} backend requires numpy")
        self._n = n
        self._adjacency: list[dict[int, int]] = [dict() for _ in range(n)]
        self._edge_count = 0
        self._backend_choice = backend
        self._csr = None
        self._hop_diameter: float | None = None
        self._version = 0
        self._deltas: deque[GraphDelta] = deque(maxlen=DELTA_LOG_LIMIT)

    # ------------------------------------------------------------------ basic
    @property
    def backend(self) -> str:
        """The resolved traversal backend (``"dict"``, ``"csr"`` or ``"csr-njit"``).

        ``"auto"`` prefers the compiled plane whenever one of its accelerators
        (numba or scipy) is importable, then CSR whenever numpy is.  An
        explicit ``"csr-njit"`` resolves to itself even with no accelerator
        present: the compiled plane then degrades per kernel to the numpy
        implementations, so the choice is always safe.
        """
        if self._backend_choice == "auto":
            if not _HAS_NUMPY:
                return "dict"
            from repro.graphs import compiled

            return "csr-njit" if compiled.available() else "csr"
        return self._backend_choice

    @property
    def version(self) -> int:
        """Mutation counter: incremented by every effective mutation.

        ``add_edge`` (on a new edge or with a changed weight), ``remove_edge``
        and ``update_weight`` each bump it exactly once and append one
        :class:`GraphDelta` to the log; a no-op mutation (re-adding an edge at
        its current weight) bumps nothing.  Derived caches outside the graph
        (the network's hop-diameter cache, a session's preprocessing cache)
        compare the version they were built at against the current one -- the
        same freeze/invalidate discipline the internal CSR view uses.
        """
        return self._version

    def deltas_since(self, version: int) -> list[GraphDelta] | None:
        """The mutations applied after ``version``, oldest first.

        Returns ``[]`` when ``version`` is current, and None when the history
        back to ``version`` is not fully available (the log evicted it, or
        ``version`` is from a different graph's counter) -- the caller must
        then treat the graph as arbitrarily changed (DESIGN.md §12).
        """
        if version == self._version:
            return []
        if version > self._version or self._version - version > len(self._deltas):
            return None
        return [delta for delta in self._deltas if delta.version > version]

    def csr(self):
        """The frozen CSR view (built on first use, dropped on mutation)."""
        from repro.graphs import csr as csr_backend

        if self._csr is None:
            self._csr = csr_backend.build_csr(self._adjacency)
        return self._csr

    @property
    def node_count(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self._edge_count

    def nodes(self) -> range:
        """Iterable over all node IDs."""
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return v in self._adjacency[u]

    def add_edge(self, u: int, v: int, weight: int = 1) -> None:
        """Insert the undirected edge ``{u, v}``, or update its weight.

        Weights must be positive integers; the paper assumes ``w : E -> [W]``
        with ``W`` polynomial in ``n`` so that a weight fits in one message.

        Duplicate-edge semantics (pinned, DESIGN.md §12): adding an edge that
        already exists is exactly :meth:`update_weight` -- the weight is
        *replaced*, never accumulated, and re-adding at the current weight is
        a no-op that bumps neither :attr:`version` nor the delta log and
        leaves every frozen cache intact.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError("self loops are not allowed")
        if weight <= 0:
            raise ValueError("edge weights must be positive")
        if v in self._adjacency[u]:
            self.update_weight(u, v, weight)
            return
        self._edge_count += 1
        self._adjacency[u][v] = weight
        self._adjacency[v][u] = weight
        self._csr = None
        self._hop_diameter = None
        self._version += 1
        self._deltas.append(GraphDelta("add", u, v, weight, None, self._version))

    def update_weight(self, u: int, v: int, weight: int) -> None:
        """Set the weight of the existing undirected edge ``{u, v}``.

        A weight-only mutation leaves the hop topology untouched, so the
        hop-diameter cache survives and a frozen CSR view is refreshed in
        place (:func:`repro.graphs.csr.refresh_weight` patches the weight
        array and shares the topology arrays) instead of being dropped and
        rebuilt.  Setting the current weight again is a no-op: no version
        bump, no delta, no cache work (DESIGN.md §12).
        """
        self._check_node(u)
        self._check_node(v)
        current = self._adjacency[u].get(v)
        if current is None:
            raise KeyError(f"edge {{{u}, {v}}} does not exist")
        if weight <= 0:
            raise ValueError("edge weights must be positive")
        if weight == current:
            return
        self._adjacency[u][v] = weight
        self._adjacency[v][u] = weight
        if self._csr is not None:
            from repro.graphs import csr as csr_backend

            self._csr = csr_backend.refresh_weight(self._csr, u, v, weight)
        self._version += 1
        self._deltas.append(GraphDelta("update", u, v, weight, current, self._version))

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}`` (must exist)."""
        if v not in self._adjacency[u]:
            raise KeyError(f"edge {{{u}, {v}}} does not exist")
        old_weight = self._adjacency[u][v]
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._edge_count -= 1
        self._csr = None
        self._hop_diameter = None
        self._version += 1
        self._deltas.append(GraphDelta("remove", u, v, None, old_weight, self._version))

    def weight(self, u: int, v: int) -> int:
        """Weight of the edge ``{u, v}`` (must exist)."""
        return self._adjacency[u][v]

    def neighbors(self, u: int) -> Iterator[int]:
        """Iterate over the neighbours of ``u``."""
        return iter(self._adjacency[u])

    def neighbor_items(self, u: int) -> Iterator[tuple[int, int]]:
        """Iterate over ``(neighbour, weight)`` pairs of ``u``."""
        return iter(self._adjacency[u].items())

    def degree(self, u: int) -> int:
        """Number of neighbours of ``u``."""
        return len(self._adjacency[u])

    def max_degree(self) -> int:
        """Maximum degree over all nodes."""
        return max(len(adj) for adj in self._adjacency)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate over undirected edges as ``(u, v, weight)`` with ``u < v``."""
        for u in range(self._n):
            for v, w in self._adjacency[u].items():
                if u < v:
                    yield (u, v, w)

    def max_weight(self) -> int:
        """Largest edge weight ``W`` (1 for an edgeless graph)."""
        best = 1
        for _, _, w in self.edges():
            if w > best:
                best = w
        return best

    def is_unweighted(self) -> bool:
        """Whether every edge has weight 1 (the paper's ``W = 1`` case)."""
        return all(w == 1 for _, _, w in self.edges())

    def total_weight(self) -> int:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self._n:
            raise ValueError(f"node {u} outside [0, {self._n})")

    # ----------------------------------------------------------- traversal
    def bfs_hops(self, source: int, max_hops: int | None = None) -> dict[int, int]:
        """Hop distances from ``source`` to every node within ``max_hops`` hops.

        This is ``hop(source, ·)`` from Section 1.3 restricted to the ball of
        radius ``max_hops`` (or the whole component when ``max_hops`` is None).
        """
        self._check_node(source)
        distances = {source: 0}
        frontier = [source]
        hops = 0
        while frontier and (max_hops is None or hops < max_hops):
            hops += 1
            next_frontier: list[int] = []
            for u in frontier:
                for v in self._adjacency[u]:
                    if v not in distances:
                        distances[v] = hops
                        next_frontier.append(v)
            frontier = next_frontier
        return distances

    def ball(self, source: int, radius: int) -> list[int]:
        """The nodes within ``radius`` hops of ``source`` (including itself)."""
        return list(self.bfs_hops(source, radius))

    # ------------------------------------------------- batched traversal kernels
    #
    # The *_many methods advance every source together, one synchronous round
    # per iteration; under the CSR backend each round is a handful of numpy
    # gathers/reductions (see repro.graphs.csr), under the csr-njit backend
    # the matrix kernels run on the compiled plane (repro.graphs.compiled),
    # and under the dict backend they fall back to one pure-Python traversal
    # per source.  Results are bit-identical across all three.

    def _use_csr(self) -> bool:
        return self.backend != "dict"

    def _kernel_plane(self):
        """The module implementing the three matrix kernels for this backend."""
        if self.backend == "csr-njit":
            from repro.graphs import compiled

            return compiled
        from repro.graphs import csr as csr_backend

        return csr_backend

    def bfs_hops_many(
        self, sources: Sequence[int], max_hops: int | None = None
    ) -> list[dict[int, int]]:
        """``bfs_hops`` from many sources at once (one dict per source)."""
        sources = list(sources)
        for source in sources:
            self._check_node(source)
        if not self._use_csr():
            return [self.bfs_hops(source, max_hops) for source in sources]
        from repro.graphs import csr as csr_backend

        kernels = self._kernel_plane()
        view = self.csr()
        result: list[dict[int, int]] = []
        for chunk in csr_backend.chunked_sources(self._n, sources):
            levels = kernels.bfs_level_matrix(view, chunk, max_hops)
            result.extend(csr_backend.rows_to_dicts(levels, int))
        return result

    def balls_many(self, sources: Sequence[int], radius: int) -> list[list[int]]:
        """The ``radius``-hop balls of many sources at once."""
        return [list(hops) for hops in self.bfs_hops_many(sources, radius)]

    def hop_limited_distances_many(
        self, sources: Sequence[int], hop_limit: int
    ) -> list[dict[int, float]]:
        """The literal ``d_{hop_limit}`` maps of many sources (Section 1.3)."""
        sources = list(sources)
        if not self._use_csr():
            return [self.hop_limited_distances(source, hop_limit) for source in sources]
        matrix = self.hop_limited_distance_matrix(sources, hop_limit)
        from repro.graphs import csr as csr_backend

        return csr_backend.rows_to_dicts(matrix, float)

    def _source_matrix(self, kernel: str, sources: list[int], *args):
        """Run the matrix-valued CSR ``kernel`` over ``sources``.

        Unit weights take the BFS leg, whose scratch grows with the number of
        sources, so their sources are chunked by the byte budget and the
        chunk matrices concatenated.  The weighted kernels keep their scratch
        per row block or per source and fill one preallocated result, so they
        get every source in one call: chunking them would only add a full
        copy of the result.
        """
        from repro.graphs import csr as csr_backend

        run = getattr(self._kernel_plane(), kernel)
        view = self.csr()
        if not view.unit_weights:
            return run(view, sources, *args)
        chunks = [
            run(view, chunk, *args) for chunk in csr_backend.chunked_sources(self._n, sources)
        ]
        return chunks[0] if len(chunks) == 1 else _np.concatenate(chunks, axis=0)

    def hop_limited_distance_matrix(self, sources: Sequence[int], hop_limit: int):
        """``d_{hop_limit}`` as a dense ``(len(sources), n)`` float matrix.

        Requires numpy (the dict backend densifies its per-source dicts).
        ``inf`` marks nodes outside the ``hop_limit``-ball.
        """
        if not _HAS_NUMPY:
            raise RuntimeError("hop_limited_distance_matrix requires numpy")
        sources = list(sources)
        for source in sources:
            self._check_node(source)
        if hop_limit < 0:
            raise ValueError("hop_limit must be non-negative")
        if self._use_csr():
            return self._source_matrix("hop_limited_matrix", sources, hop_limit)
        matrix = _np.full((len(sources), self._n), _np.inf)
        for row, source in enumerate(sources):
            for node, value in self.hop_limited_distances(source, hop_limit).items():
                matrix[row, node] = value
        return matrix

    def dijkstra_many(self, sources: Sequence[int]) -> list[dict[int, float]]:
        """Exact distances from many sources at once (one dict per source)."""
        sources = list(sources)
        if not self._use_csr():
            return [self.dijkstra(source) for source in sources]
        matrix = self.distance_matrix(sources)
        from repro.graphs import csr as csr_backend

        return csr_backend.rows_to_dicts(matrix, float)

    def distance_matrix(self, sources: Sequence[int] | None = None):
        """Exact distances as a dense ``(len(sources), n)`` float matrix.

        ``sources`` defaults to all nodes (the full APSP matrix).  Requires
        numpy; ``inf`` marks disconnected pairs.
        """
        if not _HAS_NUMPY:
            raise RuntimeError("distance_matrix requires numpy")
        sources = list(self.nodes()) if sources is None else list(sources)
        for source in sources:
            self._check_node(source)
        if self._use_csr():
            return self._source_matrix("distance_matrix", sources)
        matrix = _np.full((len(sources), self._n), _np.inf)
        for row, source in enumerate(sources):
            for node, value in self.dijkstra(source).items():
                matrix[row, node] = value
        return matrix

    def hop_eccentricities(
        self, sources: Sequence[int] | None = None, max_hops: int | None = None
    ) -> list[float]:
        """Hop eccentricities of many sources at once.

        Without ``max_hops`` this is :meth:`hop_eccentricity` per source
        (``inf`` when the graph is disconnected).  With ``max_hops`` it is the
        largest hop distance *observed inside the ball*, i.e. the per-node
        quantity ``h_v`` of Algorithm 9's local phase -- always finite.
        """
        sources = list(self.nodes()) if sources is None else list(sources)
        if not self._use_csr():
            result = []
            for source in sources:
                if max_hops is None:
                    result.append(self.hop_eccentricity(source))
                else:
                    result.append(float(max(self.bfs_hops(source, max_hops).values())))
            return result
        from repro.graphs import csr as csr_backend

        kernels = self._kernel_plane()
        view = self.csr()
        result: list[float] = []
        for chunk in csr_backend.chunked_sources(self._n, sources):
            levels = kernels.bfs_level_matrix(view, chunk, max_hops)
            if max_hops is None:
                reached_all = (levels >= 0).all(axis=1)
                maxima = levels.max(axis=1)
                result.extend(
                    float(m) if ok else INFINITY
                    for m, ok in zip(maxima.tolist(), reached_all.tolist(), strict=True)
                )
            else:
                result.extend(float(m) for m in levels.max(axis=1).tolist())
        return result

    def hop_distance(self, u: int, v: int) -> float:
        """``hop(u, v)``: the minimum number of edges on a u-v path."""
        if u == v:
            return 0
        distances = self.bfs_hops(u)
        return distances.get(v, INFINITY)

    def hop_eccentricity(self, u: int) -> float:
        """Largest hop distance from ``u`` to any node (infinite if disconnected)."""
        distances = self.bfs_hops(u)
        if len(distances) != self._n:
            return INFINITY
        return max(distances.values())

    def hop_diameter(self) -> float:
        """``D(G)``: the maximum hop distance over all pairs (Section 1.3).

        Cached like the CSR view (every simulated network on this graph asks
        for it) and dropped on mutation.
        """
        if self._hop_diameter is not None:
            return self._hop_diameter
        if self._use_csr():
            best = 0.0
            for ecc in self.hop_eccentricities():
                if ecc == INFINITY:
                    best = INFINITY
                    break
                best = max(best, ecc)
        else:
            best = 0.0
            for u in range(self._n):
                ecc = self.hop_eccentricity(u)
                if ecc == INFINITY:
                    best = INFINITY
                    break
                best = max(best, ecc)
        self._hop_diameter = best
        return best

    def is_connected(self) -> bool:
        """Whether the graph is connected (the paper assumes ``G`` connected)."""
        return len(self.bfs_hops(0)) == self._n

    def connected_components(self) -> list[list[int]]:
        """List of connected components (each a sorted list of nodes)."""
        seen = [False] * self._n
        components: list[list[int]] = []
        for start in range(self._n):
            if seen[start]:
                continue
            component = []
            stack = [start]
            seen[start] = True
            while stack:
                u = stack.pop()
                component.append(u)
                for v in self._adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            components.append(sorted(component))
        return components

    # ----------------------------------------------------------- distances
    def dijkstra(self, source: int, targets: Sequence[int] | None = None) -> dict[int, float]:
        """Exact weighted distances ``d(source, ·)`` via Dijkstra.

        If ``targets`` is given, the search may stop early once all targets are
        settled; the returned dict still contains every settled node.
        """
        self._check_node(source)
        remaining = set(targets) if targets is not None else None
        dist: dict[int, float] = {source: 0.0}
        settled: dict[int, float] = {}
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled[u] = d
            if remaining is not None:
                remaining.discard(u)
                if not remaining:
                    break
            for v, w in self._adjacency[u].items():
                nd = d + w
                if nd < dist.get(v, INFINITY):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return settled

    def dijkstra_with_parents(self, source: int) -> tuple[dict[int, float], dict[int, int]]:
        """Exact distances plus a shortest-path-tree parent pointer per node."""
        self._check_node(source)
        dist: dict[int, float] = {source: 0.0}
        parent: dict[int, int] = {}
        settled: dict[int, float] = {}
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled[u] = d
            for v, w in self._adjacency[u].items():
                nd = d + w
                if nd < dist.get(v, INFINITY):
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
        return settled, parent

    def hop_limited_distances(self, source: int, hop_limit: int) -> dict[int, float]:
        """``d_h(source, ·)``: cheapest walk weight using at most ``hop_limit`` edges.

        Implemented as ``hop_limit`` rounds of synchronous Bellman-Ford where
        only nodes whose value improved in the previous round relax their
        edges -- the relaxation never leaves the ``hop_limit``-ball, so no
        post-hoc filtering (and no per-round copy of the whole reached set) is
        needed.  Nodes not reachable within the hop limit are absent from the
        result (``d_h = ∞``).
        """
        self._check_node(source)
        if hop_limit < 0:
            raise ValueError("hop_limit must be non-negative")
        distances: dict[int, float] = {source: 0.0}
        frontier: dict[int, float] = {source: 0.0}
        for _ in range(hop_limit):
            if not frontier:
                break
            improvements: dict[int, float] = {}
            for u, du in frontier.items():
                for v, w in self._adjacency[u].items():
                    nd = du + w
                    if nd < distances.get(v, INFINITY) and nd < improvements.get(v, INFINITY):
                        improvements[v] = nd
            frontier = {}
            for v, nd in improvements.items():
                if nd < distances.get(v, INFINITY):
                    distances[v] = nd
                    frontier[v] = nd
        return distances

    def shortest_distances_within_hops(self, source: int, hop_limit: int) -> dict[int, float]:
        """Exact distances to nodes whose shortest path uses at most ``hop_limit`` edges.

        Runs a lexicographic Dijkstra minimising ``(weight, hops)``.  Relation
        to ``d_h`` (Section 1.3): every node whose (minimum-hop) shortest path
        fits in the hop budget is returned with its *exact* distance, which for
        those nodes equals ``d_h(source, ·)`` -- this covers every case the
        HYBRID algorithms rely on (consecutive skeleton nodes, connectors,
        "close" pairs).  A node may also be returned with the weight of some
        other ``≤ hop_limit``-hop path (an upper bound ``≥ d``), and nodes only
        reachable within the hop budget via paths this search pruned are
        omitted; in both situations the value ``d_h`` would itself be a strict
        over-estimate of the distance and the algorithms only ever use it as
        one candidate inside a minimum, so the difference never changes their
        output (see DESIGN.md, fidelity policy).  This is the simulation-side
        fast path; :meth:`hop_limited_distances` computes the literal ``d_h``.
        """
        self._check_node(source)
        if hop_limit < 0:
            raise ValueError("hop_limit must be non-negative")
        dist: dict[int, tuple[float, int]] = {source: (0.0, 0)}
        settled: dict[int, float] = {}
        heap: list[tuple[float, int, int]] = [(0.0, 0, source)]
        while heap:
            d, hops, u = heapq.heappop(heap)
            if u in settled:
                continue
            if hops <= hop_limit:
                settled[u] = d
            # Even when u exceeds the hop budget we keep relaxing: a later node
            # might still be reachable within budget through a different path
            # already in the heap, but never through u, so skip its edges.
            if hops >= hop_limit:
                continue
            for v, w in self._adjacency[u].items():
                nd = d + w
                nh = hops + 1
                best = dist.get(v)
                if best is None or (nd, nh) < best:
                    dist[v] = (nd, nh)
                    heapq.heappush(heap, (nd, nh, v))
        return settled

    def shortest_path_hops(self, source: int, target: int) -> list[int] | None:
        """One shortest u-v path in *hops* (None if disconnected)."""
        if source == target:
            return [source]
        parents: dict[int, int] = {source: source}
        frontier = [source]
        while frontier:
            next_frontier: list[int] = []
            for u in frontier:
                for v in self._adjacency[u]:
                    if v not in parents:
                        parents[v] = u
                        if v == target:
                            path = [v]
                            while path[-1] != source:
                                path.append(parents[path[-1]])
                            return list(reversed(path))
                        next_frontier.append(v)
            frontier = next_frontier
        return None

    # ----------------------------------------------------------- conversion
    def subgraph(self, nodes: Sequence[int]) -> tuple["WeightedGraph", dict[int, int]]:
        """Induced subgraph on ``nodes``.

        Returns the subgraph (relabelled ``0 .. len(nodes)-1``) and the mapping
        from original node ID to new ID.
        """
        mapping = {node: index for index, node in enumerate(nodes)}
        sub = WeightedGraph(len(nodes), backend=self._backend_choice)
        for u in nodes:
            for v, w in self._adjacency[u].items():
                if v in mapping and u < v:
                    sub.add_edge(mapping[u], mapping[v], w)
        return sub, mapping

    def copy(self) -> "WeightedGraph":
        """Deep copy of the graph (keeps the backend choice)."""
        clone = WeightedGraph(self._n, backend=self._backend_choice)
        for u, v, w in self.edges():
            clone.add_edge(u, v, w)
        return clone

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (for cross-checking in tests)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._n))
        for u, v, w in self.edges():
            graph.add_edge(u, v, weight=w)
        return graph

    @classmethod
    def from_networkx(cls, graph) -> "WeightedGraph":
        """Build from a :class:`networkx.Graph` with integer node labels 0..n-1."""
        n = graph.number_of_nodes()
        result = cls(n)
        for u, v, data in graph.edges(data=True):
            result.add_edge(int(u), int(v), int(data.get("weight", 1)))
        return result

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int, int]], backend: str = "auto"
    ) -> "WeightedGraph":
        """Build from an iterable of ``(u, v, weight)`` triples."""
        result = cls(n, backend=backend)
        for u, v, w in edges:
            result.add_edge(u, v, w)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self._n}, m={self._edge_count})"
