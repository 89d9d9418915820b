"""The blocked scatter-min relaxation kernel against the dict-backend oracle.

``graphs/csr.py`` relaxes weighted ``d_h`` and exact distances in row blocks
of :data:`repro.graphs.csr._BLOCK_BYTES`, with an unbuffered scatter-min and a
stamp-deduplicated frontier (DESIGN.md §4).  These tests pin the kernel bit
for bit to the per-source pure-Python ``hop_limited_distances`` and
``dijkstra`` of the dict backend, on graphs built to stress the scatter:
tied weights, equal-cost parallel paths, isolated nodes, duplicate (or no)
sources, hop limits 0 and 1, and source lists spanning several blocks with a
partial last block (the block constant is shrunk to a few rows per block).
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

numpy = pytest.importorskip("numpy")

from repro.graphs import csr as numpy_plane
from repro.graphs.graph import WeightedGraph

kernel_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Few distinct values, so equal-weight edges and equal-cost walks abound.
#: Every palette holds a weight above 1, so nearly every graph takes the
#: relaxation kernel rather than the unit-weight BFS fast path.
WEIGHT_PALETTES = [(2,), (1, 2), (2, 2, 3), (1, 4, 4, 8)]


@st.composite
def kernel_case(draw):
    """A weighted graph (possibly disconnected), sources, hop limit, block rows."""
    n = draw(st.integers(min_value=1, max_value=24))
    palette = draw(st.sampled_from(WEIGHT_PALETTES))
    graph = WeightedGraph(n, backend="dict")
    if n >= 4 and draw(st.booleans()):
        # A diamond: 0-1-3 and 0-2-3 are parallel paths of equal cost.
        w = palette[-1]
        for u, v in ((0, 1), (1, 3), (0, 2), (2, 3)):
            graph.add_edge(u, v, w)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    # Sparse edge lists leave some nodes isolated or in separate components.
    for u, v in draw(st.lists(pairs, max_size=2 * n)):
        if u != v:
            graph.add_edge(u, v, draw(st.sampled_from(palette)))
    sources = draw(st.lists(st.integers(0, n - 1), max_size=3 * n + 3))
    hop_limit = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, n)))
    block_rows = draw(st.integers(min_value=1, max_value=4))
    return graph, sources, hop_limit, block_rows


def pinned_case():
    """Ten sources over 3-row blocks (3, 3, 3 and a partial 1), with duplicates.

    Nodes 7 and 8 are isolated; node 8 is also a source.
    """
    graph = WeightedGraph(9, backend="dict")
    for u, v, w in [(0, 1, 2), (1, 2, 2), (0, 3, 4), (3, 2, 1), (4, 5, 3), (2, 6, 2)]:
        graph.add_edge(u, v, w)
    return graph, [0, 2, 2, 8, 5, 0, 6, 1, 3, 4], 2, 3


def dense_rows(graph: WeightedGraph, maps) -> numpy.ndarray:
    """Per-source distance dicts as a dense matrix (``inf`` = unreached)."""
    matrix = numpy.full((len(maps), graph.node_count), numpy.inf)
    for row, distances in enumerate(maps):
        for node, value in distances.items():
            matrix[row, node] = value
    return matrix


@contextmanager
def blocked(block_rows: int, n: int):
    """Shrink the kernel's row block to ``block_rows`` rows of an ``n``-column matrix."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numpy_plane, "_BLOCK_BYTES", 8 * n * block_rows)
        yield


class TestBlockedRelaxation:
    @kernel_settings
    @given(kernel_case())
    @example(pinned_case())
    def test_hop_limited_matches_dict_backend(self, case):
        graph, sources, hop_limit, block_rows = case
        expected = dense_rows(
            graph, [graph.hop_limited_distances(s, hop_limit) for s in sources]
        )
        csr = graph.csr()
        with blocked(block_rows, graph.node_count):
            actual = numpy_plane.hop_limited_matrix(csr, sources, hop_limit)
        assert actual.shape == (len(sources), graph.node_count)
        assert numpy.array_equal(actual, expected)

    @kernel_settings
    @given(kernel_case())
    @example(pinned_case())
    def test_distance_matrix_matches_dijkstra(self, case):
        graph, sources, _, block_rows = case
        expected = dense_rows(graph, [graph.dijkstra(s) for s in sources])
        csr = graph.csr()
        with blocked(block_rows, graph.node_count):
            actual = numpy_plane.distance_matrix(csr, sources)
        assert numpy.array_equal(actual, expected)
