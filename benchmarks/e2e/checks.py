"""Answer checks against ``repro.graphs.reference``, run outside the timed region.

APSP and SSSP answers must equal the sequential reference exactly; diameter
and multi-source shortest-paths answers must lie within the guarantee their
result declares (``guaranteed_alpha``).  Every check returns a list of
human-readable problems -- empty means correct -- so one run can report all
of them.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence

import numpy as np

from repro.graphs import reference
from repro.graphs.graph import WeightedGraph

#: Sources per reference Dijkstra batch (bounds the dict-of-dicts it returns).
_CHUNK = 256


def reference_rows(graph: WeightedGraph, sources: Sequence[int]) -> np.ndarray:
    """Exact distances from each source, one dense row per source."""
    n = graph.node_count
    sources = list(sources)
    rows = np.full((len(sources), n), np.inf)
    for start in range(0, len(sources), _CHUNK):
        chunk = sources[start : start + _CHUNK]
        by_source = reference.multi_source_distances(graph, chunk)
        for offset, source in enumerate(chunk):
            distances = by_source[source]
            count = len(distances)
            columns = np.fromiter(distances.keys(), dtype=np.int64, count=count)
            values = np.fromiter(distances.values(), dtype=np.float64, count=count)
            rows[start + offset, columns] = values
    return rows


def reference_matrix(graph: WeightedGraph) -> np.ndarray:
    """The exact ``n x n`` distance matrix (``inf`` when unreachable)."""
    return reference_rows(graph, range(graph.node_count))


def matrix_digest(matrix: object) -> int:
    """CRC-32 of a distance matrix as a C-ordered float64 array."""
    array = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
    return zlib.crc32(array.tobytes())


def distance_row(distances: dict[int, float], n: int) -> np.ndarray:
    """A per-node distance map as a dense row (``inf`` where absent)."""
    return np.array([distances.get(node, np.inf) for node in range(n)], dtype=np.float64)


def check_apsp(digest: int, expected: np.ndarray, what: str) -> list[str]:
    """An APSP answer (by digest) must equal the reference matrix exactly."""
    if digest != matrix_digest(expected):
        return [f"{what}: APSP matrix differs from the reference"]
    return []


def check_sssp(row: np.ndarray, expected: np.ndarray, what: str) -> list[str]:
    """An SSSP answer must equal the reference row exactly."""
    wrong = np.flatnonzero(row != expected)
    if wrong.size:
        node = int(wrong[0])
        return [
            f"{what}: {wrong.size} wrong distances, e.g. node {node}: "
            f"{row[node]} != {expected[node]}"
        ]
    return []


def check_diameter(estimate: float, alpha: float, true_diameter: float, what: str) -> list[str]:
    """``D <= estimate <= alpha * D`` (Theorem 5.1's declared guarantee)."""
    if not true_diameter - 1e-9 <= estimate <= alpha * true_diameter + 1e-9:
        return [f"{what}: estimate {estimate} outside [{true_diameter}, {alpha} * D]"]
    return []


def check_shortest_paths(
    estimates: np.ndarray, alpha: float, expected: np.ndarray, what: str
) -> list[str]:
    """``d <= estimate`` everywhere and ``estimate <= alpha * d`` where ``d > 0``."""
    under = estimates < expected - 1e-9
    positive = expected > 0
    over = positive & (estimates > alpha * expected + 1e-6)
    bad = np.flatnonzero((under | over).ravel())
    if bad.size:
        return [f"{what}: {bad.size} estimates outside the declared guarantee"]
    return []
