"""Graph magnitude under the geodesic-counting measure.

The modified similarity matrix has entries |Omega_{x,y}| * exp(-t*d_G(x,y)),
where |Omega_{x,y}| is the number of distinct shortest paths.  For graphs
where all geodesics are unique this collapses to the classical magnitude of
the shortest-path metric.  The metric and the counts depend on the graph
alone, so GeodesicGraph builds them once, on first use, and every t reuses
them: one numpy sweep over all sources settles keys in order of distance
and gives both, for any edge lengths, and loads no scipy.
"""
from __future__ import annotations

import numpy as np

from .finite_mag import classical_magnitude, neumann_partial, similarity
from .spaces import GeodesicGraph, MagnitudeSeries, graph_metric


def count_geodesics(g: GeodesicGraph) -> np.ndarray:
    """Read-only counts[x, y] = number of shortest x-y paths; diagonal zero.

    These are g.counts, which the graph builds on the first call and keeps.
    Raises DisconnectedGraphError for a disconnected graph and
    GeodesicOverflowError if a count is not exact in float64.
    """
    return g.counts


def tilde_similarity(g: GeodesicGraph, t: float) -> np.ndarray:
    """The counted similarity of g from its metric and counts."""
    return similarity(graph_metric(g).dist, t, count_geodesics(g))


def tilde_magnitude(g: GeodesicGraph, t: float) -> float:
    """Sum of the entries of the inverse modified similarity matrix."""
    return classical_magnitude(tilde_similarity(g, t))


def tilde_neumann_partial(g: GeodesicGraph, t: float, N: int) -> MagnitudeSeries:
    """Alternating series for tilde_magnitude via powers of Z-tilde - I."""
    return neumann_partial(tilde_similarity(g, t), N)
