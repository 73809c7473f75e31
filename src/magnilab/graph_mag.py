"""Graph magnitude under the geodesic-counting measure.

The modified similarity matrix has entries |Omega_{x,y}| * exp(-t*d_G(x,y)),
where |Omega_{x,y}| is the number of distinct shortest paths.  For graphs
where all geodesics are unique this collapses to the classical magnitude of
the shortest-path metric.  Unit-length graphs take metric and counts from
one numpy breadth-first sweep, GeodesicGraph.unit_sweep, which loads no
scipy; others take Dijkstra's metric and count by one push over all
sources at once along each source's order of distance.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import GeodesicOverflowError, MetricValidationError
from .finite_mag import _solve_ones, bisect_threshold, chain_series, similarity
from .spaces import FiniteMetricSpace, GeodesicGraph, MagnitudeSeries, graph_metric

#: relative tolerance for recognizing equal-length paths on weighted graphs
TIE_TOL = 1e-9

#: path counts beyond this are not exactly representable in float64
COUNT_LIMIT = float(2**53)


def count_geodesics(g: GeodesicGraph, metric: FiniteMetricSpace | None = None) -> np.ndarray:
    """Read-only counts[x, y] = number of shortest x-y paths; diagonal zero.

    Pass the graph's metric when it is already built; the CLI builds the
    metric and the counts once per invocation and reuses them for every t.

    Unit-length graphs read the counts from g.unit_sweep, the sweep that
    gave their metric.  Weighted graphs push counts along tight edges (u, v),
    those with dist[u] + w(u,v) == dist[v] within TIE_TOL relative, for all
    sources at once: step k takes each source's k-th nearest vertex u and
    adds counts[s, u] into counts[s, v] over u's tight edges (Brandes'
    recurrence).  Raises GeodesicOverflowError if a count exceeds COUNT_LIMIT.
    """
    if metric is None:
        metric = graph_metric(g)  # also rejects disconnected graphs
    counts = g.unit_sweep[1] if g.is_unit else _count_dag(g, metric.dist)
    if counts.max() > COUNT_LIMIT:
        raise GeodesicOverflowError(
            f"shortest-path count {counts.max():.3e} exceeds exact float64 range")
    counts.setflags(write=False)
    return counts


def _count_dag(g: GeodesicGraph, dist: np.ndarray) -> np.ndarray:
    n = g.vertex_count
    lengths, nbrs, _ = g.csr
    rows = np.arange(n)
    counts = np.eye(n)
    for u in np.argsort(dist, axis=1, kind="stable").T:  # each source's k-th nearest vertex
        step, deg = g.slots(u)
        s, v = np.repeat(rows, deg), nbrs[step]
        dv = dist[s, v]
        tight = np.flatnonzero(np.abs(np.repeat(dist[rows, u], deg) + lengths[step] - dv)
                               <= TIE_TOL * np.maximum(1.0, dv))
        counts[s[tight], v[tight]] += np.repeat(counts[rows, u], deg)[tight]
    counts[rows, rows] = 0.0
    return counts


def tilde_similarity(g: GeodesicGraph, t: float) -> np.ndarray:
    """The counted similarity of g, building its metric and counts."""
    metric = graph_metric(g)
    return similarity(metric.dist, t, count_geodesics(g, metric))


def tilde_magnitude(g: GeodesicGraph, t: float) -> float:
    """Sum of the entries of the inverse modified similarity matrix."""
    return float(_solve_ones(tilde_similarity(g, t)).sum())


def tilde_neumann_partial(g: GeodesicGraph, t: float, N: int) -> MagnitudeSeries:
    """Alternating series for tilde_magnitude via powers of Z-tilde - I."""
    return chain_series(tilde_similarity(g, t), t, N)


def tilde_convergence_threshold(g: GeodesicGraph) -> tuple[float, float]:
    """(bisection threshold, crude bound) for the counting-measure series.

    Crude sufficient bound: with S = max_y sum_{x != y} |Omega_{x,y}| and
    eps the minimum distance, every column sum of Y-tilde is at most
    S * exp(-t*eps), so t > log(S)/eps suffices.  For the 4-cycle S = 4;
    with the length-2 diagonal S = 5.
    """
    if g.vertex_count < 2:
        raise MetricValidationError("convergence threshold undefined for a singleton")
    metric = graph_metric(g)
    counts = count_geodesics(g, metric)
    crude = math.log(float(counts.sum(axis=0).max())) / metric.min_positive_distance()
    return bisect_threshold(counts, metric.dist, max(crude, 1.0)), crude
