"""Paper identities that no subcommand prints, as references for the tests.

Each function states a closed form or a combinatorial construction of the
paper; test modules check it against what the package computes.  Only the
references that more than one test module reads live here, and the two
convergence thresholds, which share one bisection.
"""
import math
from dataclasses import dataclass

import numpy as np

from magnilab import closed_forms as cf
from magnilab.empirical import great_circle_distances
from magnilab.finite_mag import neumann_partial, similarity
from magnilab.spaces import FiniteMetricSpace, GeodesicGraph


def shift_metric(m: FiniteMetricSpace, c: float) -> FiniteMetricSpace:
    """Every off-diagonal distance increased by c >= 0, still a metric."""
    return FiniteMetricSpace(m.dist + c * (1.0 - np.eye(len(m.dist))))


def bisect_threshold(weights: np.ndarray, dist: np.ndarray, hi: float) -> float:
    """Scale t* past which every column sum of weights * e^{-t*dist} is < 1.

    hi is doubled until it lies past t*, then [0, hi] is bisected to 1e-10.
    """
    def col_max(t: float) -> float:
        return float((weights * np.exp(-t * dist)).sum(axis=0).max())

    lo = 0.0
    while col_max(hi) >= 1.0:
        hi *= 2.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if col_max(mid) < 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def min_positive_distance(dist: np.ndarray) -> float:
    """The least off-diagonal entry of the distance matrix of n >= 2 points."""
    return float(dist[~np.eye(len(dist), dtype=bool)].min())


def convergence_threshold(m: FiniteMetricSpace) -> tuple[float, float]:
    """(exact threshold, crude bound) for Neumann-series convergence, n >= 2.

    Exact: minimal t* such that max_y sum_{x != y} exp(-t d(x,y)) < 1 for all
    t > t*, found by bisection to 1e-10.  Crude: log|X| / (min distance).
    """
    n = len(m.dist)
    crude = math.log(n) / min_positive_distance(m.dist)
    return bisect_threshold(1.0 - np.eye(n), m.dist, crude), crude


def tilde_convergence_threshold(g: GeodesicGraph) -> tuple[float, float]:
    """(bisection threshold, crude bound) for the counting-measure series of
    a graph on n >= 2 vertices.

    Crude sufficient bound: with S = max_y sum_{x != y} |Omega_{x,y}| and
    eps the minimum distance, every column sum of Y-tilde is at most
    S * exp(-t*eps), so t > log(S)/eps suffices.  For the 4-cycle S = 4;
    with the length-2 diagonal S = 5.
    """
    dist, counts = g.metric.dist, g.counts
    crude = math.log(float(counts.sum(axis=0).max())) / min_positive_distance(dist)
    return bisect_threshold(counts, dist, max(crude, 1.0)), crude


def rescaling_identity_residual(u: np.ndarray, N: int) -> float:
    """Max per-order gap between the empirical measure's partial sums and
    1/m times the counting measure's under the metric shifted by log m, at
    unit scale; u holds the m points on the unit 2-sphere as unit vectors."""
    m = len(u)
    d = great_circle_distances(u, 1.0)
    emp = neumann_partial(similarity(d, 1.0), N, np.full(m, 1.0 / m))
    cnt = neumann_partial(similarity(d + math.log(m) * (1.0 - np.eye(m)), 1.0), N)
    return max(abs(e - s / m) for e, s in zip(emp.partial_sums, cnt.partial_sums))


def torus_arccos_bounds(t: float) -> tuple[float, float]:
    """Elementary bounds for cf.torus_arccos_integral from
    (2l-1)/2 <= l*arccos(1/(2l)) <= pi*l/2 on [rho, R]."""
    rho, R = cf.TORUS_RHO, cf.TORUS_R
    e = math.exp(-rho * t)
    lower = (e / t**2) * (1.0 + t * (2 * rho - 1) / 2.0
                          - (2.0 - t + 2 * R * t) * math.exp(-t * (R - rho)) / 2.0)
    upper = (e / t**2) * (math.pi / 2.0) * (
        1.0 + rho * t - (1.0 + R * t) * math.exp(-t * (R - rho)))
    return lower, upper


def interval_first_partial(t: float, L: float) -> float:
    """Mag([a,b], t*d, Lebesgue; 1) = L - 2L/t + (2/t^2)(1 - e^{-tL})."""
    return L - 2.0 * L / t + (2.0 / t**2) * (1.0 - math.exp(-t * L))


def laplace_line_first_partial(t: float) -> float:
    """Mag(R, t|.|, exp(-|x|); 1) = 2 - 2(t+2)/(t+1)^2."""
    return 2.0 - 2.0 * (t + 2.0) / (t + 1.0) ** 2


@dataclass(frozen=True)
class OrderedPartition:
    """A composition of n+1 with at least one part >= 2."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive integers")
        if all(p == 1 for p in self.parts):
            raise ValueError("the all-ones composition is excluded")


def enumerate_partitions(n: int) -> list[OrderedPartition]:
    """All compositions of n+1 containing a part >= 2; there are 2^n - 1."""
    out = []

    def rec(remaining: int, acc: list[int]):
        if remaining == 0:
            if any(p >= 2 for p in acc):
                out.append(OrderedPartition(tuple(acc)))
            return
        for p in range(1, remaining + 1):
            rec(remaining - p, acc + [p])

    rec(n + 1, [])
    return out


def cluster_stats(lam: OrderedPartition) -> tuple[int, int]:
    """(f, g): the number of maximal runs of parts >= 2, and the plus signs
    inside those runs (run length - 1, summed over the runs)."""
    f = g = run = 0
    for p in lam.parts + (1,):
        if p >= 2:
            run += 1
        elif run:
            f, g, run = f + 1, g + run - 1, 0
    return f, g
