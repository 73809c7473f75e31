"""Magnitude of finite metric spaces with the counting measure.

The similarity matrix Z has entries exp(-t*d(x,y)); the magnitude is the sum
of the entries of Z^{-1}, obtained by solving Z v = 1 rather than inverting.
The Neumann route expands the same quantity as an alternating series over
proper chains, computed by matrix-vector powers of Y = Z - I.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import MetricValidationError, SingularMatrixError
from .spaces import FiniteMetricSpace, MagnitudeSeries, SeriesTerm

#: refuse linear solves beyond this 1-norm condition estimate
COND_LIMIT = 1e13


def similarity(dist: np.ndarray, t: float) -> np.ndarray:
    """Z with entries exp(-t * d(x, y)); symmetric with unit diagonal."""
    if t <= 0:
        raise ValueError("scale t must be positive")
    return np.exp(-t * dist)


def _solve_ones(z: np.ndarray) -> np.ndarray:
    """Solve Z v = 1 by pivoted LU, guarding against near-singularity."""
    import scipy.linalg

    with warnings.catch_warnings():
        # an exactly singular factor also warns; dgecon below reports it
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(z)
    # LAPACK's 1-norm condition estimate from the same factors
    rcond, _ = scipy.linalg.lapack.dgecon(lu, np.linalg.norm(z, 1))
    cond = 1.0 / rcond if rcond > 0 else math.inf
    if cond > COND_LIMIT:
        raise SingularMatrixError(cond)
    return scipy.linalg.lu_solve((lu, piv), np.ones(z.shape[0]))


def weighting_vector(m: FiniteMetricSpace, t: float) -> np.ndarray:
    """The weighting v with Z v = 1; its sum is the magnitude."""
    return _solve_ones(similarity(m.dist, t))


def classical_magnitude(m: FiniteMetricSpace, t: float) -> float:
    """Sum of the entries of Z^{-1} at scale t."""
    return float(weighting_vector(m, t).sum())


def chain_series(z: np.ndarray, t: float, N: int, weights=None) -> MagnitudeSeries:
    """Alternating partial sums mu(X) + sum_{k=1}^{N} (-1)^k a_k, Y = Z - I.

    a_k = w^T (Y W)^{k-1} Y w with W = diag(w): with Z = e^{-td} it sums
    w_{x_0} ... w_{x_k} exp(-t * chain length) over proper chains
    x_0 != x_1 != ... != x_k.  weights defaults to the counting measure;
    Z may also be the counted similarity.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    n = z.shape[0]
    y = z.copy()
    y.flat[:: n + 1] -= 1.0  # the bits of z - I, without an n x n identity
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    terms = []
    x = w  # W (Y W)^{k-1} 1, the vector Y multiplies next
    for k in range(1, N + 1):
        v = y @ x
        terms.append(SeriesTerm(order=k, value=float(w @ v), std_error=0.0, method="exact"))
        x = w * v
    return MagnitudeSeries(t=t, total_mass=float(w.sum()), terms=tuple(terms))


def neumann_partial(m: FiniteMetricSpace, t: float, N: int) -> MagnitudeSeries:
    """Alternating partial sums |X| + sum_{n=1}^{N} (-1)^n 1^T Y^n 1."""
    return chain_series(similarity(m.dist, t), t, N)


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


def convergence_threshold(m: FiniteMetricSpace) -> tuple[float, float]:
    """(exact threshold, crude bound) for Neumann-series convergence.

    Exact: minimal t* such that max_y sum_{x != y} exp(-t d(x,y)) < 1 for all
    t > t*, found by bisection to 1e-10.  Crude: log|X| / (min distance).
    """
    n = m.size
    if n < 2:
        raise MetricValidationError("convergence threshold undefined for a singleton")
    crude = math.log(n) / m.min_positive_distance()
    return bisect_threshold(1.0 - np.eye(n), m.dist, crude), crude


def column_sum_ratio(m: FiniteMetricSpace, t: float) -> float:
    """max column sum of Y = Z - I; series tail is geometric in this ratio."""
    y = similarity(m.dist, t) - np.eye(m.size)
    return float(np.abs(y).sum(axis=0).max())


def shift_metric(m: FiniteMetricSpace, c: float) -> FiniteMetricSpace:
    """Increase every off-diagonal distance by c >= 0 (still a metric)."""
    if c < 0:
        raise ValueError("shift must be nonnegative")
    d = m.dist + c * (1.0 - np.eye(m.size))
    return FiniteMetricSpace(m.points, d)


def restrict(m: FiniteMetricSpace, indices) -> FiniteMetricSpace:
    """Subspace on the given point indices (order preserved)."""
    idx = list(indices)
    pts = tuple(m.points[i] for i in idx)
    return FiniteMetricSpace(pts, m.dist[np.ix_(idx, idx)])
