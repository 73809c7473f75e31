"""Magnitude of finite metric spaces, under the counting measure or given point weights.

The similarity matrix Z has entries exp(-t*d(x,y)); the magnitude is the sum
of the entries of Z^{-1}, obtained by solving Z v = 1 rather than inverting.
Every solve runs on numpy alone, as one solve against 1 and a few fixed
columns in [-1, 1]; these bound the infinity-norm condition number from
below, and Z is refused past COND_LIMIT.  The Neumann route expands the
same quantity as an alternating series over proper chains, computed by
matrix-vector powers of Y = Z - I.  Both routes take Z itself, as built by
similarity, so that a t grid can refill one buffer.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SingularMatrixError
from .spaces import MagnitudeSeries

#: refuse linear solves beyond this infinity-norm condition estimate
COND_LIMIT = 1e13

#: fixed +-1 probe columns of the condition estimate
PROBES = 8


def similarity(dist: np.ndarray, t: float, counts: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Z with entries exp(-t * d(x, y)), times counts[x, y] off the diagonal
    if given (the counted similarity); symmetric with unit diagonal.

    Z is written into out when given (a float64 array shaped like dist), so
    that a t grid can refill one buffer instead of allocating n^2 per t.
    """
    if t <= 0:
        raise ValueError("scale t must be positive")
    with np.errstate(over="ignore"):  # t d past the float range is -inf, whose exp is 0
        z = np.multiply(dist, -t, out=out)
    np.exp(z, out=z)
    if counts is not None:
        z *= counts
        np.fill_diagonal(z, 1.0)
    return z


def _right_hand_sides(n: int) -> np.ndarray:
    """[1 | alternating | PROBES hashed +-1 columns], every entry in [-1, 1].

    Column 1 is Higham's alternating vector (-1)^i (1 + i/(n-1)), halved;
    the probe columns are bits of a multiplicative hash of the index, so
    that few pairs of indices share their sign in every column, adjacent
    or not.
    """
    i = np.arange(n)
    s = np.empty((n, 2 + PROBES))
    s[:, 0] = 1.0
    s[:, 1] = np.where(i & 1, -0.5, 0.5) * (1.0 + i / max(n - 1, 1))
    bits = (i * 0x9E3779B1) >> np.arange(16, 16 + PROBES)[:, None]
    s[:, 2:] = np.where(bits.T & 1, -1.0, 1.0)
    return s


def _solve_ones(z: np.ndarray) -> np.ndarray:
    """Solve Z v = 1, refusing Z whose condition estimate exceeds COND_LIMIT.

    One numpy solve, Z Y = S with S the _right_hand_sides, gives v = Y[:, 0]
    and a lower bound on ||Z^{-1}||_inf: the fixed-probe half of the block
    estimator of Higham & Tisseur (2000).  Since |e_i^T Z^{-1} s| <=
    ||e_i^T Z^{-1}||_1 for any s with entries in [-1, 1], max |Y_ij| <=
    ||Z^{-1}||_inf; column 0 alone makes the bound at least ||v||_1 / n.
    The estimate ||Z||_inf max |Y_ij| thus never exceeds the exact
    infinity-norm condition number, up to rounding; on a symmetric Z that
    equals the 1-norm one.  An exactly singular Z raises
    SingularMatrixError(inf), and a NaN estimate is refused as well.
    """
    try:
        y = np.linalg.solve(z, _right_hand_sides(z.shape[0]))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(math.inf) from None
    with np.errstate(over="ignore"):  # an overflowing estimate is refused below
        cond = float(np.linalg.norm(z, np.inf) * np.abs(y).max())
    if not cond <= COND_LIMIT:
        raise SingularMatrixError(cond)
    return y[:, 0]


def classical_magnitude(z: np.ndarray) -> float:
    """Sum of the entries of Z^{-1}: the sum of the weighting v, Z v = 1."""
    return float(_solve_ones(z).sum())


def neumann_partial(z: np.ndarray, N: int, weights=None) -> MagnitudeSeries:
    """Alternating partial sums mu(X) + sum_{k=1}^{N} (-1)^k a_k, Y = Z - I.

    a_k = w^T (Y W)^{k-1} Y w with W = diag(w): with Z = e^{-td} it sums
    w_{x_0} ... w_{x_k} exp(-t * chain length) over proper chains
    x_0 != x_1 != ... != x_k.  weights defaults to the counting measure;
    Z may also be the counted similarity.

    Y is Z itself, with I subtracted from its diagonal for the duration of
    the call and the saved diagonal written back before it returns, so no
    n x n copy is made and the caller's Z keeps its bits.  Z must therefore
    be writable and not read by another thread during the call.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    n = z.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    diagonal = z.diagonal().copy()
    z.flat[:: n + 1] = diagonal - 1.0  # the bits of z - I, without an n x n identity
    try:
        terms = []
        x = w  # W (Y W)^{k-1} 1, the vector Y multiplies next
        for k in range(1, N + 1):
            v = z @ x
            terms.append(float(w @ v))
            x = w * v
    finally:
        z.flat[:: n + 1] = diagonal
    return MagnitudeSeries(total_mass=float(w.sum()), terms=tuple(terms))
