"""Minimal-energy configurations on the 2-sphere, and the partial magnitude
of their empirical measures.

The empirical measure (1/m) sum of deltas over a configuration converges
weakly to the uniform probability measure when the points equidistribute;
its partial magnitude is an exact finite sum, finite_mag.neumann_partial
with weights 1/m, so convergence of partial magnitudes can be watched
directly.  True energy-extremal (Fekete) configurations are replaced by
logarithmic-energy minimizers, which exhibit the same weak convergence at
the scales studied here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closed_forms
from .errors import MagnilabError
from .finite_mag import neumann_partial, similarity
from .spaces import Sphere2


def great_circle_distances(u: np.ndarray, r: float) -> np.ndarray:
    """r * arccos(u_i . u_j) for the rows u_i of an (m, 3) array of unit
    vectors: the great-circle metric of the points on Sphere2(r)."""
    d = r * np.arccos(np.clip(u @ u.T, -1.0, 1.0))
    np.fill_diagonal(d, 0.0)
    return d


# ---------------------------------------------------------------------------
# minimal-energy configurations on the 2-sphere
# ---------------------------------------------------------------------------

def _log_energy_and_grad(x: np.ndarray, m: int):
    """E = -sum_{i<j} log ||u_i - u_j|| for u_i = x_i/|x_i|, with gradient."""
    x = x.reshape(m, 3)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    u = x / norms
    diff = u[:, None, :] - u[None, :, :]
    dist2 = (diff**2).sum(axis=2)
    np.fill_diagonal(dist2, 1.0)
    energy = -0.5 * np.log(dist2).sum() / 2.0  # each pair counted twice
    # dE/du_i = -sum_j (u_i - u_j)/||u_i - u_j||^2
    grad_u = -(diff / dist2[:, :, None]).sum(axis=1)
    # project through the normalization u = x/|x|
    grad_x = (grad_u - (grad_u * u).sum(axis=1, keepdims=True) * u) / norms
    return energy, grad_x.ravel()


def minimal_energy_configuration(m: int, seed: int, maxiter: int = 2000) -> np.ndarray:
    """(m, 3) unit vectors of m points on the 2-sphere minimizing pairwise
    logarithmic energy.

    Deterministic given the seed; uses an unconstrained parametrization in
    R^{3m} with the unit projection folded into the objective.  Raises
    MagnilabError if L-BFGS-B stops without converging.
    """
    from scipy.optimize import minimize

    if m < 2:
        raise ValueError("need at least 2 points")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    x0 = rng.normal(size=(m, 3))
    x0 /= np.linalg.norm(x0, axis=1, keepdims=True)
    res = minimize(
        lambda x: _log_energy_and_grad(x, m),
        x0.ravel(),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-10},
    )
    if not res.success:
        raise MagnilabError(f"L-BFGS-B did not converge for m = {m} points: {res.message}")
    u = res.x.reshape(m, 3)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u


# ---------------------------------------------------------------------------
# convergence experiment toward the uniform probability measure
# ---------------------------------------------------------------------------

def uniform_sphere_partial(r: float, t: float, N: int) -> float:
    """Target Mag(Sphere2(r), t d, uniform probability measure; N).

    Per-order terms are (J(t)/Vol)^n by homogeneity.
    """
    ratio = closed_forms.leg_ratio(Sphere2(r), t)  # Sphere2 checks r
    return sum((-ratio) ** n for n in range(N + 1))


@dataclass(frozen=True)
class FeketeRow:
    m: int
    N: int
    empirical: float
    target: float
    abs_dev: float


def fekete_convergence_experiment(
    r: float, m_list, N: int, seed: int, t: float = 1.0
) -> list[FeketeRow]:
    target = uniform_sphere_partial(r, t, N)
    rows = []
    for m in m_list:
        d = great_circle_distances(minimal_energy_configuration(m, seed=seed + m), r)
        val = neumann_partial(similarity(d, t), N, np.full(m, 1.0 / m)).partial_sums[N]
        rows.append(FeketeRow(m, N, val, target, abs(val - target)))
    return rows
