import math

import numpy as np
import pytest

from magnilab import empirical, finite_mag, weight_measures as wm
from magnilab.errors import MagnilabError
from magnilab.spaces import Sphere2
from references import rescaling_identity_residual


def test_weighted_partial_matches_neumann_counting_measure():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(5, 3))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    a = finite_mag.neumann_partial(finite_mag.similarity(d, 1.2), 4)
    b = finite_mag.neumann_partial(finite_mag.similarity(d, 1.2), 4, np.ones(5))
    assert a.partial_sums == pytest.approx(b.partial_sums, abs=1e-12)


def test_minimal_energy_small_configs():
    # m = 2: antipodal; m = 4: regular tetrahedron
    u2 = empirical.minimal_energy_configuration(2, seed=0)
    assert u2.shape == (2, 3) and float(u2[0] @ u2[1]) == pytest.approx(-1.0, abs=1e-6)

    d = empirical.great_circle_distances(empirical.minimal_energy_configuration(4, seed=0), 1.0)
    off = d[np.triu_indices(4, k=1)]
    assert np.allclose(off, math.acos(-1.0 / 3.0), atol=1e-5)


def test_minimal_energy_deterministic():
    a = empirical.minimal_energy_configuration(12, seed=3)
    b = empirical.minimal_energy_configuration(12, seed=3)
    assert np.array_equal(a, b)


def test_minimal_energy_unconverged_raises():
    with pytest.raises(MagnilabError, match="did not converge"):
        empirical.minimal_energy_configuration(12, seed=3, maxiter=1)


def test_uniform_sphere_partial_alternates():
    val = empirical.uniform_sphere_partial(1.0, 1.0, 3)
    assert 0 < val < 1


def test_rescaling_identity_exact():
    u = empirical.minimal_energy_configuration(20, seed=1)
    assert rescaling_identity_residual(u, 3) < 1e-12


def test_fekete_constant():
    """The limit constant fekete-demo prints: the weight mass at unit scale."""
    r = 1.0
    assert wm.homogeneous_weight_mass(Sphere2(r), 1.0) == pytest.approx(
        2 * (1 + r**2) / (1 + math.exp(-math.pi * r)), rel=1e-12)


def test_convergence_rows_monotone_small():
    rows = empirical.fekete_convergence_experiment(1.0, (20, 40, 80), 2, seed=0)
    devs = [r.abs_dev for r in rows]
    assert devs[0] > devs[1] > devs[2]
    assert all(r.target == rows[0].target for r in rows)
