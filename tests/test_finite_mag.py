import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnilab import finite_mag, graph_mag
from magnilab.errors import SingularMatrixError
from magnilab.spaces import GeodesicGraph, graph_metric
from references import convergence_threshold, shift_metric


def two_point(d):
    return np.array([[0.0, d], [d, 0.0]])


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.1, 5.0))
def test_two_point_closed_form(d, t):
    # Mag({x,y}) = 2/(1 + e^{-td})
    expected = 2.0 / (1.0 + math.exp(-t * d))
    assert finite_mag.classical_magnitude(finite_mag.similarity(two_point(d), t)) == pytest.approx(
        expected, rel=1e-12)


def test_weighting_vector_sums_to_magnitude():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(5, 3))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    z = finite_mag.similarity(d, 1.5)
    w = finite_mag._solve_ones(z)
    assert float(w.sum()) == pytest.approx(finite_mag.classical_magnitude(z))
    # defining property: Z w = 1
    assert np.allclose(np.exp(-1.5 * d) @ w, 1.0)


def test_neumann_converges_to_inverse():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(4, 2)) * 2.0
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    t_exact, t_crude = convergence_threshold(d)
    assert t_exact <= t_crude
    t = t_exact + 0.5
    z = finite_mag.similarity(d, t)
    series = finite_mag.neumann_partial(z, 80)
    exact = finite_mag.classical_magnitude(z)
    assert series.partial_sums[-1] == pytest.approx(exact, abs=1e-9)


def column_sum_ratio(d: np.ndarray, t: float) -> float:
    """max column sum of Y = Z - I; the series tail is geometric in this ratio."""
    y = finite_mag.similarity(d, t) - np.eye(len(d))
    return float(np.abs(y).sum(axis=0).max())


def test_column_sum_ratio_brackets_threshold():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(4, 2))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    t_exact, _ = convergence_threshold(d)
    assert column_sum_ratio(d, t_exact + 1e-6) < 1.0
    assert column_sum_ratio(d, t_exact - 1e-6) > 1.0


def test_singular_similarity_raises():
    # duplicated point => exactly singular similarity matrix
    d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SingularMatrixError):
            finite_mag.classical_magnitude(finite_mag.similarity(d, 1.0))
    # the condition check reports the singularity; nothing else warns of it
    assert caught == []


def test_condition_estimate_is_lapack_1norm_condition():
    # unit diagonal in U, so norm(Z)/min|U_ii| would report only 1e7, while
    # the 1-norm condition (1 + 1e7)^2 is past COND_LIMIT
    z = np.array([[1.0, 1e7], [0.0, 1.0]])
    with pytest.raises(SingularMatrixError) as exc:
        finite_mag._solve_ones(z)
    assert exc.value.condition_estimate == pytest.approx(np.linalg.cond(z, 1), rel=1e-9)


def near_duplicate_similarities(count, seed):
    """Seeded Z = e^{-td} of 5..120 points in [0, 3]^dim with 1..3 points
    moved to within 1e-8..1e-2 of another, t in [0.1, 10]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, dim = int(rng.integers(5, 121)), int(rng.integers(1, 4))
        pts = rng.uniform(0.0, 3.0, size=(n, dim))
        for _ in range(int(rng.integers(1, 4))):
            a, b = rng.choice(n, 2, replace=False)
            pts[b] = pts[a] + 10 ** rng.uniform(-8, -2) * rng.normal(size=dim)
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
        yield np.exp(-10 ** rng.uniform(-1, 1) * d)


def test_condition_estimate_battery(monkeypatch):
    """The estimate never exceeds the exact 1-norm condition and is
    within 10x of it at least as often as LAPACK's dgecon."""
    from scipy.linalg import lu_factor
    from scipy.linalg.lapack import dgecon

    monkeypatch.setattr(finite_mag, "COND_LIMIT", 0.0)  # every solve reports its estimate
    within, within_lapack = 0, 0
    for z in near_duplicate_similarities(200, seed=13):
        norm = np.linalg.norm(z, 1)
        exact = norm * np.linalg.norm(np.linalg.inv(z), 1)
        with pytest.raises(SingularMatrixError) as exc:
            finite_mag._solve_ones(z)
        estimate = exc.value.condition_estimate
        assert estimate <= exact * (1 + 1e-8)
        rcond, _ = dgecon(lu_factor(z)[0], norm)
        within += exact <= 10 * estimate
        within_lapack += exact * rcond <= 10
    assert within >= within_lapack


def test_solve_ones_factors_z_once(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(b.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(30, 2))
    z = finite_mag.similarity(np.linalg.norm(pts[:, None] - pts[None, :], axis=2), 1.0)
    v = finite_mag._solve_ones(z)
    assert len(calls) == 1
    assert np.allclose(z @ v, 1.0)


def worst_counted_similarities(count, seed):
    """Counted similarities of seeded connected unit graphs on 4..40
    vertices, each at the t of a 60-point grid in [0.05, 3] where its
    1-norm condition number is largest."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.05, 3.0, 60)
    for _ in range(count):
        n = int(rng.integers(4, 41))
        edges = {(int(rng.integers(v)), v) for v in range(1, n)}  # a spanning tree
        for _ in range(int(rng.integers(0, 2 * n))):
            u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            edges.add((u, v))
        g = GeodesicGraph(n, tuple(sorted(edges)))
        dist = graph_metric(g)
        counts = graph_mag.count_geodesics(g)
        zs = [finite_mag.similarity(dist, t, counts) for t in grid]
        yield max(zs, key=lambda z: np.linalg.cond(z, 1))


def test_condition_estimate_counted_graph_battery(monkeypatch):
    """On counted similarities, which are not positive definite, the
    estimate never exceeds the exact condition number and is within 10x of
    it at least as often as LAPACK's dgecon."""
    from scipy.linalg import lu_factor
    from scipy.linalg.lapack import dgecon

    monkeypatch.setattr(finite_mag, "COND_LIMIT", 0.0)  # every solve reports its estimate
    within, within_lapack = 0, 0
    for z in worst_counted_similarities(150, seed=0):
        assert (z == z.T).all()  # so the infinity- and 1-norm conditions agree
        norm = np.linalg.norm(z, 1)
        exact = norm * np.linalg.norm(np.linalg.inv(z), 1)
        with pytest.raises(SingularMatrixError) as exc:
            finite_mag._solve_ones(z)
        estimate = exc.value.condition_estimate
        assert estimate <= exact * (1 + 1e-8)
        rcond, _ = dgecon(lu_factor(z)[0], norm)
        within += exact <= 10 * estimate
        within_lapack += exact * rcond <= 10
    assert within >= within_lapack


def test_condition_estimate_of_nonsymmetric_z_is_infinity_norm():
    # kappa_1 is (1 + 1e7)^2 = 1.0e14 but kappa_inf is (1 + 2e7)^2 = 4.0e14:
    # row 0 of Z^{-1} is (1, -1e7, -1e7), which a probe column with signs
    # (+, -, -) reads in full
    z = np.array([[1.0, 1e7, 1e7], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularMatrixError) as exc:
        finite_mag._solve_ones(z)
    assert exc.value.condition_estimate == pytest.approx((1 + 2e7) ** 2, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 2.0))
def test_shift_metric_scaling_identity(c):
    """e^{-c} Mag(d + c, counting; N) = Mag(d, e^{-c} counting; N) per term."""
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(5, 3))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    shifted = shift_metric(d, c)
    lhs = finite_mag.neumann_partial(finite_mag.similarity(shifted, 1.0), 4)
    rhs = finite_mag.neumann_partial(
        finite_mag.similarity(d, 1.0), 4, np.full(len(d), math.exp(-c)))
    for a, b in zip(lhs.terms, rhs.terms):
        assert math.exp(-c) * a == pytest.approx(b, abs=1e-12)


def test_chain_series_counting_measure_is_plain_powers():
    """weights=None gives the bits of 1^T Y^k 1 by repeated Y @ w."""
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(7, 2))
    z = finite_mag.similarity(np.linalg.norm(pts[:, None] - pts[None, :], axis=2), 0.8)
    y = z - np.eye(7)
    w = np.ones(7)
    expected = []
    for _ in range(5):
        w = y @ w
        expected.append(float(np.ones(7) @ w))
    series = finite_mag.neumann_partial(z, 5)
    assert list(series.terms) == expected
    assert series.total_mass == 7.0


@pytest.mark.parametrize("weights", [None, [0.5, 1.0, 2.0] * 100])
@pytest.mark.parametrize("diagonal", [1.0, 0.75])
def test_chain_series_runs_in_place_and_restores_z(weights, diagonal):
    """The series reads Y = Z - I inside Z itself, allocating far less than one
    n^2 array, and hands Z back bit for bit, whatever its diagonal; its terms
    are those of an explicit copy of Z - I."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 10.0, size=(300, 2))
    z = finite_mag.similarity(np.linalg.norm(pts[:, None] - pts[None, :], axis=2), 0.7)
    np.fill_diagonal(z, diagonal)
    before = z.copy()
    y = z - np.eye(300)
    w = np.ones(300) if weights is None else np.asarray(weights)
    x, expected = w, []
    for _ in range(6):
        v = y @ x
        expected.append(float(w @ v))
        x = w * v
    tracemalloc.start()
    try:
        series = finite_mag.neumann_partial(z, 6, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 300 * 300
    assert list(series.terms) == expected
    assert z.tobytes() == before.tobytes()
