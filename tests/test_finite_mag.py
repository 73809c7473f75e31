import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnilab import finite_mag
from magnilab.errors import SingularMatrixError
from magnilab.spaces import FiniteMetricSpace


def two_point(d):
    return FiniteMetricSpace.from_matrix(np.array([[0.0, d], [d, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.1, 5.0))
def test_two_point_closed_form(d, t):
    # Mag({x,y}) = 2/(1 + e^{-td})
    expected = 2.0 / (1.0 + math.exp(-t * d))
    assert finite_mag.classical_magnitude(two_point(d), t) == pytest.approx(
        expected, rel=1e-12)


def test_weighting_vector_sums_to_magnitude():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(5, 3))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    m = FiniteMetricSpace.from_matrix(d)
    w = finite_mag.weighting_vector(m, 1.5)
    assert float(w.sum()) == pytest.approx(finite_mag.classical_magnitude(m, 1.5))
    # defining property: Z w = 1
    z = np.exp(-1.5 * d)
    assert np.allclose(z @ w, 1.0)


def test_neumann_converges_to_inverse():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(4, 2)) * 2.0
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    m = FiniteMetricSpace.from_matrix(d)
    t_exact, t_crude = finite_mag.convergence_threshold(m)
    assert t_exact <= t_crude
    t = t_exact + 0.5
    series = finite_mag.neumann_partial(m, t, 80)
    exact = finite_mag.classical_magnitude(m, t)
    assert series.partial_sums[-1] == pytest.approx(exact, abs=1e-9)


def test_column_sum_ratio_brackets_threshold():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(4, 2))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    m = FiniteMetricSpace.from_matrix(d)
    t_exact, _ = finite_mag.convergence_threshold(m)
    assert finite_mag.column_sum_ratio(m, t_exact + 1e-6) < 1.0
    assert finite_mag.column_sum_ratio(m, t_exact - 1e-6) > 1.0


def test_singular_similarity_raises():
    # duplicated point => exactly singular similarity matrix
    d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    m = FiniteMetricSpace.from_matrix(d)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SingularMatrixError):
            finite_mag.classical_magnitude(m, 1.0)
    # the condition check reports the singularity; nothing else warns of it
    assert caught == []


def test_condition_estimate_is_lapack_1norm_condition():
    # unit diagonal in U, so norm(Z)/min|U_ii| would report only 1e7, while
    # the 1-norm condition (1 + 1e7)^2 is past COND_LIMIT
    z = np.array([[1.0, 1e7], [0.0, 1.0]])
    with pytest.raises(SingularMatrixError) as exc:
        finite_mag._solve_ones(z)
    assert exc.value.condition_estimate == pytest.approx(np.linalg.cond(z, 1), rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 2.0))
def test_shift_metric_scaling_identity(c):
    """e^{-c} Mag(d + c, counting; N) = Mag(d, e^{-c} counting; N) per term."""
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(5, 3))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    m = FiniteMetricSpace.from_matrix(d)
    shifted = finite_mag.shift_metric(m, c)
    lhs = finite_mag.neumann_partial(shifted, 1.0, 4)
    from magnilab.empirical import weighted_partial_magnitude
    rhs = weighted_partial_magnitude(
        m.dist, np.full(m.size, math.exp(-c)), 1.0, 4)
    for a, b in zip(lhs.terms, rhs.terms):
        assert math.exp(-c) * a.value == pytest.approx(b.value, abs=1e-12)


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
    series = finite_mag.chain_series(z, 0.8, 5)
    assert [term.value for term in series.terms] == expected
    assert series.total_mass == 7.0


def test_restrict():
    d = np.array([[0, 1, 2.0], [1, 0, 1], [2.0, 1, 0]])
    m = FiniteMetricSpace.from_matrix(d, points=("a", "b", "c"))
    sub = finite_mag.restrict(m, [0, 2])
    assert sub.points == ("a", "c")
    assert sub.dist[0, 1] == 2.0
