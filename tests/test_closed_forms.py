import math

import numpy as np
import pytest
from scipy import integrate, special

from magnilab import closed_forms as cf
from magnilab.spaces import Circle, Interval, LineGaussian, LineLaplace, Sphere2
from references import (interval_first_partial, laplace_line_first_partial,
                        torus_arccos_bounds)


def sphere_second_term_published(r: float, t: float) -> float:
    """The n = 2 sphere formula as printed in the literature, which disagrees
    with both the factorized value and direct quadrature of the length density."""
    e1, e2, q = math.exp(-math.pi * r * t), math.exp(-2 * math.pi * r * t), 1 + r**2 * t**2
    inner = (math.pi * r**2 * e1 + r**2 * (1 + e1)
             + (2 * r**3 * t * (1 + e1) + 2 * r**4 * t**2 * (e1 + e2)) / q)
    return 8 * math.pi**3 * r**4 / q * inner


def gaussian_line_second_term_published(t: float) -> float:
    """The reduced 2-D integral of cf.gaussian_line_second_term with the
    published constants, (7 s1^2 + 4 s2^2)/3 and cosh(10 s1 s2/3)."""
    return cf._gaussian_reduced_2d(t, 7.0, 4.0, 10.0)


class TestCircle:
    def test_leg_integral(self):
        for r, t in ((1.0, 1.0), (2.0, 0.7), (1.0, 1e-8)):
            quad, _ = integrate.quad(lambda l: 2 * math.exp(-t * l), 0, math.pi * r)
            assert cf.circle_leg_integral(r, t) == pytest.approx(quad, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_terms_match_length_density_quadrature(self, n, t):
        assert cf.circle_term(n, 1.0, t) == pytest.approx(
            cf.circle_term_quadrature(n, 1.0, t), rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_density_mass(self, n):
        # integral of the n-chain length density is mu(X)^{n+1}
        r = 1.0
        total, _ = integrate.quad(
            lambda l: cf.circle_length_density(n, r, l), 0, n * math.pi * r,
            limit=200)
        assert total == pytest.approx((2 * math.pi * r) ** (n + 1), rel=1e-9)

    def test_density_scalar_and_array_agree(self):
        arr = cf.circle_length_density(2, 1.0, np.array([0.5, 1.5]))
        assert cf.circle_length_density(2, 1.0, 0.5) == pytest.approx(arr[0])

    @pytest.mark.parametrize("t", [1e-320, 5e-324])
    def test_first_term_where_pi_r_t_is_subnormal(self, t):
        # pi t has lost digits, J(t) keeps its limit 2 pi
        assert cf.circle_term(1, 1.0, t) == pytest.approx((2 * math.pi) ** 2, rel=1e-15)
        assert cf.chain_terms(Circle(1.0), t, 1) == [cf.circle_term(1, 1.0, t)]

    @pytest.mark.parametrize("r, t", [(1.0, 1.0), (2.5, 0.5), (1e-3, 3.0), (1e100, 1e-100),
                                      (1.0, 1e-8)])
    def test_leg_ratio_is_leg_integral_over_length(self, r, t):
        assert cf.leg_ratio(Circle(r), t) == pytest.approx(
            cf.circle_leg_integral(r, t) / (2 * math.pi * r), rel=1e-14)

    @pytest.mark.parametrize("r, t", [(1e-160, 1e-160), (1e-300, 1e-300), (5e-324, 1e-10)])
    def test_leg_ratio_where_pi_r_t_underflows(self, r, t):
        assert cf.leg_ratio(Circle(r), t) == 1.0


class TestSphere:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_terms_match_quadrature(self, n, t):
        assert cf.sphere_term(n, 1.0, t) == pytest.approx(
            cf.sphere_term_quadrature(n, 1.0, t), rel=1e-9)

    def test_published_second_term_disagrees(self):
        """The printed two-chain formula is kept for comparison; it is far
        from the value fixed by the factorization and the density quadrature."""
        good = cf.sphere_term(2, 1.0, 1.0)
        printed = sphere_second_term_published(1.0, 1.0)
        assert abs(good - printed) > 10.0

    def test_density_mass(self):
        r = 1.0
        total, _ = integrate.quad(
            lambda l: cf.sphere_length_density(2, r, l), 0, 2 * math.pi * r,
            limit=200)
        assert total == pytest.approx((4 * math.pi * r**2) ** 3, rel=1e-8)

    @pytest.mark.parametrize("r, t", [(1e-300, 1e300), (5e-324, 1e300), (1e-300, 1.7e308)])
    def test_leg_integral_where_t2_r2_is_inf_times_zero(self, r, t):
        # t^2 overflows and r^2 underflows, but (t r)^2 is finite and the
        # numerator 2 pi r^2 (...) is 0: J(t) and every a_n underflow to 0
        assert cf.sphere_leg_integral(r, t) == 0.0
        assert cf.sphere_term(1, r, t) == cf.sphere_term(2, r, t) == 0.0

    @pytest.mark.parametrize("r, t", [(1.0, 1.0), (2.5, 0.5), (1e-3, 3.0), (1e100, 1e-100)])
    def test_leg_ratio_is_leg_integral_over_volume(self, r, t):
        assert cf.leg_ratio(Sphere2(r), t) == pytest.approx(
            cf.sphere_leg_integral(r, t) / (4 * math.pi * r * r), rel=1e-14)

    @pytest.mark.parametrize("r", [1e-155, 1e-162, 5e-324])
    def test_leg_ratio_where_r2_underflows(self, r):
        # J(t) and Vol lose their digits with r^2, the ratio keeps its limit 1
        assert cf.leg_ratio(Sphere2(r), 1.0) == 1.0


class TestTorus:
    def test_level_volume_boundary_behaviour(self):
        # both branch formulas agree at the corner radius (arccos(1) = 0)
        inner = 2 * math.pi * 0.5
        outer = 0.5 * (2 * math.pi - 8 * math.acos(1.0 / (2 * 0.5)))
        assert abs(inner - outer) < 1e-12
        assert cf.torus_level_volume(0.5) == pytest.approx(inner, abs=1e-12)
        assert cf.torus_level_volume(cf.TORUS_R) == pytest.approx(0.0, abs=1e-12)

    def test_first_term_identity(self):
        # at t = 1e-8, 2 pi/t^2 - 2 pi (Rt+1) e^{-tR}/t^2 once cancelled to 8;
        # below t = 1e-154, t^2 and P(2, Rt) underflow
        for t in (1e-300, 1e-200, 1e-154, 1e-8, 1.0, 5.0, 10.0):
            assert cf.torus_first_term(t) == pytest.approx(
                cf.torus_first_term_identity(t), rel=1e-8)

    @pytest.mark.parametrize("t", [5.0, 10.0, 20.0])
    def test_arccos_bounds_bracket(self, t):
        lo, hi = torus_arccos_bounds(t)
        mid = cf.torus_arccos_integral(t)
        assert lo <= mid <= hi
        assert lo > 0


class TestInterval:
    def test_first_partial_closed_form(self):
        # Mag;1 = a_0 - a_1, with a_1 from the exact transfer recursion
        for L, t in ((1.0, 2.0), (2.0, 3.0), (0.5, 1.0)):
            a = cf.interval_chain_terms(1, t, L, 0.0, 1.0)
            assert interval_first_partial(t, L) == pytest.approx(a[0] - a[1], rel=1e-12)

    def test_first_term_matches_double_quadrature(self):
        L, t = 1.0, 2.0
        quad, _ = integrate.dblquad(
            lambda y, x: math.exp(-t * abs(x - y)), 0, L, 0, L)
        assert cf.interval_term(1, t, L) == pytest.approx(quad, abs=1e-6)

    def test_alpha_base_case(self):
        # alpha(1, k) = 2 * integral_0^L l^k e^{-tl} dl / k!
        t, L = 1.5, 2.0
        for k in range(4):
            quad, _ = integrate.quad(
                lambda l: 2 * l**k * math.exp(-t * l) / math.factorial(k), 0, L)
            assert cf.interval_alpha(1, k, t, L) == pytest.approx(quad, rel=1e-10)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 30.0])
    def test_chain_terms_match_alpha_recursion(self, t):
        # Lebesgue measure is the transfer recursion with no atoms and density 1
        terms = cf.interval_chain_terms(6, t, 1.0, 0.0, 1.0)
        assert terms[0] == 1.0
        for n in range(1, 7):
            assert terms[n] == pytest.approx(cf.interval_term(n, t, 1.0), rel=1e-12)

    @pytest.mark.parametrize("low, top", cf.INTERVAL_TERM_RANGE)
    def test_interval_term_holds_in_its_stated_range(self, low, top):
        for tl in (low * np.logspace(0, 6, 13)).tolist():
            for L in (1.0, 2.5):
                terms = cf.interval_chain_terms(top, tl / L, L, 0.0, 1.0)
                for n in range(1, top + 1):
                    assert cf.interval_term_in_range(n, tl / L, L)
                    assert cf.interval_term(n, tl / L, L) == pytest.approx(terms[n], rel=1e-11)

    @pytest.mark.parametrize("tl", [1e-3, 1e-6, 1e-20])
    @pytest.mark.parametrize("atom, density", [(0.0, 1.0), (0.5, 0.5)])
    def test_chain_term_precision_suffices(self, monkeypatch, tl, atom, density):
        # the coefficients cancel as tL -> 0; 40 more digits change nothing
        chosen = [cf.interval_chain_terms(N, tl, 1.0, atom, density) for N in (1, 3, 8)]
        digits = cf._interval_digits
        monkeypatch.setattr(cf, "_interval_digits", lambda N, t, L: digits(N, t, L) + 40)
        for terms in chosen:
            wider = cf.interval_chain_terms(len(terms) - 1, tl, 1.0, atom, density)
            for a, b in zip(terms, wider):
                assert a == pytest.approx(b, rel=1e-15)


class TestLines:
    def test_laplace_first_term(self):
        for t in (1.0, 2.0, 5.0):
            assert cf.laplace_line_first_term(t) == pytest.approx(
                2 * (t + 2) / (t + 1) ** 2, rel=1e-12)
            # Mag;1 = mu(X) - a_1, with a_1 from quadrature of the length density
            assert laplace_line_first_partial(t) == pytest.approx(
                2 - cf.laplace_line_first_term_quadrature(t), rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    def test_laplace_first_term_quadrature(self, t):
        # the catalog's oracle: Laplace transform of the length density 2(1+l)e^{-l}
        assert cf.laplace_line_first_term_quadrature(t) == pytest.approx(
            cf.laplace_line_first_term(t), rel=1e-12, abs=0)

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 100.0, 620.0, 1000.0,
                                   1e4])
    def test_gaussian_first_term_quadrature(self, t):
        # the catalog's oracle: Laplace transform of sqrt(2 pi) e^{-l^2/2}; its peak at
        # l = 0 narrows to width 1/t, which a fixed [0, 40] grid missed past t ~ 620
        assert cf.gaussian_line_first_term_quadrature(t) == pytest.approx(
            cf.gaussian_line_first_term(t), rel=1e-12, abs=0)

    def test_gaussian_first_term_vs_published(self):
        # agreement only at t = 0; strict disagreement for t > 0
        assert cf.gaussian_line_first_term(1e-12) == pytest.approx(
            cf.gaussian_line_first_term_published(1e-12), rel=1e-6)
        assert abs(cf.gaussian_line_first_term(2.0)
                   - cf.gaussian_line_first_term_published(2.0)) > 0.1

    def test_gaussian_second_term_vs_direct_3d(self):
        """a_2 = int g(y)^2 e^{-y^2} dy, g(y) = int e^{-t|x-y|} e^{-x^2} dx.

        Integrating out both chain endpoints leaves the 1-D endpoint route
        g(y) = (sqrt(pi)/2) e^{-y^2} [erfcx(t/2 - y) + erfcx(t/2 + y)] of the
        3-D chain integral.  The range is [-9, 9]: beyond it the integrand is
        below 1e-30, and over the whole line e^{-y^2} erfcx(t/2 - y) is inf * 0.
        """
        t = 1.0

        def g(y):
            return 0.5 * math.sqrt(math.pi) * math.exp(-y * y) * (
                special.erfcx(t / 2 - y) + special.erfcx(t / 2 + y))

        direct, _ = integrate.quad(lambda y: g(y) ** 2 * math.exp(-y * y), -9, 9,
                                   epsabs=1e-14, epsrel=1e-13, limit=200)
        assert cf.gaussian_line_second_term(t) == pytest.approx(direct, rel=1e-7)
        assert abs(gaussian_line_second_term_published(t) - direct) > 0.1


def test_catalog_prints_no_interval_closed_form_outside_its_range():
    """At t = 1e-8 the interval_alpha recursion returns a_3 = 8.6e15 for a
    term near 1; the catalog leaves that cell and its diff empty."""
    rows = [r for r in cf.catalog_rows((1e-8, 1.0)) if r[0] == "interval"]
    assert [(r[1], r[2]) for r in rows] == [(n, t) for t in (1e-8, 1.0) for n in (1, 2, 3)]
    for _, n, t, closed, oracle, diff, _ in rows:
        assert oracle == pytest.approx(1.0, abs=1e-7) if t == 1e-8 else oracle < 1.0
        if t == 1e-8:
            assert closed is None and diff is None
        else:
            assert diff == abs(closed - oracle) < 1e-12


def test_catalog_rows_have_small_diffs():
    """Over catalog_rows' default grid and t = 1e-8, 0.1, every row's diff
    relative to its oracle: interval rows within the 1e-11 that
    INTERVAL_TERM_RANGE documents, every other row within 1e-9."""
    rows = cf.catalog_rows() + cf.catalog_rows((1e-8, 0.1))
    assert len(rows) > 10
    for space, n, t, closed, oracle, diff, cite in rows:
        if space == "line-gauss" and n == 1:
            continue  # documented discrepancy carried in the table
        if closed is None:
            assert space == "interval" and not cf.interval_term_in_range(n, t, 1.0)
            continue
        bound = 1e-11 if space == "interval" else 1e-9
        assert diff <= bound * abs(oracle), (space, n, t, diff / abs(oracle))


@pytest.mark.parametrize("t", [10.0**k for k in range(3, 13)])
def test_catalog_oracles_resolve_large_t(t):
    """Past t ~ 1e3 the Laplace transforms behind the catalog keep their mass
    within a few 1/t of l = 0; every oracle and closed form still agree, and
    the line-gauss oracle matches its erfcx form."""
    for space, n, _, closed, oracle, _, _ in cf.catalog_rows((t,)):
        if space == "line-gauss":
            closed = cf.gaussian_line_first_term(t)
        if closed is not None:
            assert oracle == pytest.approx(closed, rel=1e-9, abs=0), (space, n)


def test_sphere_density_near_zero_keeps_its_digits():
    """sin x - x cos x cancels as a difference of products near x = 0; the
    n = 2 density there matches eight terms of its Taylor series
    sum_k (-1)^(k+1) 2k x^(2k+1) / (2k+1)!."""
    def series(x):
        return math.fsum((-1) ** (k + 1) * 2 * k * x ** (2 * k + 1) / math.factorial(2 * k + 1)
                         for k in range(1, 9))

    for r, l in ((1.0, 1e-8), (1.0, 1e-3), (1.0, 0.05), (1.0, 0.0999), (2.0, 0.1)):
        assert cf.sphere_length_density(2, r, l) == pytest.approx(
            (2 * math.pi) ** 3 * r**5 * series(l / r), rel=1e-15, abs=0)


@pytest.mark.parametrize("r", [1.0, 2.5, 0.3])
def test_sphere_density_near_its_far_end_keeps_its_digits(r):
    """On (pi r, 2 pi r] the n = 2 density cancels as l -> 2 pi r; against
    40-digit arithmetic at the same double l it keeps 14 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for gap in (1e-5, 1e-3, 0.049):
            l = float(2 * mpmath.pi * r - gap)
            rest = 2 * mpmath.pi * r - mpmath.mpf(l)
            want = (2 * mpmath.pi) ** 3 * r**4 * (
                r * mpmath.sin(rest / r) - rest * mpmath.cos(mpmath.mpf(l) / r))
            got = cf.sphere_length_density(2, r, l)
            assert got == pytest.approx(float(want), rel=1e-14, abs=0)


@pytest.mark.parametrize("space, weight", [(LineLaplace(), lambda x: math.exp(-abs(x))),
                                           (LineGaussian(), lambda x: math.exp(-x * x))])
def test_line_leg_bound_is_the_leg_integral_at_zero(space, weight):
    """Both weights are symmetric and log-concave, so the leg integral peaks
    at y = 0: quadrature there gives c(t), and no basepoint of a 25-point
    grid over [-3, 3] gives more."""
    def leg(y, t):
        val, _ = integrate.quad(lambda x: math.exp(-t * abs(x - y)) * weight(x), -40, 40,
                                points=[y], limit=200)
        return val

    for t in (0.1, 1.0, 3.0, 10.0):
        c = cf.leg_integral_bound(space, t)
        assert c == pytest.approx(leg(0.0, t), rel=1e-8)
        assert max(leg(y, t) for y in np.linspace(-3.0, 3.0, 25)) <= c * (1 + 1e-12)


@pytest.mark.parametrize("measure", ["lebesgue", "weight"])
@pytest.mark.parametrize("L", [0.5, 1.0, 3.0])
def test_interval_leg_bound_is_the_sup_over_basepoints(measure, L):
    """The closed sup agrees with the leg integral's largest value over a
    10 001-point basepoint grid, which holds y = 0 and y = L/2."""
    space = Interval(0.0, L, measure)
    y = np.linspace(0.0, L, 10_001)
    for t in np.logspace(-3, 3, 7).tolist():
        leb = -(np.expm1(-t * y) + np.expm1(-t * (L - y))) / t
        leg = space.continuous_density * leb
        for loc, mass in space.atoms:
            leg += mass * np.exp(-t * np.abs(loc - y))
        assert cf.leg_integral_bound(space, t) == pytest.approx(
            leg.max(), rel=1e-12)
