import math

import numpy as np
import pytest
from scipy import integrate, special

from magnilab import closed_forms as cf


class TestCircle:
    def test_leg_integral(self):
        for r, t in ((1.0, 1.0), (2.0, 0.7)):
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
        printed = cf.sphere_term_published(2, 1.0, 1.0)
        assert abs(good - printed) > 10.0

    def test_density_mass(self):
        r = 1.0
        total, _ = integrate.quad(
            lambda l: cf.sphere_length_density(2, r, l), 0, 2 * math.pi * r,
            limit=200)
        assert total == pytest.approx((4 * math.pi * r**2) ** 3, rel=1e-8)


class TestTorus:
    def test_level_volume_boundary_behaviour(self):
        # both branch formulas agree at the corner radius (arccos(1) = 0)
        inner = 2 * math.pi * 0.5
        outer = 0.5 * (2 * math.pi - 8 * math.acos(1.0 / (2 * 0.5)))
        assert abs(inner - outer) < 1e-12
        assert cf.torus_level_volume(0.5) == pytest.approx(inner, abs=1e-12)
        assert cf.torus_level_volume(cf.TORUS_R) == pytest.approx(0.0, abs=1e-12)

    def test_first_term_identity(self):
        for t in (1.0, 5.0, 10.0):
            assert cf.torus_first_term(t) == pytest.approx(
                cf.torus_first_term_identity(t), rel=1e-8)

    @pytest.mark.parametrize("t", [5.0, 10.0, 20.0])
    def test_arccos_bounds_bracket(self, t):
        lo, hi = cf.torus_arccos_bounds(t)
        mid = cf.torus_arccos_integral(t)
        assert lo <= mid <= hi
        assert lo > 0


class TestInterval:
    def test_first_partial_closed_form(self):
        # Mag;1 = L - 2L/t + (2/t^2)(1 - e^{-tL})
        for L, t in ((1.0, 2.0), (2.0, 3.0), (0.5, 1.0)):
            expected = L - 2 * L / t + (2 / t**2) * (1 - math.exp(-t * L))
            assert cf.interval_first_partial(t, L) == pytest.approx(
                expected, rel=1e-12)

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
            assert cf.laplace_line_first_partial(t) == pytest.approx(
                2 - 2 * (t + 2) / (t + 1) ** 2, rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    def test_laplace_first_term_quadrature(self, t):
        # the catalog's oracle: Laplace transform of the length density 2(1+l)e^{-l}
        assert cf.laplace_line_first_term_quadrature(t) == pytest.approx(
            cf.laplace_line_first_term(t), rel=1e-12, abs=0)

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
        assert abs(cf.gaussian_line_second_term_published(t) - direct) > 0.1


def test_catalog_rows_have_small_diffs():
    rows = cf.catalog_rows((1.0, 2.0))
    assert len(rows) > 10
    for space, n, t, closed, oracle, diff, cite in rows:
        if space == "line-gauss" and n == 1:
            continue  # documented discrepancy carried in the table
        assert diff < 1e-6, (space, n, t)
