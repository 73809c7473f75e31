import math
from collections import Counter
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from magnilab import closed_forms as cf, mc, weight_measures as wm
from magnilab.spaces import Circle, Interval, Sphere2
from references import OrderedPartition, cluster_stats, enumerate_partitions

# Mag;N, N = 1..4, from the 240-node spline and quad oracle that the exact
# recursion replaced, keyed by (L, t)
SPLINE_ORACLE = {
    (1.0, 1.0): (0.49999999999957323, 1.2499999999997478, 0.704015069853244,
                 1.1044566228204342),
    (0.5, 1.0): (0.4999999999999831, 0.9999999999999875, 0.6741836675359067,
                 0.8875166481166901),
    (2.0, 1.0): (0.499999999991267, 1.749999999996776, 0.7330830895888787,
                 1.5656561845190273),
    (1.0, 0.5): (0.1967346701436159, 1.4179593142096778, 0.29202042679081686,
                 1.3336705138395841),
}


def scaled_weight_magnitude(space, t: float, c: float) -> float:
    """Mag with measure c*mu_w, 0 < c < 1: each leg integrates to c under
    c*mu_w, so a_n = c^{n+1} mu_w(X) and the alternating series sums to
    c/(1+c) * mu_w(X)."""
    return c / (1.0 + c) * wm.homogeneous_weight_mass(space, t)


def weight_identity_residual(space, t: float) -> float:
    """max |int exp(-t*d(x,y)) dmu_w - 1| over basepoints y.

    The interval weight measure is checked pointwise on a 16-point grid,
    with t = 1 the scale at which the identity holds.  On the circle and the
    sphere the identity holds at every t, and the polar leg integral, the
    same at every basepoint by symmetry, comes from independent quadrature.
    """
    if isinstance(space, Interval):
        y = np.linspace(0.0, space.length, 16)
        ends = np.exp(-t * y) + np.exp(-t * (space.length - y))
        return float(np.abs(0.5 * (2.0 - ends) / t + 0.5 * ends - 1.0).max())
    r = space.r
    if isinstance(space, Circle):
        leg, _ = integrate.quad(lambda th: math.exp(-t * r * min(th, 2 * math.pi - th)) * r,
                                0.0, 2 * math.pi, points=[math.pi], limit=100, epsabs=1e-12)
    else:
        leg, _ = integrate.quad(lambda th: math.exp(-t * r * th) * 2 * math.pi * r**2
                                * math.sin(th), 0.0, math.pi, limit=100, epsabs=1e-12)
    return abs(wm.homogeneous_weight_mass(space, t) / space.total_mass * leg - 1.0)


class TestHomogeneousWeights:
    def test_circle_constant(self):
        r, t = 1.0, 1.0
        expected = t / (2 * (1 - math.exp(-t * math.pi * r)))
        space = Circle(r)
        assert wm.homogeneous_weight_mass(space, t) / space.total_mass == pytest.approx(
            expected, rel=1e-12)

    def test_sphere_constant(self):
        r, t = 1.0, 1.0
        expected = (t**2 * r**2 + 1) / (2 * math.pi * r**2 * (1 + math.exp(-t * math.pi * r)))
        space = Sphere2(r)
        assert wm.homogeneous_weight_mass(space, t) / space.total_mass == pytest.approx(
            expected, rel=1e-12)

    @pytest.mark.parametrize("space", [Circle(1.0), Sphere2(1.0)])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_weight_identity(self, space, t):
        # integral of c e^{-t d(x,y)} dmu(y) = 1 for every x, by homogeneity
        assert weight_identity_residual(space, t) < 1e-9

    def test_interval_weight_identity(self):
        assert weight_identity_residual(Interval(0.0, 1.0, "weight"), 1.0) < 1e-9

    def test_scaled_magnitude(self):
        # a_n = (c c_tilde)^{n+1} Vol(X) J(t)^n under c * c_tilde * dvol, with
        # the catalog's leg integral J; the series to order 60 is summed
        t, c = 1.0, 0.25
        for space, leg in ((Circle(1.0), cf.circle_leg_integral),
                           (Sphere2(1.0), cf.sphere_leg_integral)):
            scale = c * wm.homogeneous_weight_mass(space, t) / space.total_mass
            terms = [scale ** (n + 1) * space.total_mass * leg(space.r, t) ** n
                     for n in range(61)]
            assert math.fsum((-1) ** n * a for n, a in enumerate(terms)) == pytest.approx(
                scaled_weight_magnitude(space, t, c), rel=1e-12)


#: the largest order whose compositions the tests enumerate: 2^15 of them
#: in all, against 2^21 (8.7 s) up to MAX_N
ENUMERATED_N = 14


@cache
def composition_stats(n):
    """Counter of (f, g, rep) over the compositions of n + 1 with a part >= 2,
    rep the sum of the parts >= 2."""
    return Counter((*cluster_stats(lam), sum(p for p in lam.parts if p >= 2))
                   for lam in enumerate_partitions(n))


class TestPartitions:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_excluding_all_ones(self, n):
        # compositions of n+1 other than (1,...,1): 2^n - 1
        assert len(enumerate_partitions(n)) == 2**n - 1

    def test_cluster_stats_examples(self):
        assert cluster_stats(OrderedPartition((2, 1))) == (1, 0)
        assert cluster_stats(OrderedPartition((2, 2))) == (1, 1)
        assert cluster_stats(OrderedPartition((2, 1, 2))) == (2, 0)
        assert cluster_stats(OrderedPartition((2, 2, 1, 3, 2))) == (2, 2)
        assert cluster_stats(OrderedPartition((2, 2, 1, 2, 2, 1, 2))) == (3, 2)

    def test_rejects_trivial_partition(self):
        with pytest.raises(ValueError):
            OrderedPartition((1, 1, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 9))
    def test_parts_sum_to_n_plus_one(self, n):
        for lam in enumerate_partitions(n):
            assert sum(lam.parts) == n + 1
            assert any(p >= 2 for p in lam.parts)

    def test_counted_coefficients_equal_the_enumeration(self):
        dp_plain, dp_scaled = (wm._composition_weights(ENUMERATED_N + 1, one) for one in (1, 2))
        for n in range(1, ENUMERATED_N + 1):
            # the rows also count the all-ones composition: f = g = rep = 0
            plain, mass = Counter({0: 1}), Counter({0: 1})
            for (f, g, rep), count in composition_stats(n).items():
                plain[g] += count * 2**f
                mass[g] += Fraction(count * 2**f, 2**rep)
            assert {g: c for g, c in enumerate(dp_plain[n + 1]) if c} == plain
            assert {g: Fraction(c, 2 ** (n + 1))
                    for g, c in enumerate(dp_scaled[n + 1]) if c} == mass


def enumerated_partition_sum(N, L, t):
    """The composition formulas summed term by term over every composition."""
    mass = 1.0 + L / 2.0
    verbatim = corrected = mass
    for n in range(1, N + 1):
        s_plain = s_mass = 0.0
        for lam in enumerate_partitions(n):
            f, g = cluster_stats(lam)
            term = 2.0**f * math.exp(-t * L * g)
            s_plain += term
            s_mass += term * 0.5 ** sum(p for p in lam.parts if p >= 2)
        verbatim -= (-1.0) ** n * s_plain
        corrected += (-1.0) ** n * (mass - s_mass)
    return verbatim, corrected


@pytest.mark.parametrize("N, L, t", [(4, 1.0, 1.0), (12, 1.0, 1.0), (12, 2.0, 0.5)])
def test_counted_formulas_print_the_enumerated_digits(N, L, t):
    counted = wm.interval_weight_partition_sum(N, L, t)[-1]
    assert [f"{x:.12g}" for x in counted] == [
        f"{x:.12g}" for x in enumerated_partition_sum(N, L, t)]


class TestIntervalWeightTable:
    def test_bruteforce_first_order_is_half(self):
        for L in (0.5, 1.0, 2.0):
            assert wm.interval_weight_bruteforce(1, L, 1.0)[1] == pytest.approx(
                0.5, abs=1e-9)

    def test_bruteforce_matches_kernel_quadrature_first_order(self):
        L, t = 1.0, 1.0
        [(_, corrected)] = wm.interval_weight_partition_sum(1, L, t)
        assert corrected == pytest.approx(wm.interval_weight_bruteforce(1, L, t)[1],
                                          abs=1e-8)

    def test_report_rows_and_residual(self):
        rows = wm.interval_weight_report(2, 1.0, 1.0, samples=50_000, seed=0)
        assert [r.N for r in rows] == [1, 2]
        r2 = rows[1]
        # brute force agrees with sampling; the partition formulas do not
        assert abs(r2.bruteforce - r2.mc_estimate) < 4 * r2.mc_stderr
        assert abs(r2.paper_formula - r2.bruteforce) > 0.1
        assert abs(r2.corrected_formula - r2.bruteforce) > 0.1

    @pytest.mark.parametrize("L", [50.0, 1e8])
    def test_partition_sum_where_t_L_overflows(self, L):
        # at g = 0 the decay is exactly 1, even where t L * 0 is inf * 0; past
        # t L = 1e4 every other decay is 0, so t = 1e300 gives the same sums
        assert wm.interval_weight_partition_sum(3, L, 1.7e308) == (
            wm.interval_weight_partition_sum(3, L, 1e300))

    @pytest.mark.parametrize("L, t", list(SPLINE_ORACLE))
    def test_bruteforce_matches_spline_oracle(self, L, t):
        exact = wm.interval_weight_bruteforce(4, L, t)
        for N, spline in enumerate(SPLINE_ORACLE[L, t], start=1):
            assert exact[N] == pytest.approx(spline, abs=1e-10)

    @pytest.mark.parametrize("L, t", [(1.0, 1.0), (2.0, 0.5)])
    def test_bruteforce_matches_sampling_beyond_order_four(self, L, t):
        spec = mc.SamplerSpec(Interval(0.0, L, "weight"), seed=5, samples=200_000)
        series = mc.estimate_partial_magnitude(spec, t, 8)
        exact = wm.interval_weight_bruteforce(8, L, t)
        for N in range(5, 9):
            assert abs(exact[N] - series.partial_sums[N]) < 4 * series.errors[N]


@pytest.mark.parametrize("L, t", [(1.0, 1.0), (7.3, 0.5), (50.0, 2.0), (1e-3, 1e-3)])
def test_report_runs_one_recursion_and_prints_the_per_order_digits(monkeypatch, L, t):
    """The table to MAX_N runs the transfer recursion once, and its exact
    columns print the digits of evaluating each order on its own: the
    composition formulas summed exactly over the enumerated compositions (to
    ENUMERATED_N), and the alternating sum of interval_chain_terms(N)."""
    calls, chain_terms = [], cf.interval_chain_terms

    def counted(*args):
        calls.append(args)
        return chain_terms(*args)

    monkeypatch.setattr(cf, "interval_chain_terms", counted)
    wm._kernel_cache.cache_clear()
    rows = wm.interval_weight_report(wm.MAX_N, L, t, samples=2000, seed=0)
    assert len(calls) == 1 and [r.N for r in rows] == list(range(1, wm.MAX_N + 1))

    def digits(*xs):
        return [f"{float(x):.12g}" for x in xs]

    mass = Fraction(1.0 + L / 2.0)
    verbatim = corrected = mass
    for r in rows:
        n = r.N
        chain = chain_terms(n, t, L, 0.5, 0.5)
        assert digits(r.bruteforce) == digits(sum((-1.0) ** k * a for k, a in enumerate(chain)))
        if n > ENUMERATED_N:
            continue
        plain = atom_mass = Fraction(0)
        for (f, g, rep), count in composition_stats(n).items():
            term = count * 2**f * Fraction(math.exp(-t * L * g))
            plain += term
            atom_mass += term / 2**rep
        verbatim -= (-1) ** n * plain
        corrected += (-1) ** n * (mass - atom_mass)
        assert digits(r.paper_formula, r.corrected_formula) == digits(verbatim, corrected)
