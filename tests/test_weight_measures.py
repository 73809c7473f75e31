import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnilab import mc, weight_measures as wm
from magnilab.spaces import Circle, Interval, Sphere2

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


class TestHomogeneousWeights:
    def test_circle_constant(self):
        r, t = 1.0, 1.0
        expected = t / (2 * (1 - math.exp(-t * math.pi * r)))
        assert wm.homogeneous_weight_constant(Circle(r), t) == pytest.approx(
            expected, rel=1e-12)

    def test_sphere_constant(self):
        r, t = 1.0, 1.0
        expected = (t**2 * r**2 + 1) / (2 * math.pi * r**2 * (1 + math.exp(-t * math.pi * r)))
        assert wm.homogeneous_weight_constant(Sphere2(r), t) == pytest.approx(
            expected, rel=1e-12)

    @pytest.mark.parametrize("space", [Circle(1.0), Sphere2(1.0)])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_weight_identity(self, space, t):
        # integral of c e^{-t d(x,y)} dmu(y) = 1 for every x, by homogeneity
        assert wm.weight_identity_residual(space, t) < 1e-9

    def test_interval_weight_identity(self):
        assert wm.weight_identity_residual(Interval(0.0, 1.0, "weight"), 1.0) < 1e-9

    def test_scaled_magnitude(self):
        space = Circle(1.0)
        mass = wm.homogeneous_weight_mass(space, 1.0)
        c = 0.25
        assert wm.scaled_weight_magnitude(space, 1.0, c) == pytest.approx(
            c / (1 + c) * mass, rel=1e-12)
        assert wm.balanced_magnitude(0.5) == pytest.approx(1.0 / 1.5)


class TestPartitions:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_excluding_all_ones(self, n):
        # compositions of n+1 other than (1,...,1): 2^n - 1
        assert len(wm.enumerate_partitions(n)) == 2**n - 1

    def test_cluster_stats_examples(self):
        assert wm.cluster_stats(wm.OrderedPartition((2, 1))) == (1, 0)
        assert wm.cluster_stats(wm.OrderedPartition((2, 2))) == (1, 1)
        assert wm.cluster_stats(wm.OrderedPartition((2, 1, 2))) == (2, 0)
        assert wm.cluster_stats(wm.OrderedPartition((2, 2, 1, 3, 2))) == (2, 2)
        assert wm.cluster_stats(
            wm.OrderedPartition((2, 2, 1, 2, 2, 1, 2))) == (3, 2)

    def test_rejects_trivial_partition(self):
        with pytest.raises(ValueError):
            wm.OrderedPartition((1, 1, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 9))
    def test_parts_sum_to_n_plus_one(self, n):
        for lam in wm.enumerate_partitions(n):
            assert sum(lam.parts) == n + 1
            assert any(p >= 2 for p in lam.parts)


class TestIntervalWeightTable:
    def test_bruteforce_first_order_is_half(self):
        for L in (0.5, 1.0, 2.0):
            assert wm.interval_weight_bruteforce(1, L, 1.0) == pytest.approx(
                0.5, abs=1e-9)

    def test_bruteforce_matches_kernel_quadrature_first_order(self):
        L, t = 1.0, 1.0
        _, corrected = wm.interval_weight_partition_sum(1, L, t)
        assert corrected == pytest.approx(wm.interval_weight_bruteforce(1, L, t),
                                          abs=1e-8)

    def test_report_rows_and_residual(self):
        rows = wm.interval_weight_report(2, 1.0, 1.0, samples=50_000, seed=0)
        assert [r.N for r in rows] == [1, 2]
        r2 = rows[1]
        # brute force agrees with sampling; the partition formulas do not
        assert abs(r2.bruteforce - r2.mc_estimate) < 4 * r2.mc_stderr
        assert abs(r2.paper_formula - r2.bruteforce) > 0.1
        assert abs(r2.corrected_formula - r2.bruteforce) > 0.1

    @pytest.mark.parametrize("L, t", list(SPLINE_ORACLE))
    def test_bruteforce_matches_spline_oracle(self, L, t):
        for N, spline in enumerate(SPLINE_ORACLE[L, t], start=1):
            assert wm.interval_weight_bruteforce(N, L, t) == pytest.approx(spline, abs=1e-10)

    @pytest.mark.parametrize("L, t", [(1.0, 1.0), (2.0, 0.5)])
    def test_bruteforce_matches_sampling_beyond_order_four(self, L, t):
        spec = mc.SamplerSpec(Interval(0.0, L, "weight"), seed=5, samples=200_000)
        series = mc.estimate_partial_magnitude(spec, t, 8)
        errs = series.partial_sum_errors()
        for N in range(5, 9):
            assert abs(wm.interval_weight_bruteforce(N, L, t)
                       - series.partial_sums[N]) < 4 * errs[N]
