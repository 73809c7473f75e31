"""End-to-end acceptance checks with pinned tolerances.

Each test class corresponds to one criterion in the project's verification
checklist: closed forms for the 4-cycle, Monte-Carlo agreement on the model
spaces, the weight-measure identities, the boundary-weight interval table,
scaling identities, CLI determinism, and the minimal-energy demonstration.
"""
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate

from magnilab import (closed_forms as cf, empirical, finite_mag, graph_mag,
                      mc, weight_measures as wm)
from magnilab.spaces import (Circle, FiniteMetricSpace, FlatTorusUnit,
                             GeodesicGraph, Interval, LineGaussian,
                             LineLaplace, Sphere2, graph_metric)
from references import (OrderedPartition, cluster_stats, enumerate_partitions,
                        interval_first_partial, laplace_line_first_partial,
                        rescaling_identity_residual, shift_metric, torus_arccos_bounds)

FOUR_CYCLE = GeodesicGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)))
FOUR_CYCLE_DIAG = GeodesicGraph(
    4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 2.0)))


def within_sigma(value, target, std_error, k=4.0):
    assert std_error > 0
    assert abs(value - target) < k * std_error, (
        f"{value} vs {target}: {abs(value - target) / std_error:.2f} sigma")


class TestFourCycleClassical:
    """Criterion 1: linear solve and Neumann series on the unit 4-cycle."""

    @staticmethod
    def closed(t):
        e = math.exp(t)
        return 4 * e**2 / (1 + e) ** 2

    def test_linear_solve_matches_closed_form(self):
        m = graph_metric(FOUR_CYCLE)
        for t in (1.2, 2.0, 3.0, 5.0):
            got = finite_mag.classical_magnitude(finite_mag.similarity(m.dist, t))
            assert got == pytest.approx(self.closed(t), rel=1e-10)

    def test_neumann_series_n60(self):
        m = graph_metric(FOUR_CYCLE)
        start = time.perf_counter()
        for t in (1.2, 2.0, 3.0, 5.0):
            series = finite_mag.neumann_partial(finite_mag.similarity(m.dist, t), 60)
            assert series.partial_sums[60] == pytest.approx(
                self.closed(t), abs=1e-8)
        assert time.perf_counter() - start < 1.0


class TestFourCycleCounted:
    """Criterion 2: geodesic-counted similarity on the 4-cycle variants."""

    def test_counted_closed_form(self):
        for t in (1.5, 2.0, 4.0):
            e = math.exp(t)
            expected = 4 * e**2 * (1 + (1 - e) ** 2) / (4 + e**4)
            assert graph_mag.tilde_magnitude(FOUR_CYCLE, t) == pytest.approx(
                expected, rel=1e-10)

    def test_counted_with_diagonal_closed_form(self):
        """The diagonal graph's counted magnitude, against the closed form
        obtained by symbolically inverting the counted similarity matrix
        (counts 3 across the diagonal, 2 across the other pair).  The prior
        printed form has a constant-term slip in the numerator; its exact
        residual is pinned below so the discrepancy stays visible."""
        for t in (1.5, 2.0, 4.0):
            e = math.exp(t)
            denom = 6 + e**2 + e**4
            expected = 2 * e**2 * (2 * e**2 - 4 * e + 5) / denom
            got = graph_mag.tilde_magnitude(FOUR_CYCLE_DIAG, t)
            assert got == pytest.approx(expected, rel=1e-10)
            published = 4 * e**2 * (2 - 2 * e + e**2) / denom
            assert got - published == pytest.approx(2 * e**2 / denom, rel=1e-9)

    def test_same_metric_different_counts_at_t2(self):
        t = 2.0
        classical_a, classical_b = (
            finite_mag.classical_magnitude(finite_mag.similarity(graph_metric(g).dist, t))
            for g in (FOUR_CYCLE, FOUR_CYCLE_DIAG))
        assert classical_a == pytest.approx(classical_b, rel=1e-12)
        tilde_a = graph_mag.tilde_magnitude(FOUR_CYCLE, t)
        tilde_b = graph_mag.tilde_magnitude(FOUR_CYCLE_DIAG, t)
        assert abs(tilde_a - tilde_b) > 1e-3


class TestCircleSampling:
    """Criterion 3: chain sampling on the unit circle vs the catalog."""

    def test_terms_within_four_sigma(self):
        start = time.perf_counter()
        for n in (1, 2, 3):
            for t in (1.0, 2.0):
                spec = mc.SamplerSpec(Circle(1.0), seed=0, samples=1_000_000)
                value, std_error = mc.estimate_term(spec, n, [t]).term(n, 0, spec.total_mass)
                within_sigma(value, cf.circle_term(n, 1.0, t), std_error)
        assert time.perf_counter() - start < 60.0

    def test_three_chain_catalog_vs_simplex_quadrature(self):
        for t in (1.0, 2.0):
            assert abs(cf.circle_term(3, 1.0, t)
                       - cf.circle_term_quadrature(3, 1.0, t)) < 1e-6


class TestSphereSampling:
    """Criterion 4: chain sampling on the unit 2-sphere vs the catalog."""

    def test_terms_within_four_sigma(self):
        start = time.perf_counter()
        for n in (1, 2):
            for t in (1.0, 2.0):
                spec = mc.SamplerSpec(Sphere2(1.0), seed=0, samples=10_000_000)
                value, std_error = mc.estimate_term(spec, n, [t]).term(n, 0, spec.total_mass)
                within_sigma(value, cf.sphere_term(n, 1.0, t), std_error)
        assert time.perf_counter() - start < 120.0


class TestFlatTorus:
    """Criterion 5: first term quadrature, elementary brackets, level sets."""

    def test_first_term_vs_two_dim_sampling(self):
        for t in (1.0, 5.0, 10.0):
            spec = mc.SamplerSpec(FlatTorusUnit(), seed=0, samples=1_000_000)
            value, std_error = mc.estimate_term(spec, 1, [t]).term(1, 0, spec.total_mass)
            within_sigma(value, cf.torus_first_term(t), std_error)

    @pytest.mark.parametrize("t", [5.0, 10.0, 20.0])
    def test_brackets_bound_cut_locus_integral(self, t):
        lo, hi = torus_arccos_bounds(t)
        mid = cf.torus_arccos_integral(t)
        assert lo <= mid <= hi
        # and through the identity, the first term itself is bracketed
        assert cf.torus_first_term(t) == pytest.approx(
            cf.torus_first_term_identity(t), rel=1e-8)

    def test_level_perimeter_continuity_and_vanishing(self):
        # both branch formulas agree at the corner radius 1/2 ...
        inner = 2 * math.pi * 0.5
        outer = 0.5 * (2 * math.pi - 8 * math.acos(1.0))
        assert abs(inner - outer) <= 1e-12
        assert abs(cf.torus_level_volume(0.5) - inner) <= 1e-12
        # ... and the perimeter vanishes at the diameter 1/sqrt(2)
        assert abs(cf.torus_level_volume(cf.TORUS_R)) <= 1e-12


class TestIntervalLebesgue:
    """Criterion 6: the boundary-kernel recursion on [0, L]."""

    CASES = ((1.0, 2.0), (2.0, 3.0))

    def test_first_partial_closed_form_exact(self):
        # Mag;1 = mu(X) - a_1, with a_1 from the boundary-kernel recursion
        for L, t in self.CASES:
            assert interval_first_partial(t, L) == pytest.approx(
                L - cf.interval_term(1, t, L), rel=1e-12)

    @pytest.mark.parametrize("L,t", CASES)
    def test_recursion_vs_nested_quadrature(self, L, t):
        # the integrands are kinked at x = y and y = z; split the domains
        # there so that quad sees a smooth integrand on every piece
        y_pieces = ((0, lambda x: x), (lambda x: x, L))
        z_pieces = ((0, lambda x, y: y), (lambda x, y: y, L))
        one = sum(integrate.dblquad(lambda y, x: math.exp(-t * abs(x - y)), 0, L, lo, hi,
                                    epsabs=1e-10, epsrel=1e-10)[0] for lo, hi in y_pieces)
        assert abs(cf.interval_term(1, t, L) - one) < 1e-6

        two = sum(integrate.tplquad(
            lambda z, y, x: math.exp(-t * (abs(x - y) + abs(y - z))),
            0, L, y_lo, y_hi, z_lo, z_hi, epsabs=1e-8, epsrel=1e-8)[0]
            for y_lo, y_hi in y_pieces for z_lo, z_hi in z_pieces)
        assert abs(cf.interval_term(2, t, L) - two) < 1e-6

    @pytest.mark.parametrize("L,t", CASES)
    def test_three_chain_vs_sampling(self, L, t):
        spec = mc.SamplerSpec(Interval(0.0, L, "lebesgue"), seed=0, samples=1_000_000)
        value, std_error = mc.estimate_term(spec, 3, [t]).term(3, 0, spec.total_mass)
        within_sigma(value, cf.interval_term(3, t, L), std_error)


class TestWeightedLines:
    """Criterion 7: Laplace-weight and Gaussian-weight lines."""

    def test_laplace_first_partial(self):
        # Mag;1 = mu(X) - a_1, with a_1 by quadrature of the length density
        for t in (1.0, 2.0, 5.0):
            assert laplace_line_first_partial(t) == pytest.approx(
                LineLaplace().total_mass - cf.laplace_line_first_term_quadrature(t), abs=1e-8)

    def test_gaussian_first_term_sampling_and_flag(self):
        for t in (1.0, 2.0):
            spec = mc.SamplerSpec(LineGaussian(), seed=0, samples=1_000_000)
            value, std_error = mc.estimate_term(spec, 1, [t]).term(1, 0, spec.total_mass)
            within_sigma(value, cf.gaussian_line_first_term(t), std_error)
            # the prior closed-form value disagrees by far more than 4 sigma
            published = cf.gaussian_line_first_term_published(t)
            assert abs(value - published) > 4 * std_error

    def test_gaussian_second_term_reduced_vs_sampling(self):
        t = 2.0
        spec = mc.SamplerSpec(LineGaussian(), seed=0, samples=2_000_000)
        value, std_error = mc.estimate_term(spec, 2, [t]).term(2, 0, spec.total_mass)
        within_sigma(value, cf.gaussian_line_second_term(t), std_error)


class TestWeightMeasures:
    """Criterion 8: self-similar weight measures on circle and sphere."""

    @pytest.mark.parametrize("space,samples", [
        (Circle(1.0), 400_000), (Sphere2(1.0), 400_000)])
    def test_partial_sum_pattern(self, space, samples):
        t = 1.0
        mass = wm.homogeneous_weight_mass(space, t)
        (series,) = wm.weight_partial_magnitude_check(space, [t], 4, samples, seed=0)
        assert series.total_mass == pytest.approx(mass, abs=1e-12)
        targets = [mass, 0.0, mass, 0.0, mass]
        rows = list(zip(series.partial_sums, series.errors, targets, strict=True))
        for k, (value, std_error, target) in enumerate(rows):
            if k == 0:
                assert value == pytest.approx(target, rel=1e-12)
            else:
                within_sigma(value, target, std_error)

    def test_scaled_weight_geometric_series(self):
        space, t, c, N = Circle(1.0), 1.0, 0.25, 12
        mass = wm.homogeneous_weight_mass(space, t)
        spec = mc.SamplerSpec(space, seed=0, samples=200_000)
        # the measure c * c_tilde * dvol, of total mass c * mass, samples as dvol does
        series = mc.estimate_term(spec, N, [t]).series(0, c * mass)
        # finite geometric sum c mu (1 - (-c)^{N+1})/(1 + c)
        target = c * mass * (1 - (-c) ** (N + 1)) / (1 + c)
        sigma = series.errors[-1]
        within_sigma(series.partial_sums[-1], target, sigma)


class TestIntervalWeightTable:
    """Criterion 9: boundary-weight interval, brute force vs the composition
    formulas.  The formulas reproduce Mag;1 but depart from the exact
    pattern expansion at N >= 2; the table records those residuals."""

    def test_brute_force_first_order_half(self):
        for L in (0.5, 1.0, 2.0):
            assert wm.interval_weight_bruteforce(1, L, 1.0)[1] == pytest.approx(
                0.5, abs=1e-9)

    def test_composition_counts(self):
        for n in range(1, 13):
            assert len(enumerate_partitions(n)) == 2**n - 1

    def test_cluster_statistics(self):
        assert cluster_stats(OrderedPartition((2, 2, 1, 2, 2, 1, 2))) == (3, 2)
        assert cluster_stats(OrderedPartition((2, 2, 2, 1, 2, 2))) == (2, 3)

    def test_table_emitted_with_documented_residuals(self):
        rows = wm.interval_weight_report(3, 1.0, 1.0, samples=200_000, seed=0)
        assert [r.N for r in rows] == [1, 2, 3]
        # order 1: all three columns coincide
        r1 = rows[0]
        assert abs(r1.corrected_formula - r1.bruteforce) < 1e-8
        for r in rows:
            # the brute-force oracle tracks independent sampling throughout
            within_sigma(r.mc_estimate, r.bruteforce, r.mc_stderr)
        # orders >= 2: both composition formulas depart from the oracle;
        # the residuals are the table's finding, not a tolerance failure
        for r in rows[1:]:
            assert abs(r.paper_formula - r.bruteforce) > 1e-3
            assert abs(r.corrected_formula - r.bruteforce) > 1e-3


class TestScalingIdentity:
    """Criterion 10: shifting the metric by c is equivalent to scaling the
    measure by e^{-c}, term by term."""

    def test_random_spaces(self):
        rng = np.random.default_rng(2024)
        for trial in range(10):
            size = int(rng.integers(2, 9))
            pts = rng.normal(size=(size, 3)) * (0.5 + rng.random())
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            m = FiniteMetricSpace(d)
            for c in (0.3, 1.0, math.log(5.0)):
                shifted = shift_metric(m, c)
                lhs = finite_mag.neumann_partial(finite_mag.similarity(shifted.dist, 1.0), 6)
                rhs = finite_mag.neumann_partial(
                    finite_mag.similarity(m.dist, 1.0), 6, np.full(size, math.exp(-c)))
                for a, b in zip(lhs.terms, rhs.terms):
                    assert math.exp(-c) * a.value == pytest.approx(
                        b.value, abs=1e-12)


class TestCliDeterminism:
    """Criterion 11: byte-identical output for identical invocations,
    independent of the thread setting."""

    def test_byte_identical_output(self, tmp_path):
        args = [sys.executable, "-m", "magnilab.cli", "manifold",
                "--space", "circle", "--t-grid", "1", "2", "2", "--N", "2",
                "--samples", "300000", "--seed", "11", "--method", "all"]
        outputs = []
        for threads in ("1", "4", "1"):
            env = dict(os.environ, MAGNILAB_THREADS=threads)
            res = subprocess.run(args, capture_output=True, env=env)
            assert res.returncode == 0
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].startswith(b"t,N,")


class TestMinimalEnergyDemo:
    """Criterion 12: empirical measures on minimal-energy configurations
    approach the uniform-measure value, and the rescaling identity is exact."""

    def test_convergence_is_monotone(self):
        rows = empirical.fekete_convergence_experiment(
            1.0, (50, 100, 200, 400), 2, seed=0)
        devs = [r.abs_dev for r in rows]
        assert devs == sorted(devs, reverse=True), devs
        assert devs[-1] < devs[0] / 3

    def test_rescaling_identity(self):
        u = empirical.minimal_energy_configuration(100, seed=0)
        assert rescaling_identity_residual(u, 2) < 1e-12
