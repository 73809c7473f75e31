import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from magnilab import closed_forms as cf
from magnilab import mc
from magnilab.spaces import (Circle, Interval, LineGaussian, LineLaplace,
                             Sphere2)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("MAGNILAB_THREADS", "3")
    assert mc.worker_count() == 3
    monkeypatch.setenv("MAGNILAB_THREADS", "0")
    assert mc.worker_count() >= 1


def test_estimate_is_seed_deterministic():
    spec = mc.SamplerSpec(Circle(1.0), seed=5, samples=100_000)
    a = mc.estimate_term(spec, 2, 1.0)
    b = mc.estimate_term(spec, 2, 1.0)
    assert a.value == b.value and a.std_error == b.std_error


def test_estimate_independent_of_thread_count():
    """Bit-identical results whatever MAGNILAB_THREADS says."""
    code = (
        "from magnilab import mc; from magnilab.spaces import Circle; "
        "e = mc.estimate_term(mc.SamplerSpec(Circle(1.0), seed=3, samples=300000), 2, 1.0); "
        "print(repr(e.value), repr(e.std_error))"
    )
    outs = []
    for threads in ("1", "4"):
        env = dict(os.environ, MAGNILAB_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True).stdout)
    assert outs[0] == outs[1] and outs[0].strip()


@pytest.mark.parametrize("space,closed", [
    (Circle(1.0), lambda t: cf.circle_term(1, 1.0, t)),
    (Sphere2(1.0), lambda t: cf.sphere_term(1, 1.0, t)),
    (LineLaplace(), cf.laplace_line_first_term),
    (LineGaussian(), cf.gaussian_line_first_term),
    (Interval(0.0, 1.0, "lebesgue"), lambda t: cf.interval_term(1, t, 1.0)),
])
def test_first_term_within_four_sigma(space, closed):
    t = 1.0
    est = mc.estimate_term(mc.SamplerSpec(space, seed=1, samples=400_000), 1, t)
    assert abs(est.value - closed(t)) < 4 * est.std_error


def test_common_random_numbers_on_grid():
    # three batches, so the per-batch sums are combined across batches
    spec = mc.SamplerSpec(Circle(1.0), seed=2, samples=600_000)
    grid = [1.0, 2.0, 3.0]
    est = mc.estimate_term(spec, 2, grid)
    singles = [mc.estimate_term(spec, 2, t) for t in grid]
    assert len(est.value) == len(est.std_error) == len(grid)
    for value, std_error, s in zip(est.value, est.std_error, singles):
        # same sample stream reused across the grid
        assert (value, std_error) == (s.value, s.std_error)
        assert est.proper_fraction == s.proper_fraction


def test_engine_matches_serial_reference_loop(monkeypatch):
    """Threaded grid and histogram equal a serial loop over the (order, batch)
    streams, with per-batch sums combined by fsum in batch order."""
    monkeypatch.setenv("MAGNILAB_THREADS", "2")
    n, grid, edges = 2, [0.5, 2.0], np.linspace(0.0, 2 * math.pi, 9)
    spec = mc.SamplerSpec(Sphere2(1.0), seed=4, samples=2 * mc.BATCH_SIZE + 1000)
    sums, sqs, counts = {t: [] for t in grid}, {t: [] for t in grid}, 0
    for idx, m in enumerate([mc.BATCH_SIZE, mc.BATCH_SIZE, 1000]):
        total, proper = mc._chain_batch(spec, mc._stream(spec, n, idx), n, m)
        counts = counts + np.histogram(total[proper], bins=edges)[0]
        for t in grid:
            vals = np.exp(-t * total) * proper
            sums[t].append(float(vals.sum()))
            sqs[t].append(float((vals * vals).sum()))
    scale = spec.total_mass ** (n + 1)
    est = mc.estimate_term(spec, n, grid)
    for t, value, std_error in zip(grid, est.value, est.std_error):
        mean = math.fsum(sums[t]) / spec.samples
        var = max(math.fsum(sqs[t]) / spec.samples - mean * mean, 0.0)
        assert value == scale * mean
        assert std_error == scale * math.sqrt(var / spec.samples)
    _, density = mc.estimate_length_density(spec, n, 8, 2 * math.pi)
    assert np.array_equal(density, counts * scale / (spec.samples * (edges[1] - edges[0])))


def test_sphere_distance_matches_three_vector_reference():
    """The (z, phi) cosine equals the dot product of the unit 3-vectors."""
    r, m = 2.0, 1_000_000
    spec = mc.SamplerSpec(Sphere2(r))
    rng = np.random.default_rng(11)
    p, q = mc.sample_batch(spec, rng, m).coords, mc.sample_batch(spec, rng, m).coords
    dist = mc.geodesic_distance(spec.space, p, q)

    def unit_vectors(rows):
        z, s, phi = rows
        return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])

    cos_ref = np.clip(np.einsum("ij,ij->i", unit_vectors(p), unit_vectors(q)), -1.0, 1.0)
    assert np.max(np.abs(np.cos(dist / r) - cos_ref)) <= 2e-15
    assert np.max(np.abs(dist - r * np.arccos(cos_ref))) <= 1e-9


def test_tail_bound_controls_truncation():
    spec = mc.SamplerSpec(Circle(1.0), seed=0, samples=100_000)
    t = 3.0  # leg-integral ratio < 1 here
    bound = mc.tail_bound(spec, t, 4)
    assert bound is not None and bound > 0
    # by homogeneity a_5 = 2 pi J^5; the geometric tail dominates it
    a5 = 2 * math.pi * cf.circle_leg_integral(1.0, t) ** 5
    assert bound > a5 - 1e-12
    # divergent regime yields no bound
    assert mc.tail_bound(spec, 0.05, 4) is None


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
        c = mc.leg_integral_bound(mc.SamplerSpec(space), t)
        assert c == pytest.approx(leg(0.0, t), rel=1e-8)
        assert max(leg(y, t) for y in np.linspace(-3.0, 3.0, 25)) <= c * (1 + 1e-12)


def test_length_density_histogram_matches_closed_form():
    spec = mc.SamplerSpec(Circle(1.0), seed=4, samples=400_000)
    edges, density = mc.estimate_length_density(spec, 1, 16, math.pi)
    centers = 0.5 * (edges[:-1] + edges[1:])
    exact = cf.circle_length_density(1, 1.0, centers)
    # coarse histogram: agree within a few percent everywhere
    assert np.max(np.abs(density - exact) / exact) < 0.05


def test_interval_weight_sampler_mass_split():
    space = Interval(0.0, 2.0, "weight")
    spec = mc.SamplerSpec(space, seed=0, samples=200_000)
    est = mc.estimate_term(spec, 1, 1.0)
    assert est.std_error > 0
    assert 0 < est.proper_fraction <= 1
