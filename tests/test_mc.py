import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from magnilab import closed_forms as cf
from magnilab import mc
from magnilab.spaces import (Circle, FlatTorusUnit, Interval, LineGaussian,
                             LineLaplace, Sphere2)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("MAGNILAB_THREADS", "3")
    assert mc.worker_count() == 3
    monkeypatch.setenv("MAGNILAB_THREADS", "0")
    assert mc.worker_count() >= 1


def test_worker_count_auto_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("MAGNILAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert mc.worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(12)), raising=False)
    assert mc.worker_count() == 8
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert mc.worker_count() == 2


def test_estimate_is_seed_deterministic():
    spec = mc.SamplerSpec(Circle(1.0), seed=5, samples=100_000)
    a = mc.estimate_term(spec, [2], [1.0]).term(0, 0, spec.total_mass)
    b = mc.estimate_term(spec, [2], [1.0]).term(0, 0, spec.total_mass)
    assert a == b


def test_estimate_independent_of_thread_count():
    """Bit-identical results whatever MAGNILAB_THREADS says."""
    code = (
        "from magnilab import mc; from magnilab.spaces import Circle; "
        "spec = mc.SamplerSpec(Circle(1.0), seed=3, samples=300000); "
        "print(*map(repr, mc.estimate_term(spec, [2], [1.0]).term(0, 0, spec.total_mass)))"
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
    spec = mc.SamplerSpec(space, seed=1, samples=400_000)
    value, std_error = mc.estimate_term(spec, [1], [t]).term(0, 0, spec.total_mass)
    assert abs(value - closed(t)) < 4 * std_error


def test_common_random_numbers_on_grid():
    # three batches, so the per-batch sums are combined across batches
    spec = mc.SamplerSpec(Circle(1.0), seed=2, samples=600_000)
    grid = [1.0, 2.0, 3.0]
    est = mc.estimate_term(spec, [2], grid)
    singles = [mc.estimate_term(spec, [2], [t]) for t in grid]
    assert est.mean.shape == (len(grid), 1)
    for i, s in enumerate(singles):
        # same sample stream reused across the grid
        assert est.term(0, i, spec.total_mass) == s.term(0, 0, spec.total_mass)
        assert est.proper_fraction == s.proper_fraction


def _serial_chains(spec, N):
    """Per batch, (prefix lengths, prefix proper indicators) of the chains:
    N + 1 points drawn in turn from the batch's stream, then the legs."""
    out = []
    for idx, start in enumerate(range(0, spec.samples, mc.BATCH_SIZE)):
        m = min(mc.BATCH_SIZE, spec.samples - start)
        ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(1, idx))
        rng = np.random.Generator(np.random.PCG64(ss))
        points = [mc.sample_batch(spec, rng, m) for _ in range(N + 1)]
        total, proper = np.zeros(m), np.ones(m, dtype=bool)
        lengths, propers = [], []
        for a, b in zip(points, points[1:]):
            total = total + mc.geodesic_distance(spec.space, a.coords, b.coords)
            if a.tags is not None:
                proper = proper & ~((a.tags > 0) & (a.tags == b.tags))
            lengths.append(total)
            propers.append(proper)
        out.append((lengths, propers))
    return out


def test_engine_matches_serial_reference_loop(monkeypatch):
    """Threaded grid, orders and histogram equal a serial loop over the batch
    streams, with per-batch sums combined by fsum in batch order."""
    monkeypatch.setenv("MAGNILAB_THREADS", "2")
    N, grid, edges = 2, [0.5, 2.0], np.linspace(0.0, 2 * math.pi, 9)
    spec = mc.SamplerSpec(Sphere2(1.0), seed=4, samples=2 * mc.BATCH_SIZE + 1000)
    sums, cross, counts = {}, {}, 0
    for lengths, propers in _serial_chains(spec, N):
        counts = counts + np.histogram(lengths[N - 1][propers[N - 1]], bins=edges)[0]
        for t in grid:
            vals = [np.exp(-t * total) * proper for total, proper in zip(lengths, propers)]
            for j in range(N):
                sums.setdefault((t, j), []).append(float(vals[j].sum()))
                for k in range(N):
                    cross.setdefault((t, j, k), []).append(float((vals[j] * vals[k]).sum()))
    est = mc.estimate_term(spec, range(1, N + 1), grid)
    single = mc.estimate_term(spec, [N], grid)
    for i, t in enumerate(grid):
        for j in range(N):
            mean = math.fsum(sums[t, j]) / spec.samples
            assert est.mean[i, j] == mean
            for k in range(N):
                assert est.moment[i, j, k] == math.fsum(cross[t, j, k]) / spec.samples
            var = max(math.fsum(cross[t, j, j]) / spec.samples - mean * mean, 0.0)
            scale = spec.total_mass ** (j + 2)
            assert est.term(j, i, spec.total_mass) == (
                scale * mean, scale * math.sqrt(var / spec.samples))
        # an order's estimate does not depend on the other orders asked for
        assert single.term(0, i, spec.total_mass) == est.term(N - 1, i, spec.total_mass)
    scale = spec.total_mass ** (N + 1)
    _, density, _ = mc.estimate_length_density(spec, N, 8, 2 * math.pi)
    assert np.array_equal(density, counts * scale / (spec.samples * (edges[1] - edges[0])))


def test_partial_sum_errors_match_per_chain_alternating_sums():
    """The cross-moment errors equal those of the per-chain alternating sums
    s_k = sum_{n<=k} (-1)^n mu^{n+1} v_n.  The two round differently, so they
    agree to a relative 1e-9, far below any statistical meaning."""
    N, t = 6, 1.0
    spec = mc.SamplerSpec(Interval(0.0, 1.0, "weight"), seed=7, samples=mc.BATCH_SIZE + 5000)
    mass = spec.total_mass
    sums, sqs = [[] for _ in range(N)], [[] for _ in range(N)]
    for lengths, propers in _serial_chains(spec, N):
        s = np.zeros(len(lengths[0]))
        for k, (total, proper) in enumerate(zip(lengths, propers)):
            s = s + (-1.0) ** (k + 1) * mass ** (k + 2) * (np.exp(-t * total) * proper)
            sums[k].append(float(s.sum()))
            sqs[k].append(float((s * s).sum()))
    series = mc.estimate_partial_magnitude(spec, t, N)
    errors = series.partial_sum_errors()
    assert errors[0] == 0.0
    quadrature = 0.0
    for k in range(N):
        mean = math.fsum(sums[k]) / spec.samples
        var = math.fsum(sqs[k]) / spec.samples - mean * mean
        assert series.partial_sums[k + 1] == pytest.approx(mass + mean, rel=1e-12)
        assert errors[k + 1] == pytest.approx(math.sqrt(var / spec.samples), rel=1e-9)
        quadrature = math.hypot(quadrature, series.terms[k].std_error)
    # consecutive terms are positively correlated, so their alternating sum
    # varies less than independent terms would
    assert errors[N] < quadrature


def test_multi_order_estimate_independent_of_thread_count():
    code = (
        "from magnilab import mc; from magnilab.spaces import Interval; "
        "e = mc.estimate_term(mc.SamplerSpec(Interval(0.0, 1.0, 'weight'), seed=3, "
        "samples=600000), range(1, 4), [0.5, 2.0]); "
        "print(e.mean.tolist(), e.moment.tolist(), e.proper_fraction)"
    )
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, MAGNILAB_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True).stdout)
    assert outs[0] == outs[1] and outs[0].strip()


def test_scratch_sets_are_not_shared_between_workers(monkeypatch):
    """More workers than batches per worker, with frequent thread switches:
    a scratch set that two workers shared would mix their chains."""
    spec = mc.SamplerSpec(Sphere2(1.0), seed=8, samples=5 * mc.BATCH_SIZE - 3)
    monkeypatch.setenv("MAGNILAB_THREADS", "1")
    serial = mc.estimate_term(spec, range(1, 3), [0.5, 2.0])
    monkeypatch.setenv("MAGNILAB_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = mc.estimate_term(spec, range(1, 3), [0.5, 2.0])
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(threaded.mean, serial.mean)
    assert np.array_equal(threaded.moment, serial.moment)


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


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 2 * math.pi), (0.0, 1.0), (0.3, 1.7)])
def test_in_place_uniform_is_rng_uniform(lo, hi):
    out = np.empty(1 << 20)
    mc._uniform(np.random.default_rng(9), lo, hi, out)
    assert np.array_equal(out.view(np.int64),
                          np.random.default_rng(9).uniform(lo, hi, 1 << 20).view(np.int64))


@pytest.mark.parametrize("space", [Circle(1.5), Sphere2(1.0), FlatTorusUnit(),
                                   Interval(0.5, 2.0, "lebesgue"), Interval(0.5, 2.0, "weight"),
                                   LineGaussian(), LineLaplace()])
def test_sample_batch_into_out_equals_the_allocating_call(space):
    """Drawn into the head of a larger, dirty out batch, the points have the
    bits of a fresh call, and so do the distances written into out."""
    spec, m = mc.SamplerSpec(space), 10_000
    slots = [mc._empty_batch(space, m + 7) for _ in range(2)]
    for slot in slots:
        for c in (slot.coords if isinstance(slot.coords, tuple) else (slot.coords,)):
            c.fill(np.nan)
        if slot.tags is not None:
            slot.tags.fill(5)
    rng = np.random.default_rng(3)
    drawn = [mc.sample_batch(spec, rng, m, out=slot) for slot in slots]
    rng = np.random.default_rng(3)
    fresh = [mc.sample_batch(spec, rng, m) for _ in range(2)]

    def bits(batch):
        coords = batch.coords if isinstance(batch.coords, tuple) else (batch.coords,)
        return [c.view(np.int64).tolist() for c in coords], (
            None if batch.tags is None else batch.tags.tolist())

    for a, b in zip(drawn, fresh):
        assert bits(a) == bits(b)
    out = np.full(m, np.nan)
    dist = mc.geodesic_distance(space, drawn[0].coords, drawn[1].coords, out=out)
    assert dist is out
    assert np.array_equal(dist, mc.geodesic_distance(space, fresh[0].coords, fresh[1].coords))


def test_half_angle_cosine_matches_np_cos():
    eps = np.finfo(float).eps
    edge = [0.0, 5e-324, math.pi / 2, math.pi, 2 * math.pi - 8 * eps,
            float(np.nextafter(2 * math.pi, 0.0)), 2 * math.pi - 1e-9]
    angles = np.concatenate([edge, np.negative(edge),
                             np.random.default_rng(2).uniform(-2 * math.pi, 2 * math.pi,
                                                              1_000_000)])
    got = mc._half_angle_cos(angles.copy(), np.empty_like(angles))
    assert np.max(np.abs(got - np.cos(angles))) <= 2 * eps


def test_sphere_estimate_memory_stays_at_one_scratch_set(monkeypatch):
    """Two batches on one worker reuse one scratch set: nine batch-length
    arrays (two point slots of (z, s, phi), two prefix lengths and the
    distance's temporary), and the reduce adds none."""
    monkeypatch.setenv("MAGNILAB_THREADS", "1")
    spec = mc.SamplerSpec(Sphere2(1.0), seed=4, samples=2 * mc.BATCH_SIZE)
    grid = [0.5, 1.0, 2.0, 3.0, 5.0]
    mc.estimate_term(mc.SamplerSpec(Sphere2(1.0), samples=10), range(1, 3), grid)  # warm-up
    tracemalloc.start()
    try:
        mc.estimate_term(spec, range(1, 3), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 8 * mc.BATCH_SIZE + (1 << 19)


def test_length_density_errors_are_binomial():
    spec = mc.SamplerSpec(Interval(0.0, 1.0, "weight"), samples=1000)
    n, width = 2, 0.25
    counts = np.array([0, 1, 250, 999, 1000])
    scale = spec.total_mass ** (n + 1) / (spec.samples * width)
    want = [scale * math.sqrt(c * (1 - c / spec.samples)) for c in counts]
    # an empty bin takes the error of one count, not a zero error
    want[0] = scale * math.sqrt(1 - 1 / spec.samples)
    assert mc.length_density_stderr(spec, n, width, counts) == pytest.approx(want, rel=1e-15)


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
    edges, density, _ = mc.estimate_length_density(spec, 1, 16, math.pi)
    centers = 0.5 * (edges[:-1] + edges[1:])
    exact = cf.circle_length_density(1, 1.0, centers)
    # coarse histogram: agree within a few percent everywhere
    assert np.max(np.abs(density - exact) / exact) < 0.05


def test_interval_weight_sampler_mass_split():
    space = Interval(0.0, 2.0, "weight")
    spec = mc.SamplerSpec(space, seed=0, samples=200_000)
    est = mc.estimate_term(spec, [1], [1.0])
    assert est.term(0, 0, spec.total_mass)[1] > 0
    assert 0 < est.proper_fraction <= 1
