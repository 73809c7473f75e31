import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

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
    a = mc.estimate_term(spec, 2, [1.0]).term(2, 0, spec.total_mass)
    b = mc.estimate_term(spec, 2, [1.0]).term(2, 0, spec.total_mass)
    assert a == b


def test_estimate_independent_of_thread_count():
    """Bit-identical results whatever MAGNILAB_THREADS says."""
    code = (
        "from magnilab import mc; from magnilab.spaces import Circle; "
        "spec = mc.SamplerSpec(Circle(1.0), seed=3, samples=300000); "
        "print(*map(repr, mc.estimate_term(spec, 2, [1.0]).term(2, 0, spec.total_mass)))"
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
    value, std_error = mc.estimate_term(spec, 1, [t]).term(1, 0, spec.total_mass)
    assert abs(value - closed(t)) < 4 * std_error


def test_estimate_takes_the_orders_1_to_N():
    spec = mc.SamplerSpec(Circle(1.0), seed=1, samples=1000)
    est = mc.estimate_term(spec, 2, [1.0])
    for n in (-1, 0, 3):  # n = 0 would read the last order
        with pytest.raises(ValueError, match="outside 1..2"):
            est.term(n, 0, spec.total_mass)
    empty = mc.estimate_term(spec, 0, [1.0, 2.0])
    assert empty.mean.shape == (2, 0) and empty.cov.shape == (2, 0, 0)
    assert empty.series(1, spec.total_mass).partial_sums == (spec.total_mass,)
    with pytest.raises(ValueError, match="N must be"):
        mc.estimate_term(spec, -1, [1.0])


def test_common_random_numbers_on_grid():
    # ten tiles in three batches, so the per-tile sums are combined across batches
    spec = mc.SamplerSpec(Circle(1.0), seed=2, samples=600_000)
    grid = [1.0, 2.0, 3.0]
    est = mc.estimate_term(spec, 2, grid)
    singles = [mc.estimate_term(spec, 2, [t]) for t in grid]
    assert est.mean.shape == (len(grid), 2) and est.cov.shape == (len(grid), 2, 2)
    for i, s in enumerate(singles):
        # same sample stream reused across the grid
        for n in (1, 2):
            assert est.term(n, i, spec.total_mass) == s.term(n, 0, spec.total_mass)
        assert est.proper_fraction == s.proper_fraction


def _reference_points(space, rng, m):
    """(coords, tags) of m points drawn with the rng's own distributions and
    boolean masks, without the package's sampler: sphere rows
    (z, sqrt(1 - z^2), phi), and on the weighted interval a selector u that
    tags the atoms a (u < p) and b (p <= u < 2p) before the positions are
    drawn."""
    if isinstance(space, Circle):
        return rng.uniform(0.0, 2.0 * math.pi, m), None
    if isinstance(space, Sphere2):
        z = rng.uniform(-1.0, 1.0, m)
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        return (z, np.sqrt(1.0 - z * z), phi), None
    if isinstance(space, FlatTorusUnit):
        return rng.uniform(0.0, 1.0, (m, 2)), None
    if isinstance(space, Interval) and space.measure == "lebesgue":
        return rng.uniform(space.a, space.b, m), None
    if isinstance(space, Interval):
        p = 0.5 / space.total_mass
        u = rng.uniform(0.0, 1.0, m)
        tags = np.zeros(m, dtype=np.int8)
        tags[u < p] = 1
        tags[(u >= p) & (u < 2 * p)] = 2
        x = rng.uniform(space.a, space.b, m)
        x[tags == 1] = space.a
        x[tags == 2] = space.b
        return x, tags
    if isinstance(space, LineGaussian):
        return rng.normal(0.0, 1.0 / math.sqrt(2.0), m), None
    if isinstance(space, LineLaplace):
        return rng.laplace(0.0, 1.0, m), None
    raise TypeError(type(space).__name__)


def _reference_distance(space, p, q):
    """The leg between reference points: on the sphere the half-angle cosine
    (1 - u^2) / (1 + u^2), u = tan(dphi / 2), times s1 s2, plus z1 z2; on
    the circle and the torus the shorter way round."""
    if isinstance(space, Sphere2):
        (z1, s1, phi1), (z2, s2, phi2) = p, q
        u = np.tan((phi1 - phi2) * 0.5)
        u = u * u
        cosang = (1.0 - u) / (u + 1.0) * s1 * s2 + z1 * z2
        return np.arccos(np.clip(cosang, -1.0, 1.0)) * space.r
    delta = np.abs(p - q)
    if isinstance(space, Circle):
        return np.minimum(delta, 2.0 * math.pi - delta) * space.r
    if isinstance(space, FlatTorusUnit):
        delta = np.minimum(delta, 1.0 - delta)
        return np.sqrt((delta * delta).sum(axis=1))
    return delta


def _serial_chains(spec, N):
    """Per tile, (prefix lengths, prefix proper indicators) of the chains:
    N + 1 reference points drawn in turn from the tile's stream, then the
    reference legs."""
    out = []
    for idx, start in enumerate(range(0, spec.samples, mc.TILE)):
        m = min(mc.TILE, spec.samples - start)
        ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(1, idx))
        rng = np.random.Generator(np.random.PCG64(ss))
        points = [_reference_points(spec.space, rng, m) for _ in range(N + 1)]
        total, proper = np.zeros(m), np.ones(m, dtype=bool)
        lengths, propers = [], []
        for (a, a_tags), (b, b_tags) in zip(points, points[1:]):
            total = total + _reference_distance(spec.space, a, b)
            if a_tags is not None:
                proper = proper & ~((a_tags > 0) & (a_tags == b_tags))
            lengths.append(total)
            propers.append(proper)
        out.append((lengths, propers))
    return out


def _check_engine_form(space, m, seed):
    """Two batches drawn as the engine draws them, into the heads of dirty
    larger slots with a dirty spare row, and their leg, measured into a
    dirty out, have the bits of the reference points and leg."""
    rng = np.random.default_rng(seed)
    ref = [_reference_points(space, rng, m) for _ in range(2)]
    slots, spare = [mc._empty_batch(space, m + 5) for _ in range(2)], np.full(m + 5, np.nan)
    for slot in slots:
        for c in (slot.coords if isinstance(slot.coords, tuple) else (slot.coords,)):
            c.fill(np.nan)
        if slot.tags is not None:
            slot.tags.fill(7)
    rng = np.random.default_rng(seed)
    drawn = [mc.sample_batch(mc.SamplerSpec(space), rng, m, slot, spare) for slot in slots]

    def bits(coords):
        coords = coords if isinstance(coords, tuple) else (coords,)
        return [c.view(np.int64).tolist() for c in coords]

    for (coords, tags), batch in zip(ref, drawn):
        assert bits(batch.coords) == bits(coords[::2] if isinstance(space, Sphere2) else coords)
        assert np.array_equal(batch.tags, tags)
    want = _reference_distance(space, ref[0][0], ref[1][0])
    out = np.full(m, np.nan)
    got = mc.geodesic_distance(space, drawn[0].coords, drawn[1].coords, out)
    assert got is out and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("space", [Sphere2(2.5), Interval(0.5, 2.0, "weight"),
                                   Interval(-1.5, 0.0, "weight")])
def test_sampler_and_leg_match_the_references_bit_for_bit(space):
    """Points and legs in the engine's form have the bits of the references,
    at enough points that every atom and every sphere quadrant is hit."""
    _check_engine_form(space, 150_000, 12)


def test_engine_matches_serial_reference_loop(monkeypatch):
    """Threaded grid, orders and histogram equal a serial loop over the tile
    streams, with per-tile sums combined by fsum in tile order; the engine's
    per-tile prefix lengths equal the loop's bit for bit, which the fsum-ed
    sums alone would not show for a leg one ulp off."""
    monkeypatch.setenv("MAGNILAB_THREADS", "2")
    N, grid, edges = 2, [0.5, 2.0], np.linspace(0.0, 2 * math.pi, 9)
    spec = mc.SamplerSpec(Sphere2(1.0), seed=4, samples=2 * mc.BATCH_SIZE + 1000)
    serial = _serial_chains(spec, N)
    engine = mc._map_batches(spec, N, lambda totals, propers, spare: [t.copy() for t in totals])
    assert len(engine) == len(serial)
    for tile, (lengths, _) in zip(engine, serial):
        assert all(np.array_equal(a, b) for a, b in zip(tile, lengths, strict=True))
    sums, cross, counts = {}, {}, 0
    for lengths, propers in serial:
        counts = counts + np.histogram(lengths[N - 1][propers[N - 1]], bins=edges)[0]
        for t in grid:
            vals = [np.exp(-t * total) * proper for total, proper in zip(lengths, propers)]
            for j in range(N):
                sums.setdefault((t, j), []).append(float(vals[j].sum()))
                for k in range(N):
                    cross.setdefault((t, j, k), []).append(float((vals[j] * vals[k]).sum()))
    est = mc.estimate_term(spec, N, grid)
    shorter = mc.estimate_term(spec, N - 1, grid)
    for i, t in enumerate(grid):
        mean = [math.fsum(sums[t, j]) / spec.samples for j in range(N)]
        assert est.mean[i].tolist() == mean
        for j in range(N):
            for k in range(N):
                assert est.cov[i, j, k] == (math.fsum(cross[t, j, k]) / spec.samples
                                            - mean[j] * mean[k])
            var = max(math.fsum(cross[t, j, j]) / spec.samples - mean[j] * mean[j], 0.0)
            scale = spec.total_mass ** (j + 2)
            assert est.term(j + 1, i, spec.total_mass) == (
                scale * mean[j], scale * math.sqrt(var / spec.samples))
        # order n from N = n equals order n from a larger N
        n = N - 1
        assert shorter.term(n, i, spec.total_mass) == est.term(n, i, spec.total_mass)
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
    est = mc.estimate_term(spec, N, [t])
    series = est.series(0, mass)
    errors = series.errors
    assert errors[0] == 0.0
    quadrature = 0.0
    for k in range(N):
        mean = math.fsum(sums[k]) / spec.samples
        var = math.fsum(sqs[k]) / spec.samples - mean * mean
        assert series.partial_sums[k + 1] == pytest.approx(mass + mean, rel=1e-12)
        assert errors[k + 1] == pytest.approx(math.sqrt(var / spec.samples), rel=1e-9)
        quadrature = math.hypot(quadrature, est.term(k + 1, 0, mass)[1])
    # consecutive terms are positively correlated, so their alternating sum
    # varies less than independent terms would
    assert errors[N] < quadrature


def test_multi_order_estimate_independent_of_thread_count():
    code = (
        "from magnilab import mc; from magnilab.spaces import Interval; "
        "e = mc.estimate_term(mc.SamplerSpec(Interval(0.0, 1.0, 'weight'), seed=3, "
        "samples=600000), 3, [0.5, 2.0]); "
        "print(e.mean.tolist(), e.cov.tolist(), e.proper_fraction)"
    )
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, MAGNILAB_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True).stdout)
    assert outs[0] == outs[1] and outs[0].strip()


@pytest.mark.parametrize("batch", [mc.TILE, 8 * mc.TILE])
def test_batch_size_only_schedules_work(monkeypatch, batch):
    """The batch is the unit of pool work: resized, it moves no bit."""
    monkeypatch.setenv("MAGNILAB_THREADS", "2")
    spec = mc.SamplerSpec(Interval(0.0, 1.0, "weight"), seed=6, samples=5 * mc.TILE + 17)
    args = (spec, 3, [0.5, 2.0])
    default = mc.estimate_term(*args)
    monkeypatch.setattr(mc, "BATCH_SIZE", batch)
    resized = mc.estimate_term(*args)
    assert np.array_equal(resized.mean, default.mean)
    assert np.array_equal(resized.cov, default.cov)
    assert resized.proper_fraction == default.proper_fraction


def test_one_batch_starts_no_pool(monkeypatch):
    """A run of at most BATCH_SIZE chains is sampled on the calling thread
    even with two workers allowed; one chain more makes a second batch and
    starts the pool."""
    started = []

    class Recording(mc.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", Recording)
    monkeypatch.setenv("MAGNILAB_THREADS", "2")
    space = Interval(0.0, 1.0, "weight")
    mc.estimate_term(mc.SamplerSpec(space, seed=3, samples=mc.BATCH_SIZE), 2, [1.0])
    assert started == []
    mc.estimate_term(mc.SamplerSpec(space, seed=3, samples=mc.BATCH_SIZE + 1), 2, [1.0])
    assert started == [2]


def test_scratch_sets_are_not_shared_between_workers(monkeypatch):
    """More workers than batches per worker, with frequent thread switches:
    a scratch set that two workers shared would mix their chains."""
    spec = mc.SamplerSpec(Sphere2(1.0), seed=8, samples=5 * mc.BATCH_SIZE - 3)
    monkeypatch.setenv("MAGNILAB_THREADS", "1")
    serial = mc.estimate_term(spec, 2, [0.5, 2.0])
    monkeypatch.setenv("MAGNILAB_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = mc.estimate_term(spec, 2, [0.5, 2.0])
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(threaded.mean, serial.mean)
    assert np.array_equal(threaded.cov, serial.cov)


def test_sphere_distance_matches_three_vector_reference():
    """The (z, phi) cosine equals the dot product of the unit 3-vectors."""
    r, m = 2.0, 1_000_000
    rng = np.random.default_rng(11)
    p, q = [_reference_points(Sphere2(r), rng, m)[0][::2] for _ in range(2)]
    dist = mc.geodesic_distance(Sphere2(r), tuple(c.copy() for c in p), q, np.empty(m))

    def unit_vectors(rows):
        z, phi = rows
        s = np.sqrt(1.0 - z * z)
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
def test_sample_batch_into_dirty_out_matches_the_references(space):
    _check_engine_form(space, 10_000, 3)


def test_half_angle_cosine_matches_np_cos():
    eps = np.finfo(float).eps
    edge = [0.0, 5e-324, math.pi / 2, math.pi, 2 * math.pi - 8 * eps,
            float(np.nextafter(2 * math.pi, 0.0)), 2 * math.pi - 1e-9]
    angles = np.concatenate([edge, np.negative(edge),
                             np.random.default_rng(2).uniform(-2 * math.pi, 2 * math.pi,
                                                              1_000_000)])
    got = mc._half_angle_cos(angles.copy(), np.empty_like(angles))
    assert np.max(np.abs(got - np.cos(angles))) <= 2 * eps


def _estimate_peak(monkeypatch, space, N, grid, workers):
    """tracemalloc peak of a two-batch estimate of orders 1..N on `workers`
    threads."""
    monkeypatch.setenv("MAGNILAB_THREADS", str(workers))
    spec = mc.SamplerSpec(space, seed=4, samples=2 * mc.BATCH_SIZE)
    mc.estimate_term(mc.SamplerSpec(space, samples=10), N, grid)  # warm-up
    tracemalloc.start()
    try:
        mc.estimate_term(spec, N, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SPHERE_GRID = [0.5, 1.0, 2.0, 3.0, 5.0]


def test_sphere_estimate_memory_stays_at_one_scratch_set(monkeypatch):
    """Every tile of a worker reuses its one scratch set: six tile-length
    arrays (two point slots of (z, phi) and two prefix lengths).  The leg's
    temporary is the phi of the point it leaves, and the reduce adds none."""
    peak = _estimate_peak(monkeypatch, Sphere2(1.0), 2, SPHERE_GRID, 1)
    assert peak <= 6 * 8 * mc.TILE + (1 << 19)


def test_two_workers_hold_two_scratch_sets(monkeypatch):
    """Two batches on two workers: one tile-length scratch set each."""
    peak = _estimate_peak(monkeypatch, Sphere2(1.0), 2, SPHERE_GRID, 2)
    assert peak <= 2 * (6 * 8 * mc.TILE + (1 << 19))


def test_circle_estimate_memory_stays_at_one_scratch_set(monkeypatch):
    """On the circle at N = 2 a worker holds four tile-length arrays: two
    point slots and two prefix lengths.  A leg writes 2 pi - delta over the
    point it leaves, and at one t the reduce writes into the slots."""
    peak = _estimate_peak(monkeypatch, Circle(1.0), 2, [1.0], 1)
    assert peak <= 4 * 8 * mc.TILE + (1 << 18)


def test_weighted_interval_estimate_memory_stays_at_one_scratch_set(monkeypatch):
    """At N = 4 a worker holds two slots of positions and int8 tags, four
    prefix lengths and four bool prefix indicators; the atom sampler writes
    its products into the prefix row its leg writes next."""
    peak = _estimate_peak(monkeypatch, Interval(0.5, 2.0, "weight"), 4, [1.0], 1)
    assert peak <= (2 * (8 + 1) + 4 * 8 + 4) * mc.TILE + (1 << 19)


def test_length_density_errors_are_binomial(monkeypatch):
    spec = mc.SamplerSpec(Interval(0.0, 1.0, "weight"), samples=1000)
    n, width = 2, 0.25
    counts = np.array([0, 1, 250, 999, 1000])
    monkeypatch.setattr(mc, "_map_batches", lambda spec, N, reduce: [counts])
    edges, density, stderr = mc.estimate_length_density(spec, n, len(counts), width * len(counts))
    assert edges[1] - edges[0] == width
    scale = spec.total_mass ** (n + 1) / (spec.samples * width)
    assert density == pytest.approx(counts * scale, rel=1e-15)
    want = [scale * math.sqrt(c * (1 - c / spec.samples)) for c in counts]
    # an empty bin takes the error of one count, not a zero error
    want[0] = scale * math.sqrt(1 - 1 / spec.samples)
    assert stderr == pytest.approx(want, rel=1e-15)


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
    est = mc.estimate_term(spec, 1, [1.0])
    assert est.term(1, 0, spec.total_mass)[1] > 0
    assert 0 < est.proper_fraction <= 1
