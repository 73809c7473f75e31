"""Monte-Carlo estimation of chain integrals over analytic spaces.

The order-n term is a_n(t) = integral over X^{n+1} of exp(-t * total chain
length) times the proper-chain indicator.  We sample from the normalized
measure and multiply by mu(X)^{n+1}.  The indicator only matters for measures
with atoms (interval weight measure); atom identity is tracked by integer
tags, never by float comparison.

One engine, _map_batches, draws every batch of order-n chains and reduces
it: to (sum, sum of squares) pairs for every t of a grid, or to histogram
counts.  The streams do not depend on t, so estimate_term, given a sequence
of t, draws an order's chains once and shares them across the whole grid.

Sphere points are kept as rows (z, sqrt(1 - z^2), phi), so a distance needs
one cosine: cos(theta) = z1 z2 + s1 s2 cos(phi1 - phi2).

Determinism contract: a fixed batch size, one random stream per (order,
batch index) derived from the master seed, and reduction in batch order.
Estimates are bit-identical for a given seed regardless of worker count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import closed_forms
from .spaces import (AnalyticSpace, Circle, FlatTorusUnit, Interval,
                     LineGaussian, LineLaplace, MagnitudeSeries, SeriesTerm,
                     Sphere2)

BATCH_SIZE = 1 << 18


def worker_count() -> int:
    """Worker cap from MAGNILAB_THREADS (0 or unset = auto)."""
    raw = os.environ.get("MAGNILAB_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return n if n > 0 else min(8, os.cpu_count() or 1)


@dataclass(frozen=True)
class SamplerSpec:
    """What to sample: space, master seed, sample count, measure scaling.

    mass_scale rescales the measure by a constant (the sampled distribution
    is unchanged; every factor of mu(X) in the estimator picks it up).
    """

    space: AnalyticSpace
    seed: int = 0
    samples: int = 1_000_000
    mass_scale: float = 1.0

    @property
    def total_mass(self) -> float:
        return self.mass_scale * self.space.total_mass


@dataclass(frozen=True)
class TermEstimate:
    """value and std_error are floats for a scalar t, tuples in grid order
    for a sequence of t."""

    n: int
    value: float | tuple[float, ...]
    std_error: float | tuple[float, ...]
    proper_fraction: float


@dataclass(frozen=True)
class Batch:
    """A batch of sampled points: coordinates plus atom tags (0 = diffuse)."""

    coords: np.ndarray
    tags: np.ndarray | None = None


def _stream(spec: SamplerSpec, order: int, batch: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(order, batch))
    return np.random.Generator(np.random.PCG64(ss))


def sample_batch(spec: SamplerSpec, rng: np.random.Generator, m: int) -> Batch:
    """Draw m points from the normalized measure of the space."""
    sp = spec.space
    if isinstance(sp, Circle):
        return Batch(rng.uniform(0.0, 2.0 * math.pi, size=m))
    if isinstance(sp, Sphere2):
        z = rng.uniform(-1.0, 1.0, size=m)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
        return Batch(np.stack([z, np.sqrt(1.0 - z * z), phi]))
    if isinstance(sp, FlatTorusUnit):
        return Batch(rng.uniform(0.0, 1.0, size=(m, 2)))
    if isinstance(sp, Interval):
        if sp.measure == "lebesgue":
            return Batch(rng.uniform(sp.a, sp.b, size=m))
        # atoms a, b each carry probability (1/2)/(1 + L/2)
        p_atom = 0.5 / sp.total_mass
        u = rng.uniform(0.0, 1.0, size=m)
        x = rng.uniform(sp.a, sp.b, size=m)
        tags = np.zeros(m, dtype=np.int8)
        tags[u < p_atom] = 1
        tags[(u >= p_atom) & (u < 2 * p_atom)] = 2
        x[tags == 1] = sp.a
        x[tags == 2] = sp.b
        return Batch(x, tags)
    if isinstance(sp, LineGaussian):
        # density proportional to exp(-x^2) -> normal with sigma = 1/sqrt(2)
        return Batch(rng.normal(0.0, 1.0 / math.sqrt(2.0), size=m))
    if isinstance(sp, LineLaplace):
        return Batch(rng.laplace(0.0, 1.0, size=m))
    raise TypeError(f"no sampler for {type(sp).__name__}")


def geodesic_distance(space: AnalyticSpace, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized intrinsic distance between sampled point arrays."""
    if isinstance(space, Circle):
        delta = np.abs(p - q)
        return space.r * np.minimum(delta, 2.0 * math.pi - delta)
    if isinstance(space, Sphere2):
        (z1, s1, phi1), (z2, s2, phi2) = p, q
        cosang = np.subtract(phi1, phi2)
        np.cos(cosang, out=cosang)
        cosang *= s1
        cosang *= s2
        cosang += z1 * z2
        np.clip(cosang, -1.0, 1.0, out=cosang)
        np.arccos(cosang, out=cosang)
        cosang *= space.r
        return cosang
    if isinstance(space, FlatTorusUnit):
        delta = np.abs(p - q)
        delta = np.minimum(delta, 1.0 - delta)
        return np.sqrt((delta**2).sum(axis=1))
    if isinstance(space, (Interval, LineGaussian, LineLaplace)):
        return np.abs(p - q)
    raise TypeError(f"no metric for {type(space).__name__}")


def _chain_batch(spec: SamplerSpec, rng: np.random.Generator, n: int, m: int):
    """(total lengths, proper indicator) for m chains of order n."""
    chain = [sample_batch(spec, rng, m) for _ in range(n + 1)]
    total = np.zeros(m)
    proper = np.ones(m, dtype=bool)
    for a, b in zip(chain, chain[1:]):
        total += geodesic_distance(spec.space, a.coords, b.coords)
        if a.tags is not None:
            both = (a.tags > 0) & (a.tags == b.tags)
            proper &= ~both
    return total, proper


def _map_batches(spec: SamplerSpec, n: int, reduce) -> list:
    """reduce(total lengths, proper indicator) on every batch of order-n chains.

    Batch idx always draws from _stream(spec, n, idx), and the results come
    back in batch order whatever the worker count.
    """
    starts = range(0, spec.samples, BATCH_SIZE)
    items = [(idx, min(BATCH_SIZE, spec.samples - start)) for idx, start in enumerate(starts)]

    def work(item):
        idx, m = item
        return reduce(*_chain_batch(spec, _stream(spec, n, idx), n, m))

    if len(items) > 1 and worker_count() > 1:
        with ThreadPoolExecutor(max_workers=worker_count()) as ex:
            return list(ex.map(work, items))  # map preserves batch order
    return [work(it) for it in items]


def estimate_term(spec: SamplerSpec, n: int, t) -> TermEstimate:
    """Monte-Carlo estimate of a_n(t) with a standard error.

    t is a float or a sequence of floats.  For a sequence the chains are
    drawn once and each batch is reduced for every t (common random
    numbers), value and std_error are tuples in grid order, and each entry
    is bit-identical to the scalar call at that t.  With shared chains the
    estimates are strictly decreasing in t whenever at least one sampled
    chain is proper.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    scalar = np.ndim(t) == 0
    t_grid = [float(t)] if scalar else [float(x) for x in t]

    def reduce(total, proper):
        sums = []
        for x in t_grid:
            vals = np.exp(-x * total) * proper
            sums.append((float(vals.sum()), float((vals * vals).sum())))
        return sums, int(proper.sum())

    batches = _map_batches(spec, n, reduce)
    count = spec.samples
    proper_fraction = sum(p for _, p in batches) / count
    scale = spec.total_mass ** (n + 1)
    values, errors = [], []
    for per_batch in zip(*(sums for sums, _ in batches)):
        mean = math.fsum(s for s, _ in per_batch) / count
        sq = math.fsum(q for _, q in per_batch) / count
        var = max(sq - mean * mean, 0.0)
        values.append(scale * mean)
        errors.append(scale * math.sqrt(var / count))
    if scalar:
        return TermEstimate(n, values[0], errors[0], proper_fraction)
    return TermEstimate(n, tuple(values), tuple(errors), proper_fraction)


def leg_integral_bound(spec: SamplerSpec, t: float) -> float:
    """c(t) = sup_y int exp(-t*d(x,y)) dmu(x), including the mass scale.

    Closed forms for homogeneous spaces and for the two weighted lines, whose
    weights are symmetric and log-concave, so the leg integral (a convolution
    of two such functions) peaks at y = 0; the interval maximizes over a
    basepoint grid.
    """
    sp = spec.space
    s = spec.mass_scale
    if isinstance(sp, Circle):
        return s * closed_forms.circle_leg_integral(sp.r, t)
    if isinstance(sp, Sphere2):
        return s * closed_forms.sphere_leg_integral(sp.r, t)
    if isinstance(sp, FlatTorusUnit):
        return s * closed_forms.torus_first_term(t)
    if isinstance(sp, Interval):
        L = sp.length
        ys = np.linspace(0.0, L, 33)
        best = 0.0
        for y in ys:
            leb = (2.0 - math.exp(-t * y) - math.exp(-t * (L - y))) / t
            val = sp.continuous_density * leb
            for loc, mass in sp.atoms:
                val += mass * math.exp(-t * abs(loc - sp.a - y))
            best = max(best, val)
        return s * best
    if isinstance(sp, LineLaplace):
        # int exp(-t|x| - |x|) dx
        return s * 2.0 / (1.0 + t)
    if isinstance(sp, LineGaussian):
        # int exp(-t|x| - x^2) dx = sqrt(pi) exp(t^2/4) erfc(t/2)
        from scipy.special import erfcx

        return s * math.sqrt(math.pi) * float(erfcx(t / 2.0))
    raise TypeError(f"no leg-integral bound for {type(sp).__name__}")


def tail_bound(spec: SamplerSpec, t: float, N: int) -> float | None:
    """mu(X) * c^{N+1} / (1 - c) if c(t) < 1, else None ("no bound")."""
    c = leg_integral_bound(spec, t)
    if c >= 1.0:
        return None
    return spec.total_mass * c ** (N + 1) / (1.0 - c)


def estimate_partial_magnitude(spec: SamplerSpec, t: float, N: int) -> MagnitudeSeries:
    """mu(X) + sum (-1)^n a_n with independent streams per order."""
    terms = []
    for n in range(1, N + 1):
        est = estimate_term(spec, n, t)
        terms.append(SeriesTerm(order=n, value=est.value, std_error=est.std_error,
                                method="montecarlo"))
    return MagnitudeSeries(
        t=t,
        total_mass=spec.total_mass,
        terms=tuple(terms),
        tail_bound=tail_bound(spec, t, N),
    )


def estimate_length_density(spec: SamplerSpec, n: int, bins: int, l_max: float):
    """Histogram estimate of the order-n length-spectrum density.

    Returns (bin edges, density values) scaled so that summing density *
    bin width approximates mu(X)^{n+1} restricted to [0, l_max].
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    edges = np.linspace(0.0, l_max, bins + 1)
    if not np.all(np.diff(edges) > 0):
        raise FloatingPointError(
            f"bin width underflows to 0: l_max = {l_max:.3g} split into {bins} bins")
    width = edges[1] - edges[0]
    counts = sum(_map_batches(
        spec, n, lambda total, proper: np.histogram(total[proper], bins=edges)[0]))
    density = counts * spec.total_mass ** (n + 1) / (spec.samples * width)
    return edges, density

