"""Monte-Carlo estimation of chain integrals over analytic spaces.

The order-n term is a_n(t) = integral over X^{n+1} of exp(-t * total chain
length) times the proper-chain indicator.  We sample from the normalized
measure and multiply by mu(X)^{n+1}.  The indicator only matters for measures
with atoms (interval weight measure); atom identity is tracked by integer
tags, never by float comparison.

One engine, _map_batches, draws every batch of chains and reduces it.  A
draw is one (N+1)-point chain, extended a point at a time, and order n reads
its n-leg prefix: the running total length after leg n, and the running AND
of the per-leg proper indicators.  A batch reduces to sums of
v_n = exp(-t L_n) * proper_n and of every product v_i v_j, for each t of a
grid, or to histogram counts.  The chains do not depend on t, so
estimate_term draws them once for all its orders and the whole grid, and the
cross moments give the error of any partial sum of the shared terms.

Sphere points are kept as rows (z, sqrt(1 - z^2), phi), so a distance needs
one cosine: cos(theta) = z1 z2 + s1 s2 cos(phi1 - phi2).

Determinism contract: a fixed batch size, one random stream per batch index
derived from the master seed, and reduction in batch order.  Estimates are
bit-identical for a given seed regardless of worker count.
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
    """Worker cap from MAGNILAB_THREADS (0 or unset = auto: the CPUs this
    process may run on, at most 8)."""
    raw = os.environ.get("MAGNILAB_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n > 0:
        return n
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


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
class ChainEstimate:
    """Estimates of a_n(t) for several orders and t from shared chains.

    With v_n = exp(-t L_n) * proper_n for the n-leg prefix of a chain,
    mean[i, k] is the chain mean of v_{orders[k]} at t[i], and
    moment[i, j, k] the chain mean of v_{orders[j]} * v_{orders[k]}.
    """

    orders: tuple[int, ...]
    t: tuple[float, ...]
    count: int
    mean: np.ndarray
    moment: np.ndarray
    proper_fraction: float

    def term(self, k: int, i: int, total_mass: float) -> tuple[float, float]:
        """(value, std error) of a_{orders[k]}(t[i]) for a measure of total
        mass total_mass."""
        mean = float(self.mean[i, k])
        var = max(float(self.moment[i, k, k]) - mean * mean, 0.0)
        scale = total_mass ** (self.orders[k] + 1)
        return scale * mean, scale * math.sqrt(var / self.count)

    def series(self, i: int, total_mass: float,
               tail_bound: float | None = None) -> MagnitudeSeries:
        """Partial sums at t[i] for orders 1..N, for a measure of total mass
        total_mass.

        The terms share chains, so a partial sum's error is that of the
        per-chain alternating sum sum_n c_n v_n, c_n = (-1)^n mu^{n+1}:
        sqrt(c^T Cov c / count) over the orders it includes.
        """
        if self.orders != tuple(range(1, len(self.orders) + 1)):
            raise ValueError("a series needs the orders 1..N")
        terms = tuple(SeriesTerm(n, *self.term(k, i, total_mass), method="montecarlo")
                      for k, n in enumerate(self.orders))
        c = np.array([(-1.0) ** n * total_mass ** (n + 1) for n in self.orders])
        cov = self.moment[i] - np.outer(self.mean[i], self.mean[i])
        var = np.cumsum(np.cumsum(c[:, None] * cov * c, axis=0), axis=1).diagonal()
        errors = (0.0,) + tuple(math.sqrt(max(float(v), 0.0) / self.count) for v in var)
        return MagnitudeSeries(t=self.t[i], total_mass=total_mass, terms=terms,
                               tail_bound=tail_bound, errors=errors)


@dataclass(frozen=True)
class Batch:
    """A batch of sampled points: coordinates plus atom tags (0 = diffuse)."""

    coords: np.ndarray | tuple[np.ndarray, ...]
    tags: np.ndarray | None = None


def sample_batch(spec: SamplerSpec, rng: np.random.Generator, m: int) -> Batch:
    """Draw m points from the normalized measure of the space."""
    sp = spec.space
    if isinstance(sp, Circle):
        return Batch(rng.uniform(0.0, 2.0 * math.pi, size=m))
    if isinstance(sp, Sphere2):
        z = rng.uniform(-1.0, 1.0, size=m)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
        return Batch((z, np.sqrt(1.0 - z * z), phi))
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


def _map_batches(spec: SamplerSpec, N: int, reduce) -> list:
    """reduce(totals, propers) on every batch of (N+1)-point chains.

    Each chain grows one sampled point at a time: totals[n - 1] is the length
    of its n-leg prefix, the order-n chain, and propers[n - 1] the running AND
    of the per-leg proper indicators (None on a space without atoms).  Batch
    idx draws from the stream with spawn key (1, idx), the key order-1 chains
    have always used, and the results come back in batch order whatever the
    worker count.
    """
    starts = range(0, spec.samples, BATCH_SIZE)
    items = [(idx, min(BATCH_SIZE, spec.samples - start)) for idx, start in enumerate(starts)]

    def work(item):
        idx, m = item
        ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(1, idx))
        rng = np.random.Generator(np.random.PCG64(ss))
        prev = sample_batch(spec, rng, m)
        total = np.zeros(m)
        proper = None if prev.tags is None else np.ones(m, dtype=bool)
        totals, propers = [], []
        for _ in range(N):
            point = sample_batch(spec, rng, m)
            total = total + geodesic_distance(spec.space, prev.coords, point.coords)
            if proper is not None:
                proper = proper & ~((prev.tags > 0) & (prev.tags == point.tags))
            totals.append(total)
            propers.append(proper)
            prev = point
        prev = point = None  # the reduce runs without the last point in memory
        return reduce(totals, propers)

    if len(items) > 1 and worker_count() > 1:
        with ThreadPoolExecutor(max_workers=worker_count()) as ex:
            return list(ex.map(work, items))  # map preserves batch order
    return [work(it) for it in items]


def _fsum_batches(parts: list) -> np.ndarray:
    """Entrywise math.fsum of equally shaped per-batch arrays."""
    stacked = np.asarray(parts, dtype=float)
    flat = stacked.reshape(len(parts), -1).T
    return np.array([math.fsum(col) for col in flat]).reshape(stacked.shape[1:])


def estimate_term(spec: SamplerSpec, n, t) -> TermEstimate | ChainEstimate:
    """Monte-Carlo estimate of a_n(t) with a standard error.

    t is a float or a sequence of floats; the chains do not depend on t, so
    each batch is reduced for every t (common random numbers).  n is an order
    or a sequence of orders; one (N+1)-point chain per draw, N the largest
    order, serves them all.  An order's estimate depends only on the seed and
    the sample count: it is bit-identical whatever other orders and t are
    asked for.  With shared chains the estimates are strictly decreasing in
    t whenever at least one sampled chain is proper.

    For an order n the result is a TermEstimate: value and std_error are
    floats for a float t, tuples in grid order for a sequence.  For a
    sequence of orders it is a ChainEstimate, whose cross moments also give
    the errors of partial sums; an empty sequence draws nothing.
    """
    orders = (int(n),) if np.ndim(n) == 0 else tuple(int(k) for k in n)
    if any(k < 1 for k in orders) or len(set(orders)) < len(orders):
        raise ValueError("orders must be distinct and >= 1")
    grid = (float(t),) if np.ndim(t) == 0 else tuple(float(x) for x in t)
    K, T, count = len(orders), len(grid), spec.samples

    def reduce(totals, propers):
        sums, moments = np.empty((T, K)), np.empty((T, K, K))
        for i, x in enumerate(grid):
            # the last t needs the lengths no more: its values overwrite them
            last = i == T - 1
            vals = []
            for k in orders:
                v = np.multiply(totals[k - 1], -x, out=totals[k - 1] if last else None)
                np.exp(v, out=v)
                if propers[k - 1] is not None:
                    v *= propers[k - 1]
                vals.append(v)
            for j, a in enumerate(vals):
                sums[i, j] = a.sum()
                for k in range(j, K):
                    moments[i, j, k] = moments[i, k, j] = (a * vals[k]).sum()
        proper = propers[-1]
        return sums, moments, len(totals[-1]) if proper is None else int(proper.sum())

    if K:
        batches = _map_batches(spec, max(orders), reduce)
        mean = _fsum_batches([s for s, _, _ in batches]) / count
        moment = _fsum_batches([q for _, q, _ in batches]) / count
        proper_fraction = sum(p for _, _, p in batches) / count
    else:
        mean, moment, proper_fraction = np.empty((T, 0)), np.empty((T, 0, 0)), 1.0
    est = ChainEstimate(orders, grid, count, mean, moment, proper_fraction)
    if np.ndim(n) != 0:
        return est
    pairs = [est.term(0, i, spec.total_mass) for i in range(T)]
    if np.ndim(t) == 0:
        return TermEstimate(orders[0], *pairs[0], proper_fraction)
    return TermEstimate(orders[0], tuple(v for v, _ in pairs), tuple(e for _, e in pairs),
                        proper_fraction)


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
    """mu(X) + sum (-1)^n a_n, every order read from one set of (N+1)-point
    chains, with partial-sum errors from the chains' cross moments."""
    est = estimate_term(spec, range(1, N + 1), t)
    return est.series(0, spec.total_mass, tail_bound(spec, t, N))


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

    def reduce(totals, propers):
        total, proper = totals[-1], propers[-1]
        return np.histogram(total if proper is None else total[proper], bins=edges)[0]

    counts = sum(_map_batches(spec, n, reduce))
    density = counts * spec.total_mass ** (n + 1) / (spec.samples * width)
    return edges, density

