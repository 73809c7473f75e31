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
estimate_term(spec, orders, grid) draws them once for all its orders and the
whole grid; its ChainEstimate gives each term with its error, and its cross
moments the error of any partial sum of the shared terms.

Each worker of a call keeps one scratch set for the whole call: two point
slots that the chain's points alternate between, and the prefix lengths and
indicators.  sample_batch and geodesic_distance write into it through their
out arguments, and the reduce writes its chain values and products into the
point slots, which are dead by then; only the sphere distance still takes a
temporary per leg.  The set lives in a threading.local made per call, so it
is gone when the call returns.  Draws are rng.random(out=...) followed by
the in-place affine map, bit-identical to rng.uniform(lo, hi).

Sphere points are kept as rows (z, sqrt(1 - z^2), phi), and
cos(theta) = z1 z2 + s1 s2 cos(phi1 - phi2), with the cosine taken from the
half angle: cos(d) = (1 - u^2) / (1 + u^2), u = tan(d / 2), within 4.4e-16
of np.cos.  NumPy vectorises float64 tan only on AVX512 machines, where
np.cos runs in scalar libm and costs about ten times more; elsewhere both
forms cost one libm call per leg.

Determinism contract: a fixed batch size, one random stream per batch index
derived from the master seed, and reduction in batch order.  Estimates are
bit-identical for a given seed regardless of worker count.
"""
from __future__ import annotations

import math
import os
import threading
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


def _empty_batch(space: AnalyticSpace, m: int) -> Batch:
    """Uninitialised arrays for m points of the space, as sample_batch fills them."""
    if isinstance(space, Sphere2):
        return Batch((np.empty(m), np.empty(m), np.empty(m)))
    if isinstance(space, FlatTorusUnit):
        return Batch(np.empty((m, 2)))
    atoms = isinstance(space, Interval) and space.measure != "lebesgue"
    return Batch(np.empty(m), np.empty(m, dtype=np.int8) if atoms else None)


def _uniform(rng: np.random.Generator, lo: float, hi: float, out: np.ndarray) -> np.ndarray:
    """rng.uniform(lo, hi) drawn into out: lo + (hi - lo) * u, bit for bit."""
    rng.random(out=out)
    out *= hi - lo
    out += lo
    return out


def sample_batch(spec: SamplerSpec, rng: np.random.Generator, m: int,
                 out: Batch | None = None) -> Batch:
    """Draw m points from the normalized measure of the space.

    out, a Batch from a call on the same space with at least m points, takes
    the draws in its first m entries; the result views them.  Without it
    the arrays are new.  Both give the same bits.
    """
    sp = spec.space
    if out is None:
        out = _empty_batch(sp, m)
    if isinstance(out.coords, tuple):
        coords = tuple(c[:m] for c in out.coords)
    else:
        coords = out.coords[:m]
    tags = None if out.tags is None else out.tags[:m]
    if isinstance(sp, Circle):
        _uniform(rng, 0.0, 2.0 * math.pi, coords)
    elif isinstance(sp, Sphere2):
        z, s, phi = coords
        _uniform(rng, -1.0, 1.0, z)
        _uniform(rng, 0.0, 2.0 * math.pi, phi)
        np.multiply(z, z, out=s)
        np.subtract(1.0, s, out=s)
        np.sqrt(s, out=s)
    elif isinstance(sp, FlatTorusUnit):
        _uniform(rng, 0.0, 1.0, coords)
    elif isinstance(sp, Interval) and sp.measure == "lebesgue":
        _uniform(rng, sp.a, sp.b, coords)
    elif isinstance(sp, Interval):
        # atoms a, b each carry probability (1/2)/(1 + L/2); the selector u
        # is drawn first, into the array the positions overwrite next
        p_atom = 0.5 / sp.total_mass
        u = _uniform(rng, 0.0, 1.0, coords)
        tags.fill(0)
        tags[u < p_atom] = 1
        tags[(u >= p_atom) & (u < 2 * p_atom)] = 2
        x = _uniform(rng, sp.a, sp.b, coords)
        x[tags == 1] = sp.a
        x[tags == 2] = sp.b
    elif isinstance(sp, LineGaussian):
        # density proportional to exp(-x^2) -> normal with sigma = 1/sqrt(2),
        # drawn as rng.normal(0, sigma) draws it: 0 + sigma * z
        rng.standard_normal(out=coords)
        coords *= 1.0 / math.sqrt(2.0)
    elif isinstance(sp, LineLaplace):
        coords[...] = rng.laplace(0.0, 1.0, size=m)
    else:
        raise TypeError(f"no sampler for {type(sp).__name__}")
    return Batch(coords, tags)


def _half_angle_cos(d: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """cos(d) in place of d, as (1 - u^2) / (1 + u^2) with u = tan(d / 2).

    tmp is scratch of d's shape.  Within 4.4e-16 of np.cos for |d| < 2 pi;
    u^2 stays finite, because tan of a double never exceeds 1.7e16.
    """
    d *= 0.5
    np.tan(d, out=d)
    d *= d
    np.subtract(1.0, d, out=tmp)
    d += 1.0
    return np.divide(tmp, d, out=d)


def geodesic_distance(space: AnalyticSpace, p, q, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized intrinsic distance between sampled point arrays, written
    into out (new if None) and returned."""
    if isinstance(space, Sphere2):
        (z1, s1, phi1), (z2, s2, phi2) = p, q
        cosang = np.subtract(phi1, phi2, out=out)
        tmp = np.empty_like(cosang)
        _half_angle_cos(cosang, tmp)
        cosang *= s1
        cosang *= s2
        cosang += np.multiply(z1, z2, out=tmp)
        np.clip(cosang, -1.0, 1.0, out=cosang)
        np.arccos(cosang, out=cosang)
        cosang *= space.r
        return cosang
    if isinstance(space, Circle):
        delta = np.subtract(p, q, out=out)
        np.abs(delta, out=delta)
        np.minimum(delta, 2.0 * math.pi - delta, out=delta)
        delta *= space.r
        return delta
    if isinstance(space, FlatTorusUnit):
        delta = np.abs(p - q)
        np.minimum(delta, 1.0 - delta, out=delta)
        delta *= delta
        return np.sqrt(delta.sum(axis=1), out=out)
    if isinstance(space, (Interval, LineGaussian, LineLaplace)):
        delta = np.subtract(p, q, out=out)
        return np.abs(delta, out=delta)
    raise TypeError(f"no metric for {type(space).__name__}")


class _Scratch:
    """One worker's arrays for batches of up to `size` chains of N legs."""

    def __init__(self, space: AnalyticSpace, size: int, N: int):
        self.slots = (_empty_batch(space, size), _empty_batch(space, size))
        self.totals = np.empty((N, size))
        atoms = self.slots[0].tags is not None
        self.propers = np.empty((N, size), dtype=bool) if atoms else None


def _map_batches(spec: SamplerSpec, N: int, reduce) -> list:
    """reduce(totals, propers, spare) on every batch of (N+1)-point chains.

    Each chain grows one sampled point at a time: totals[n - 1] is the length
    of its n-leg prefix, the order-n chain, and propers[n - 1] the running AND
    of the per-leg proper indicators (None on a space without atoms).  spare
    lists float arrays of the batch's length that are dead by the reduce;
    the reduce may write into them and into totals, and must return arrays
    of its own, because the next batch of the worker reuses all of them.
    Batch idx draws from the stream with spawn key (1, idx), the key order-1
    chains have always used, and the results come back in batch order
    whatever the worker count.
    """
    starts = range(0, spec.samples, BATCH_SIZE)
    items = [(idx, min(BATCH_SIZE, spec.samples - start)) for idx, start in enumerate(starts)]
    size = items[0][1] if items else 0  # the first batch is the largest
    local = threading.local()  # each worker's scratch set, for this call only

    def work(item):
        idx, m = item
        scratch = getattr(local, "scratch", None)
        if scratch is None:
            scratch = local.scratch = _Scratch(spec.space, size, N)
        ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(1, idx))
        rng = np.random.Generator(np.random.PCG64(ss))
        totals = [row[:m] for row in scratch.totals]
        propers = [None] * N if scratch.propers is None else [row[:m] for row in scratch.propers]
        prev = sample_batch(spec, rng, m, out=scratch.slots[0])
        for n in range(N):
            point = sample_batch(spec, rng, m, out=scratch.slots[(n + 1) % 2])
            geodesic_distance(spec.space, prev.coords, point.coords, out=totals[n])
            if n:
                totals[n] += totals[n - 1]
            if propers[n] is not None:
                np.greater(prev.tags, 0, out=propers[n])
                propers[n] &= prev.tags == point.tags
                np.logical_not(propers[n], out=propers[n])
                if n:
                    propers[n] &= propers[n - 1]
            prev = point
        # the point slots are dead once the last leg is measured
        spare = [c.reshape(-1)[:m] for slot in scratch.slots
                 for c in (slot.coords if isinstance(slot.coords, tuple) else (slot.coords,))]
        return reduce(totals, propers, spare)

    if len(items) > 1 and worker_count() > 1:
        with ThreadPoolExecutor(max_workers=worker_count()) as ex:
            return list(ex.map(work, items))  # map preserves batch order
    return [work(it) for it in items]


def _fsum_batches(parts: list) -> np.ndarray:
    """Entrywise math.fsum of equally shaped per-batch arrays."""
    stacked = np.asarray(parts, dtype=float)
    flat = stacked.reshape(len(parts), -1).T
    return np.array([math.fsum(col) for col in flat]).reshape(stacked.shape[1:])


def estimate_term(spec: SamplerSpec, orders, grid) -> ChainEstimate:
    """Monte-Carlo estimates of a_n(t) for every order n in orders and every
    t in grid, from one set of chains.

    One (N+1)-point chain per draw, N the largest order, serves every order,
    and the chains do not depend on t, so each batch is reduced for every t
    (common random numbers).  An order's estimate depends only on the seed
    and the sample count: it is bit-identical whatever other orders and t
    are asked for.  With shared chains the estimates are strictly decreasing
    in t whenever at least one sampled chain is proper.  The result's
    term(k, i, mass) is the value and standard error of a_{orders[k]} at
    grid[i], and its series(i, mass) the partial sums with the errors its
    cross moments give.  An empty sequence of orders draws nothing.
    """
    orders = tuple(int(k) for k in orders)
    if any(k < 1 for k in orders) or len(set(orders)) < len(orders):
        raise ValueError("orders must be distinct and >= 1")
    grid = tuple(float(x) for x in grid)
    K, T, count = len(orders), len(grid), spec.samples

    def reduce(totals, propers, spare):
        # every t but the last writes its values into dead arrays, and the
        # last over the lengths, which it needs no more
        need = 1 + (K if T > 1 else 0)
        bufs = spare[:need] + [np.empty_like(totals[0]) for _ in range(need - len(spare))]
        prod, values = bufs[0], bufs[1:]
        sums, moments = np.empty((T, K)), np.empty((T, K, K))
        for i, x in enumerate(grid):
            last = i == T - 1
            vals = []
            for j, k in enumerate(orders):
                # t L may overflow to inf, and exp(-inf) = 0 is then exact
                with np.errstate(over="ignore"):
                    v = np.multiply(totals[k - 1], -x, out=totals[k - 1] if last else values[j])
                np.exp(v, out=v)
                if propers[k - 1] is not None:
                    v *= propers[k - 1]
                vals.append(v)
            for j, a in enumerate(vals):
                sums[i, j] = a.sum()
                for k in range(j, K):
                    moments[i, j, k] = moments[i, k, j] = np.multiply(a, vals[k], out=prod).sum()
        proper = propers[-1]
        return sums, moments, len(totals[-1]) if proper is None else int(proper.sum())

    if K:
        batches = _map_batches(spec, max(orders), reduce)
        mean = _fsum_batches([s for s, _, _ in batches]) / count
        moment = _fsum_batches([q for _, q, _ in batches]) / count
        proper_fraction = sum(p for _, _, p in batches) / count
    else:
        mean, moment, proper_fraction = np.empty((T, 0)), np.empty((T, 0, 0)), 1.0
    return ChainEstimate(orders, grid, count, mean, moment, proper_fraction)


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
        for y in ys.tolist():  # Python floats: t * y may overflow to inf, quietly
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
    est = estimate_term(spec, range(1, N + 1), [t])
    return est.series(0, spec.total_mass, tail_bound(spec, t, N))


def estimate_length_density(spec: SamplerSpec, n: int, bins: int, l_max: float):
    """Histogram estimate of the order-n length-spectrum density.

    Returns (bin edges, density values, counts): counts[i] of the
    spec.samples chains are proper and have total length in bin i, and the
    density is scaled so that summing density * bin width approximates
    mu(X)^{n+1} restricted to [0, l_max].
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    edges = np.linspace(0.0, l_max, bins + 1)
    if not np.all(np.diff(edges) > 0):
        raise FloatingPointError(
            f"bin width underflows to 0: l_max = {l_max:.3g} split into {bins} bins")
    width = edges[1] - edges[0]

    def reduce(totals, propers, spare):
        total, proper = totals[-1], propers[-1]
        return np.histogram(total if proper is None else total[proper], bins=edges)[0]

    counts = sum(_map_batches(spec, n, reduce))
    density = counts * spec.total_mass ** (n + 1) / (spec.samples * width)
    return edges, density, counts


def length_density_stderr(spec: SamplerSpec, n: int, width: float,
                          counts: np.ndarray) -> np.ndarray:
    """Standard error of each bin of estimate_length_density.

    A bin's count c out of S = spec.samples chains is binomial, so the
    error of its density mu(X)^{n+1} c / (S width) is
    mu(X)^{n+1} / (S width) * sqrt(c (1 - c / S)).  An empty bin takes the
    error of one count, since a zero count does not show a zero density.
    """
    S = spec.samples
    c = np.maximum(counts, 1)
    return spec.total_mass ** (n + 1) / (S * width) * np.sqrt(c * (1.0 - c / S))
