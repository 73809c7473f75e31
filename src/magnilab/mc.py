"""Monte-Carlo estimation of chain integrals over analytic spaces.

The order-n term is a_n(t) = integral over X^{n+1} of exp(-t * total chain
length) times the proper-chain indicator.  We sample from the normalized
measure and multiply by mu(X)^{n+1}.  The indicator only matters for measures
with atoms (interval weight measure); atom identity is tracked by integer
tags, never by float comparison.  This module only samples: the exact
references for its estimates, and the leg-integral bound behind tail_bound,
come from closed_forms.

One engine, _map_batches, draws every tile of TILE = 2^16 chains and
reduces it.  A draw is one (N+1)-point chain, extended a point at a time,
and order n reads its n-leg prefix: the running total length after leg n,
and the running AND of the per-leg proper indicators.  A tile reduces to
sums of v_n = exp(-t L_n) * proper_n and of every product v_i v_j, for each
t of a grid, or to histogram counts.  The chains do not depend on t, so
estimate_term(spec, N, grid) draws them once for the orders 1..N and the
whole grid; its ChainEstimate gives each term with its error, and its
covariance, formed once from the summed products, the error of any partial
sum of the shared terms.

Each worker of a call keeps one scratch set of tile length for the whole
call: two point slots that the chain's points alternate between, and the
prefix lengths and indicators.  On the sphere at N = 2 that is six arrays
of 2^16 floats, about 3.1 MB per worker.  sample_batch and
geodesic_distance write into it through their out arguments, and the
reduce writes its chain values and products into the point slots, which
are dead by then.  On the sphere, the circle and the weighted interval,
drawing a tile allocates no float array: a sphere leg's temporary is the phi
of the point the chain leaves, dead once phi1 - phi2 is taken, a circle leg
writes 2 pi - delta over the point it leaves, and the atom placement writes
its products into the prefix row that the next leg writes (spare).
The set lives in a threading.local made per call, so it is gone when the
call returns.  Draws are rng.random(out=...) followed by the in-place
affine map, bit-identical to rng.uniform(lo, hi).

Sphere points are kept as rows (z, phi), and with s = sqrt(1 - z^2)
cos(theta) = z1 z2 + s1 s2 cos(phi1 - phi2), with the cosine taken from the
half angle: cos(d) = (1 - u^2) / (1 + u^2), u = tan(d / 2), within 4.4e-16
of np.cos.  NumPy vectorises float64 tan only on AVX512 machines, where
np.cos runs in scalar libm and costs about ten times more; elsewhere both
forms cost one libm call per leg.

Determinism contract: a fixed tile size, one random stream per tile index
derived from the master seed, and reduction in tile order.  A batch of
BATCH_SIZE = 4 TILE chains is the unit of thread-pool work, and a run of
at most one batch runs on the calling thread and starts no pool, whatever
the worker count.  Estimates are bit-identical for a given seed regardless
of worker count and batch size.
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
                     LineGaussian, LineLaplace, MagnitudeSeries, Sphere2)

TILE = 1 << 16
BATCH_SIZE = 4 * TILE


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
    """What to sample: space, master seed, sample count.

    A total mass that is not a finite float64 (2 pi r = inf for r = 1e308)
    raises OverflowError before any sampling, whose lengths would overflow.
    """

    space: AnalyticSpace
    seed: int = 0
    samples: int = 1_000_000

    def __post_init__(self):
        if not math.isfinite(self.total_mass):
            raise OverflowError(f"total mass {self.total_mass} of the sampled measure "
                                "is not a finite float64")

    @property
    def total_mass(self) -> float:
        return self.space.total_mass


def _mass_power(total_mass: float, power: int) -> float:
    """mu(X)^power, the scale of an order-(power - 1) chain term."""
    return closed_forms._named_power(total_mass, power, "mu(X)")


@dataclass(frozen=True)
class ChainEstimate:
    """Estimates of a_1(t), ..., a_N(t) for each t = grid[i] of the grid
    estimate_term was given, from shared chains.

    With v_n = exp(-t L_n) * proper_n for the n-leg prefix of a chain,
    mean[i, n - 1] is the chain mean of v_n at grid[i], and cov[i, j - 1, k - 1]
    the chain mean of v_j * v_k minus the product of their means.
    """

    count: int
    mean: np.ndarray
    cov: np.ndarray
    proper_fraction: float

    def term(self, n: int, i: int, total_mass: float) -> tuple[float, float]:
        """(value, std error) of a_n(grid[i]), n in 1..N, for a measure of total
        mass total_mass."""
        if not 1 <= n <= self.mean.shape[1]:
            raise ValueError(f"order {n} is outside 1..{self.mean.shape[1]}")
        mean, var = float(self.mean[i, n - 1]), max(float(self.cov[i, n - 1, n - 1]), 0.0)
        scale = _mass_power(total_mass, n + 1)
        return scale * mean, scale * math.sqrt(var / self.count)

    def series(self, i: int, total_mass: float) -> MagnitudeSeries:
        """Partial sums at grid[i] for a measure of total mass total_mass.

        The terms share chains, so a partial sum's error is that of the
        per-chain alternating sum sum_n c_n v_n, c_n = (-1)^n mu^{n+1}:
        sqrt(c^T Cov c / count) over the orders it includes.
        """
        orders = range(1, self.mean.shape[1] + 1)
        terms = tuple(self.term(n, i, total_mass)[0] for n in orders)
        c = np.array([(-1.0) ** n * _mass_power(total_mass, n + 1) for n in orders])
        var = np.cumsum(np.cumsum(c[:, None] * self.cov[i] * c, axis=0), axis=1).diagonal()
        errors = (0.0,) + tuple(math.sqrt(max(float(v), 0.0) / self.count) for v in var)
        return MagnitudeSeries(total_mass=total_mass, terms=terms, errors=errors)


@dataclass(frozen=True)
class Batch:
    """A batch of sampled points: coordinates plus atom tags (0 = diffuse)."""

    coords: np.ndarray | tuple[np.ndarray, ...]
    tags: np.ndarray | None = None


def _empty_batch(space: AnalyticSpace, m: int) -> Batch:
    """Uninitialised arrays for m points of the space, as sample_batch fills them."""
    if isinstance(space, Sphere2):
        return Batch((np.empty(m), np.empty(m)))
    if isinstance(space, FlatTorusUnit):
        return Batch(np.empty((m, 2)))
    atoms = isinstance(space, Interval) and space.measure != "lebesgue"
    return Batch(np.empty(m), np.empty(m, dtype=np.int8) if atoms else None)


def _uniform(rng: np.random.Generator, lo: float, hi: float, out: np.ndarray) -> np.ndarray:
    """rng.uniform(lo, hi) drawn into out: lo + (hi - lo) * u, bit for bit.
    A factor 1 or a shift 0 changes no bit of u >= 0, so it is skipped."""
    rng.random(out=out)
    if hi - lo != 1.0:
        out *= hi - lo
    if lo:
        out += lo
    return out


def sample_batch(spec: SamplerSpec, rng: np.random.Generator, m: int, out: Batch,
                 spare: np.ndarray) -> Batch:
    """Draw m points from the normalized measure of the space.

    out, a Batch from _empty_batch for the same space with at least m
    points, takes the draws in its first m entries; the result views them.
    spare, a float array of at least m entries that the call may overwrite,
    holds the atom placement's products.
    """
    sp = spec.space
    if isinstance(out.coords, tuple):
        coords = tuple(c[:m] for c in out.coords)
    else:
        coords = out.coords[:m]
    tags = None if out.tags is None else out.tags[:m]
    if isinstance(sp, Circle):
        _uniform(rng, 0.0, 2.0 * math.pi, coords)
    elif isinstance(sp, Sphere2):
        z, phi = coords
        _uniform(rng, -1.0, 1.0, z)
        _uniform(rng, 0.0, 2.0 * math.pi, phi)
    elif isinstance(sp, FlatTorusUnit):
        _uniform(rng, 0.0, 1.0, coords)
    elif isinstance(sp, Interval) and sp.measure == "lebesgue":
        _uniform(rng, sp.a, sp.b, coords)
    elif isinstance(sp, Interval):
        # atoms a, b each carry probability p = atom_mass / mu(X); the selector
        # u is drawn first, into the array the positions overwrite next, and
        # tags 2 [u < 2p] - [u < p] are 1 below p and 2 in [p, 2p).  Masked
        # products place the atoms: x [tag 0] + a [tag 1] + b [tag 2]; each
        # mask is cast into spare first, since a ufunc fed the bool mask
        # casts it through buffers of its own
        p_atom = sp.atom_mass / sp.total_mass
        spare = spare[:m]
        u = _uniform(rng, 0.0, 1.0, coords)
        np.less(u, 2 * p_atom, out=tags.view(bool))
        tags += tags
        tags -= u < p_atom
        x = _uniform(rng, sp.a, sp.b, coords)
        np.copyto(spare, tags == 0)
        x *= spare
        for tag, at in ((1, sp.a), (2, sp.b)):
            np.copyto(spare, tags == tag)
            x += np.multiply(spare, at, out=spare)
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


def geodesic_distance(space: AnalyticSpace, p, q, out: np.ndarray) -> np.ndarray:
    """Vectorized intrinsic distance between sampled point arrays, written
    into out and returned.  The call may also use p's arrays as scratch,
    as the chain leaves p behind."""
    if isinstance(space, Sphere2):
        (z1, phi1), (z2, phi2) = p, q
        cosang = np.subtract(phi1, phi2, out=out)
        tmp = phi1  # phi1 is dead now
        _half_angle_cos(cosang, tmp)
        for z in (z1, z2):  # s = sqrt(1 - z^2), the sine of the polar angle
            np.subtract(1.0, np.multiply(z, z, out=tmp), out=tmp)
            cosang *= np.sqrt(tmp, out=tmp)
        cosang += np.multiply(z1, z2, out=tmp)
        np.clip(cosang, -1.0, 1.0, out=cosang)
        np.arccos(cosang, out=cosang)
        cosang *= space.r
        return cosang
    if isinstance(space, Circle):
        delta = np.subtract(p, q, out=out)
        np.abs(delta, out=delta)
        other = np.subtract(2.0 * math.pi, delta, out=p)  # p is dead
        np.minimum(delta, other, out=delta)
        delta *= space.r
        return delta
    if isinstance(space, FlatTorusUnit):
        delta = np.subtract(p, q, out=p)
        np.abs(delta, out=delta)
        np.minimum(delta, 1.0 - delta, out=delta)
        delta *= delta
        return np.sqrt(delta.sum(axis=1, out=out), out=out)
    if isinstance(space, (Interval, LineGaussian, LineLaplace)):
        delta = np.subtract(p, q, out=out)
        return np.abs(delta, out=delta)
    raise TypeError(f"no metric for {type(space).__name__}")


class _Scratch:
    """One worker's arrays for tiles of up to `size` chains of N legs."""

    def __init__(self, space: AnalyticSpace, size: int, N: int):
        self.slots = (_empty_batch(space, size), _empty_batch(space, size))
        self.totals = np.empty((N, size))
        atoms = self.slots[0].tags is not None
        self.propers = np.empty((N, size), dtype=bool) if atoms else None


def _map_batches(spec: SamplerSpec, N: int, reduce) -> list:
    """reduce(totals, propers, spare) on every tile of (N+1)-point chains.

    Each chain grows one sampled point at a time: totals[n - 1] is the length
    of its n-leg prefix, the order-n chain, and propers[n - 1] the running AND
    of the per-leg proper indicators (None on a space without atoms).  spare
    lists float arrays of the tile's length that are dead by the reduce;
    the reduce may write into them and into totals, and must return arrays
    of its own, because the next tile of the worker reuses all of them.
    Tile j holds chains [j TILE, (j + 1) TILE) and draws from the stream
    with spawn key (1, j); a pool task runs the tiles of one batch of
    BATCH_SIZE chains in order, and the results come back in tile order
    whatever the worker count.
    """
    tiles = [(j, min(TILE, spec.samples - start))
             for j, start in enumerate(range(0, spec.samples, TILE))]
    per_batch = BATCH_SIZE // TILE
    batches = [tiles[i:i + per_batch] for i in range(0, len(tiles), per_batch)]
    local = threading.local()  # each worker's scratch set, for this call only

    def draw(j, m):
        scratch = getattr(local, "scratch", None)
        if scratch is None:
            scratch = local.scratch = _Scratch(spec.space, min(TILE, spec.samples), N)
        ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(1, j))
        rng = np.random.Generator(np.random.PCG64(ss))
        totals = [row[:m] for row in scratch.totals]
        propers = [None] * N if scratch.propers is None else [row[:m] for row in scratch.propers]
        # a draw's spare is the prefix row its leg writes next
        prev = sample_batch(spec, rng, m, out=scratch.slots[0], spare=totals[0])
        for n in range(N):
            point = sample_batch(spec, rng, m, out=scratch.slots[(n + 1) % 2], spare=totals[n])
            geodesic_distance(spec.space, prev.coords, point.coords, out=totals[n])
            if n:  # a length past the float range is inf, whose exp(-t L) is 0
                with np.errstate(over="ignore"):
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

    def work(batch):
        return [draw(j, m) for j, m in batch]

    if len(batches) > 1 and worker_count() > 1:
        with ThreadPoolExecutor(max_workers=worker_count()) as ex:
            return [r for rs in ex.map(work, batches) for r in rs]  # map keeps batch order
    return [r for batch in batches for r in work(batch)]


def _fsum_batches(parts: list) -> np.ndarray:
    """Entrywise math.fsum of equally shaped per-tile arrays."""
    stacked = np.asarray(parts, dtype=float)
    flat = stacked.reshape(len(parts), -1).T
    return np.array([math.fsum(col) for col in flat]).reshape(stacked.shape[1:])


def estimate_term(spec: SamplerSpec, N: int, grid) -> ChainEstimate:
    """Monte-Carlo estimates of a_1(t), ..., a_N(t) for every t in grid, from
    one set of (N+1)-point chains.

    Order n reads the n-leg prefix of each chain, and the chains do not
    depend on t, so each tile is reduced for every t (common random
    numbers).  An order's estimate depends only on the seed and the sample
    count: it is bit-identical whatever N and t are asked for.  With shared
    chains the estimates are strictly decreasing in t whenever at least one
    sampled chain is proper.  The result's term(n, i, mass) is the value and
    standard error of a_n at grid[i], and its series(i, mass) the partial
    sums with the errors its covariance gives.  N = 0 draws nothing.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    grid = tuple(float(x) for x in grid)
    T, count = len(grid), spec.samples

    def reduce(totals, propers, spare):
        # every t but the last writes its values into dead arrays, and the
        # last over the lengths, which it needs no more
        need = 1 + (N if T > 1 else 0)
        prod, *values = spare[:need] + [np.empty_like(totals[0]) for _ in range(need - len(spare))]
        sums, moments = np.empty((T, N)), np.empty((T, N, N))
        for i, x in enumerate(grid):
            last = i == T - 1
            vals = []
            for n, (total, proper) in enumerate(zip(totals, propers)):
                # t L may overflow to inf, and exp(-inf) = 0 is then exact
                with np.errstate(over="ignore"):
                    v = np.multiply(total, -x, out=total if last else values[n])
                np.exp(v, out=v)
                if proper is not None:
                    v *= proper
                vals.append(v)
            for j, a in enumerate(vals):
                sums[i, j] = a.sum()
                for k in range(j, N):
                    moments[i, j, k] = moments[i, k, j] = np.multiply(a, vals[k], out=prod).sum()
        proper = propers[-1]
        return sums, moments, len(totals[-1]) if proper is None else int(proper.sum())

    if not N:
        return ChainEstimate(count, np.empty((T, 0)), np.empty((T, 0, 0)), 1.0)
    tiles = _map_batches(spec, N, reduce)
    mean = _fsum_batches([s for s, _, _ in tiles]) / count
    cov = _fsum_batches([q for _, q, _ in tiles]) / count - mean[:, :, None] * mean[:, None, :]
    return ChainEstimate(count, mean, cov, sum(p for _, _, p in tiles) / count)


def tail_bound(spec: SamplerSpec, t: float, N: int) -> float | None:
    """mu(X) * c^{N+1} / (1 - c) if c(t) < 1, else None ("no bound"): a bound
    on the truncation error of the order-N partial magnitude."""
    c = closed_forms.leg_integral_bound(spec.space, t)
    if c >= 1.0:
        return None
    return spec.total_mass * c ** (N + 1) / (1.0 - c)


def estimate_partial_magnitude(spec: SamplerSpec, t: float, N: int) -> MagnitudeSeries:
    """mu(X) + sum (-1)^n a_n, every order read from one set of (N+1)-point
    chains, with partial-sum errors from the chains' covariance."""
    return estimate_term(spec, N, [t]).series(0, spec.total_mass)


def estimate_length_density(spec: SamplerSpec, n: int, bins: int, l_max: float):
    """Histogram estimate of the order-n length-spectrum density.

    Returns (bin edges, density values, standard errors).  A bin's count c
    of the S = spec.samples chains are proper and have total length in it;
    the density mu(X)^{n+1} c / (S width) is scaled so that summing density
    * bin width approximates mu(X)^{n+1} restricted to [0, l_max].  c is
    binomial, so its density's error is mu(X)^{n+1} / (S width) *
    sqrt(c (1 - c / S)); an empty bin takes the error of one count, since a
    zero count does not show a zero density.
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
    S, power, c = spec.samples, _mass_power(spec.total_mass, n + 1), np.maximum(counts, 1)
    with np.errstate(over="ignore"):  # a subnormal width may put it past the float range
        density = counts * power / (S * width)
        return edges, density, power / (S * width) * np.sqrt(c * (1.0 - c / S))
