"""Weight measures, and the interval boundary-weight measure.

A weight measure satisfies int exp(-d(x,y)) dmu_w(x) = 1 for every basepoint
y, which collapses every chain integral to mu_w(X): even partial sums equal
mu_w(X) and odd ones vanish.  On homogeneous spaces the weight measure is
c_tilde * dvol with c_tilde = 1 / int exp(-t d(x,y)) dvol.

For the interval [a,b] the weight measure (delta_a + delta_b + Lebesgue)/2
has atoms, so non-proper chains carry mass and the proper-chain integral
needs correction terms indexed by integer compositions.  This module exposes
the published composition formula, an atom-mass-corrected variant, and an
exact oracle, closed_forms.interval_chain_terms: a transfer recursion over
the chain's last point (atom a, atom b, or an interior density kept as an
exponential polynomial), in decimal arithmetic, for every order up to
MAX_N = 20.  The oracle is the source of truth; the comparison between the
three is a deliverable, not an assertion that they agree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from . import closed_forms, mc
from .spaces import AnalyticSpace, Interval, MagnitudeSeries


# ---------------------------------------------------------------------------
# homogeneous weight measures (Speyer normalization)
# ---------------------------------------------------------------------------

def homogeneous_weight_mass(space: AnalyticSpace, t: float) -> float:
    """mu_w(X) = c_tilde * Vol(X) = Vol(X) / J(t) on the circle and the
    2-sphere: the inverse of closed_forms.leg_ratio."""
    ratio = closed_forms.leg_ratio(space, t)
    mass = 1.0 / ratio if ratio > 0 else math.inf  # the ratio underflows to 0 at large r t
    if not math.isfinite(mass):
        raise OverflowError(f"weight mass Vol(X)/J(t) overflows at r = {space.r:g}, t = {t:g}")
    return mass


def weight_partial_magnitude_check(
    space: AnalyticSpace, grid, N: int, samples: int, seed: int
) -> list[MagnitudeSeries]:
    """MC partial sums Mag;0..N under the weight-normalized measure, one
    series per t of grid, to compare with the exact pattern: the series'
    total_mass mu_w(X) at even orders, 0 at odd ones.

    Only mu_w(X) depends on t, so one set of (N+1)-point chains is drawn
    from the normalized measure for every order and t, and each t reads its
    partial sums and their errors with total mass mu_w(X).
    """
    spec = mc.SamplerSpec(space, seed=seed, samples=samples)  # checks the mass first
    masses = [homogeneous_weight_mass(space, t) for t in grid]
    # the weight identity holds for the metric t*d, so estimate at scale t
    est = mc.estimate_term(spec, N, grid)
    return [est.series(i, mass) for i, mass in enumerate(masses)]


# ---------------------------------------------------------------------------
# interval weight measure: composition formula vs corrected vs brute force
# ---------------------------------------------------------------------------

#: largest order of the comparison table
MAX_N = 20


def _composition_weights(s: int, one: int) -> list[list[int]]:
    """Row k, for k = 0..s: [sum of one^(number of parts 1) * 2^f over the
    compositions of k with cluster statistic g, for g = 0..s]: f counts the
    maximal runs of parts >= 2, and g sums (run length - 1) over them.

    A dynamic program over the parts; its one state is whether the last part
    is >= 2.  A part >= 2 after a part 1 (or at the start) opens a run, f + 1;
    after a part >= 2 it extends the run, g + 1.
    """
    ends_one = [[1] + [0] * s]  # the empty composition opens no run
    ends_big = [[0] * (s + 1)]
    for total in range(1, s + 1):
        ends_one.append([one * (a + b) for a, b in zip(ends_one[-1], ends_big[-1])])
        big = [0] * (s + 1)
        for p in range(2, total + 1):
            after_one, after_big = ends_one[total - p], ends_big[total - p]
            for g in range(s + 1):
                big[g] += 2 * after_one[g] + (after_big[g - 1] if g else 0)
        ends_big.append(big)
    return [[a + b for a, b in zip(*rows)] for rows in zip(ends_one, ends_big)]


def interval_weight_partition_sum(N: int, L: float, t: float = 1.0) -> list[tuple[float, float]]:
    """[(verbatim, corrected)] composition-formula values of Mag;n, n = 1..N.

    Verbatim: mu_w(X) - sum_{k<=n} (-1)^k sum_lambda 2^{f} e^{-t L g}, the
    published display (stated at t = 1; the t scaling is an extension).

    Corrected: alternating bookkeeping with the non-proper mass per lambda
    additionally carrying the atom masses (1/2)^{sum of parts >= 2}:
    mu_w + sum_k (-1)^k (mu_w - sum_lambda 2^f e^{-t L g} (1/2)^{rep}).

    The sums over lambda, the compositions of k+1 with a part >= 2, come
    from _composition_weights: (1/2)^rep = 2^{(number of parts 1) - (k+1)},
    so the mass sums are its one = 2 rows over 2^{k+1}, and the all-ones
    composition (f = g = rep = 0) is taken out of both.  Each value is
    summed exactly from the float e^{-t L g} and rounded once.
    """
    if N > MAX_N:
        raise ValueError(f"the comparison table stops at N = {MAX_N}")
    from fractions import Fraction

    mass = Fraction(1.0 + L / 2.0)
    # at g = 0 the decay is exp(-0.0) = 1, also where t L overflows and 0 * inf is nan
    decay = [Fraction(math.exp(-t * L * g)) if g else Fraction(1) for g in range(N + 2)]
    plain, scaled = (_composition_weights(N + 1, one) for one in (1, 2))
    verbatim = corrected = mass
    rows = []
    for n in range(1, N + 1):
        sign = (-1) ** n
        verbatim -= sign * (sum(c * x for c, x in zip(plain[n + 1], decay)) - 1)
        atom_mass = sum(c * x for c, x in zip(scaled[n + 1], decay)) / 2 ** (n + 1) - 1
        corrected += sign * (mass - atom_mass)
        rows.append((float(verbatim), float(corrected)))
    return rows


# An lru_cache because bench/traced_cli.py reports its cache_info() after
# each run; bounded, because float keys would grow for the life of the process.
@lru_cache(maxsize=64)
def _kernel_cache(t: float, L: float, N: int) -> tuple[float, ...]:
    """[a_0, ..., a_N] for the proper-chain integrals under (delta_a+delta_b+Leb)/2."""
    return tuple(closed_forms.interval_chain_terms(N, t, L, 0.5, 0.5))


def interval_weight_bruteforce(N: int, L: float, t: float = 1.0) -> list[float]:
    """Exact partial magnitudes [Mag;0, ..., Mag;N] for the interval weight
    measure, from one transfer recursion."""
    return list(accumulate((-1.0) ** n * a for n, a in enumerate(_kernel_cache(t, L, N))))


@dataclass(frozen=True)
class IntervalWeightRow:
    N: int
    paper_formula: float
    corrected_formula: float
    bruteforce: float
    mc_estimate: float
    mc_stderr: float


def interval_weight_report(
    N_max: int, L: float, t: float = 1.0, samples: int = 200_000, seed: int = 0
) -> list[IntervalWeightRow]:
    """Side-by-side comparison of the three routes plus an MC estimate, for
    N = 1..N_max: one run of each exact route and one set of chains give
    every row."""
    space = Interval(0.0, L, "weight")
    spec = mc.SamplerSpec(space, seed=seed, samples=samples)
    series = mc.estimate_partial_magnitude(spec, t, N_max)
    exact = zip(interval_weight_partition_sum(N_max, L, t),
                interval_weight_bruteforce(N_max, L, t)[1:])
    return [IntervalWeightRow(N, verbatim, corrected, brute, series.partial_sums[N],
                              series.errors[N])
            for N, ((verbatim, corrected), brute) in enumerate(exact, 1)]
