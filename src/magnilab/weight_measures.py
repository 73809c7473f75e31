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

from . import closed_forms, mc
from .spaces import AnalyticSpace, Circle, Interval, Sphere2


# ---------------------------------------------------------------------------
# homogeneous weight measures (Speyer normalization)
# ---------------------------------------------------------------------------

def homogeneous_weight_constant(space: AnalyticSpace, t: float) -> float:
    """c_tilde = 1 / J(t) for circle and 2-sphere, where the leg integral
    J(t) = int exp(-t*d(x,y)) dvol is the same at every basepoint y.

    Circle(r): t / (2(1 - e^{-t pi r}));
    Sphere2(r): (t^2 r^2 + 1) / (2 pi r^2 (1 + e^{-t pi r})).
    """
    if not isinstance(space, (Circle, Sphere2)):
        raise TypeError(f"no homogeneous weight constant for {type(space).__name__}")
    leg = mc.leg_integral_bound(space, t)
    c = 1.0 / leg if leg > 0 else math.inf  # J(t) underflows to 0 at large t
    if not math.isfinite(c):
        raise OverflowError(f"weight constant 1/J(t) overflows at r = {space.r:g}, t = {t:g}")
    return c


def homogeneous_weight_mass(space: AnalyticSpace, t: float) -> float:
    """mu_w(X) = c_tilde * Vol(X)."""
    mass = homogeneous_weight_constant(space, t) * space.total_mass
    if not math.isfinite(mass):
        raise OverflowError(f"weight mass c_tilde * Vol(X) overflows at r = {space.r:g}, t = {t:g}")
    return mass


@dataclass(frozen=True)
class WeightCheckRow:
    N: int
    value: float
    target: float
    std_error: float


def weight_partial_magnitude_check(
    space: AnalyticSpace, grid, N: int, samples: int, seed: int
) -> list[list[WeightCheckRow]]:
    """MC partial sums under the weight-normalized measure vs the exact
    pattern (mu_w(X) for even N, 0 for odd N), one list of rows per t of grid.

    Only mu_w(X) depends on t, so one set of (N+1)-point chains is drawn
    from the normalized measure for every order and t, and each t reads its
    partial sums and their errors with total mass mu_w(X).
    """
    spec = mc.SamplerSpec(space, seed=seed, samples=samples)  # checks the mass first
    masses = [homogeneous_weight_mass(space, t) for t in grid]
    # the weight identity holds for the metric t*d, so estimate at scale t
    est = mc.estimate_term(spec, range(1, N + 1), grid)
    out = []
    for i, mass in enumerate(masses):
        series = est.series(i, mass)
        errors = series.partial_sum_errors()
        out.append([WeightCheckRow(k, series.partial_sums[k], mass if k % 2 == 0 else 0.0,
                                   errors[k]) for k in range(N + 1)])
    return out


# ---------------------------------------------------------------------------
# interval weight measure: composition formula vs corrected vs brute force
# ---------------------------------------------------------------------------

#: largest order of the comparison table
MAX_N = 20


def _composition_weights(s: int, one: int) -> list[int]:
    """[sum of one^(number of parts 1) * 2^f over the compositions of s with
    cluster statistic g, for g = 0..s]: f counts the maximal runs of parts
    >= 2, and g sums (run length - 1) over them.

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
    return [a + b for a, b in zip(ends_one[s], ends_big[s])]


@lru_cache(maxsize=MAX_N)
def composition_coefficients(n: int) -> tuple[tuple[int, ...], tuple]:
    """(plain, mass) coefficients by g of the order-n composition sums.

    Over the compositions lambda of n+1 with a part >= 2, plain[g] sums 2^f
    and mass[g] sums 2^f (1/2)^rep over those with statistic g, where rep is
    the sum of the parts >= 2.  (1/2)^rep = 2^{(number of parts 1) - (n+1)},
    so both are counted by _composition_weights; the all-ones composition
    (f = g = rep = 0) is then taken out.
    """
    from fractions import Fraction

    plain = _composition_weights(n + 1, 1)
    scaled = _composition_weights(n + 1, 2)
    plain[0] -= 1
    scaled[0] -= 2 ** (n + 1)
    return tuple(plain), tuple(Fraction(c, 2 ** (n + 1)) for c in scaled)


def interval_weight_partition_sum(N: int, L: float, t: float = 1.0) -> tuple[float, float]:
    """(verbatim, corrected) composition-formula values of Mag;N.

    Verbatim: mu_w(X) - sum_{n<=N} (-1)^n sum_lambda 2^{f} e^{-t L g}, the
    published display (stated at t = 1; the t scaling is an extension).

    Corrected: alternating bookkeeping with the non-proper mass per lambda
    additionally carrying the atom masses (1/2)^{sum of parts >= 2}:
    mu_w + sum_n (-1)^n (mu_w - sum_lambda 2^f e^{-t L g} (1/2)^{rep}).

    The sums over lambda come from composition_coefficients; each value is
    summed exactly from the float e^{-t L g} and rounded once.
    """
    if N > MAX_N:
        raise ValueError(f"the comparison table stops at N = {MAX_N}")
    from fractions import Fraction

    mass = Fraction(1.0 + L / 2.0)
    # at g = 0 the decay is exp(-0.0) = 1, also where t L overflows and 0 * inf is nan
    decay = [Fraction(math.exp(-t * L * g)) if g else Fraction(1) for g in range(N + 2)]
    verbatim = corrected = mass
    for n in range(1, N + 1):
        plain, atom_mass = composition_coefficients(n)
        sign = (-1) ** n
        verbatim -= sign * sum(c * x for c, x in zip(plain, decay))
        corrected += sign * (mass - sum(c * x for c, x in zip(atom_mass, decay)))
    return float(verbatim), float(corrected)


# An lru_cache because bench/traced_cli.py reports its cache_info() after
# each run; bounded, because float keys would grow for the life of the process.
@lru_cache(maxsize=64)
def _kernel_cache(t: float, L: float, N: int) -> tuple[float, ...]:
    """[a_0, ..., a_N] for the proper-chain integrals under (delta_a+delta_b+Leb)/2."""
    return tuple(closed_forms.interval_chain_terms(N, t, L, 0.5, 0.5))


def interval_weight_bruteforce(N: int, L: float, t: float = 1.0) -> float:
    """Exact partial magnitude Mag;N for the interval weight measure."""
    return sum((-1.0) ** n * a for n, a in enumerate(_kernel_cache(t, L, N)))


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
    """Side-by-side comparison of the three routes plus an MC estimate."""
    space = Interval(0.0, L, "weight")
    spec = mc.SamplerSpec(space, seed=seed, samples=samples)
    series = mc.estimate_partial_magnitude(spec, t, N_max)
    errs = series.partial_sum_errors()
    rows = []
    for N in range(1, N_max + 1):
        verbatim, corrected = interval_weight_partition_sum(N, L, t)
        rows.append(IntervalWeightRow(
            N, verbatim, corrected, interval_weight_bruteforce(N, L, t),
            series.partial_sums[N], errs[N]
        ))
    return rows
