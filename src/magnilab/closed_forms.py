"""Exact reference values for chain integrals on circles, spheres, tori,
intervals, and weighted lines.

Notation: for a space X with measure mu and scale t > 0, the order-n chain
integral is

    a_n(t) = integral over X^{n+1} of exp(-t * sum of consecutive distances).

On a homogeneous space the inner integral J(t) = int exp(-t*d(x,y)) dmu(x) is
independent of the basepoint y, so integrating legs one at a time gives the
factorization a_n(t) = mu(X) * J(t)**n.  That identity gives the circle,
sphere and torus references at every order, and is cross-checked against
quadrature of the published length-spectrum densities in the test suite.

This module is the one that knows which formula belongs to which analytic
space: chain_terms, length_density and leg_integral_bound take a space of
magnilab.spaces and dispatch on it.
"""
from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .spaces import (AnalyticSpace, Circle, FlatTorusUnit, Interval, LineGaussian,
                     LineLaplace, Sphere2)


def _quad(f, a: float, b: float, **options) -> float:
    """int_a^b f by QUADPACK: scipy.integrate.quad(f, a, b, **options) at
    limit=200 unless options set it.  quad is looked up at each call, so a
    wrapper installed on scipy.integrate after import sees every call."""
    from scipy import integrate

    return integrate.quad(f, a, b, **{"limit": 200, **options})[0]


def _power(x: float, k: int) -> float:
    """x**k, or inf where the float power raises OverflowError.  Each caller
    divides by it, so the term underflows to 0 as a product would."""
    try:
        return x**k
    except OverflowError:
        return math.inf


def _named_power(x: float, k: int, name: str) -> float:
    """x**k.  Where the float power raises a bare errno OverflowError (a
    product would give inf), the OverflowError raised names name^k."""
    try:
        return x**k
    except OverflowError:
        raise OverflowError(f"{name}^{k} = {x:.3g}^{k} exceeds the float range") from None


# ---------------------------------------------------------------------------
# circle of radius r, arc-length metric, dvol measure (total 2*pi*r)
# ---------------------------------------------------------------------------

def circle_leg_integral(r: float, t: float) -> float:
    """J(t) = int_circle exp(-t*d(x,y)) dvol(x) = 2(1 - exp(-pi*r*t))/t.

    expm1 keeps every digit of 1 - exp(-pi*r*t) as t -> 0.  Where pi*r*t
    is subnormal it has lost digits of its own, and J(t) is its limit
    2*pi*r to the last bit."""
    x = math.pi * r * t
    return -2.0 * math.expm1(-x) / t if x >= sys.float_info.min else 2.0 * math.pi * r


def circle_term(n: int, r: float, t: float) -> float:
    """a_n on the circle for n = 1, 2, 3.

    a_1 = 4*pi*r*(1-e^{-pi r t})/t
    a_2 = (8*pi*r/t^2)*(1 - 2e^{-pi r t} + e^{-2 pi r t})
    a_3 = 16*pi*r*((1-e^{-pi r t})/t)^3

    All three are instances of 2*pi*r * (2(1-e^{-pi r t})/t)^n.  The n = 3
    constant is frozen against the constrained-simplex quadrature oracle in
    the test suite (tolerance 1e-6).
    """
    if n not in (1, 2, 3):
        raise ValueError("circle catalog covers n = 1, 2, 3 only")
    return 2.0 * math.pi * r * _named_power(circle_leg_integral(r, t), n, "J(t)")


def circle_length_density(n: int, r: float, l) -> np.ndarray:
    """Density of the total chain length for order n on the circle.

    For n = 1 it is the constant 4*pi*r on (0, pi*r]; for general n it is
    2*pi*r * 2^n times the n-fold convolution of the uniform indicator on
    [0, pi*r] (an Irwin-Hall piecewise polynomial supported on [0, n*pi*r]).
    Implemented for n = 1, 2, 3.
    """
    scalar = np.isscalar(l) or np.ndim(l) == 0
    l = np.atleast_1d(np.asarray(l, dtype=float))
    d = math.pi * r
    if n == 1:
        out = np.where((l >= 0) & (l <= d), 4.0 * math.pi * r, 0.0)
    elif n == 2:
        conv = np.where(l <= d, l, 2 * d - l)
        out = 8.0 * math.pi * r * np.clip(conv, 0.0, None) * (l <= 2 * d)
    elif n == 3:
        conv = np.zeros_like(l)
        m = (l >= 0) & (l <= d)
        conv[m] = l[m] ** 2 / 2
        m = (l > d) & (l <= 2 * d)
        conv[m] = 3 * d * l[m] - l[m] ** 2 - 1.5 * d**2
        m = (l > 2 * d) & (l <= 3 * d)
        conv[m] = (l[m] ** 2 - 6 * d * l[m] + 9 * d**2) / 2
        out = 16.0 * math.pi * r * conv
    else:
        raise ValueError("length density implemented for n = 1, 2, 3")
    return out[0] if scalar else out


def circle_term_quadrature(n: int, r: float, t: float) -> float:
    """Independent oracle: Laplace transform of the length density.

    For n = 3 this is the constrained-simplex quadrature that freezes the
    catalog prefactor.
    """
    return _laplace_quadrature(circle_length_density, n, r, t)


#: past PEAK_SPAN / t, e^{-tl} is below e^{-PEAK_SPAN} of its value at 0
PEAK_SPAN = 64.0


def _peak_points(t: float, scale: float) -> list[float]:
    """Split points 1/t, 2/t, 4/t, ..., PEAK_SPAN/t for a Laplace transform
    int e^{-tl} f(l) dl from l = 0, or none when PEAK_SPAN/t >= scale, the
    integrand's own length scale.  Past that t the mass lies within a few
    1/t of 0, where quad on the whole range places no node and returns about
    0; on [c/t, 2c/t] e^{-tl} falls by e^{-c}, which one Gauss-Kronrod rule
    resolves."""
    if PEAK_SPAN / t >= scale:
        return []
    return [2.0**k / t for k in range(int(math.log2(PEAK_SPAN)) + 1)]


def _laplace_quadrature(density, n: int, r: float, t: float) -> float:
    """int_0^{n pi r} exp(-t l) density(n, r, l) dl, split at the multiples
    of the diameter pi r, where the length densities have kinks, and at
    _peak_points below the first of them."""
    d = math.pi * r
    return _quad(lambda l: math.exp(-t * l) * float(density(n, r, l)), 0.0, n * d,
                 points=_peak_points(t, d) + [k * d for k in range(1, n)], epsabs=1e-12)


# ---------------------------------------------------------------------------
# round 2-sphere of radius r (total mass 4*pi*r^2)
# ---------------------------------------------------------------------------

def sphere_leg_integral(r: float, t: float) -> float:
    """J(t) = 2*pi*r^2*(1 + exp(-pi*r*t))/(t^2 r^2 + 1).

    Where t^2 overflows and r^2 underflows, t^2 r^2 is inf * 0; it is taken
    as (t r)^2, which is finite, so J(t) is 0 as its factor r^2 is.  An r
    whose square overflows raises an OverflowError that names r^2."""
    r2 = _named_power(r, 2, "r")
    tr2 = _power(t, 2) * r2
    if math.isnan(tr2):
        tr2 = (t * r) ** 2
    return 2.0 * math.pi * r2 * (1.0 + math.exp(-math.pi * r * t)) / (tr2 + 1.0)


def sphere_term(n: int, r: float, t: float) -> float:
    """a_n on the 2-sphere for n = 1, 2: 4*pi*r^2 * J(t)^n.

    n = 1 equals the published closed form 2(2 pi)^2 r^4 (1+e^{-pi r t}) /
    (t^2 r^2 + 1).  For n = 2 the factorized value is the catalog entry; the
    printed n = 2 formula disagrees with it and with quadrature of the
    length density, and the test suite keeps it as a reference.
    """
    if n not in (1, 2):
        raise ValueError("sphere catalog covers n = 1, 2 only")
    return 4.0 * math.pi * r**2 * _named_power(sphere_leg_integral(r, t), n, "J(t)")


def sphere_length_density(n: int, r: float, l) -> np.ndarray:
    """Length-spectrum density on the 2-sphere for n = 1, 2.

    n = 1: 2(2 pi)^2 r^3 sin(l/r) on [0, pi r].
    n = 2: (2 pi)^3 r^4 (r sin(l/r) - l cos(l/r)) on [0, pi r] and
           (2 pi)^3 r^4 (r sin((2 pi r - l)/r) - (2 pi r - l) cos(l/r)) on
           [pi r, 2 pi r] (the sign on the cos term differs from the printed
           display; this version integrates to mu(X)^3 and matches Monte
           Carlo histograms).
    """
    scalar = np.isscalar(l) or np.ndim(l) == 0
    l = np.atleast_1d(np.asarray(l, dtype=float))
    d = math.pi * r
    if n == 1:
        out = 2 * (2 * math.pi) ** 2 * r**3 * np.sin(l / r) * ((l >= 0) & (l <= d))
    elif n == 2:
        from fractions import Fraction

        out = np.zeros_like(l)
        m = (l >= 0) & (l <= d)
        x = l[m] / r
        out[m] = (2 * math.pi) ** 3 * r**4 * np.where(
            x < 0.1, r * _sin_minus_x_cos_series(x), r * np.sin(x) - l[m] * np.cos(x))
        m = (l > d) & (l <= 2 * d)
        # cos(l/r) = cos y for y = (2 pi r - l)/r, so this is the first
        # branch's function of y.  2 pi r = 2d + lo to twice the precision,
        # and 2d - l is exact, so y keeps its digits as l -> 2 pi r
        lo = float(Fraction(2 * math.pi) * Fraction(r) - Fraction(2 * d)) + _TWO_PI_LOW * r
        y = np.maximum((2 * d - l[m] + lo) / r, 0.0)
        out[m] = (2 * math.pi) ** 3 * r**4 * np.where(
            y < 0.1, r * _sin_minus_x_cos_series(y), r * (np.sin(y) - y * np.cos(y)))
    else:
        raise ValueError("sphere length density implemented for n = 1, 2")
    return out[0] if scalar else out


_TWO_PI_LOW = 2.4492935982947064e-16  # 2 pi - float(2 pi)


def _sin_minus_x_cos_series(x: np.ndarray) -> np.ndarray:
    """sin x - x cos x = x^3/3 - x^5/30 + x^7/840 - ..., to five terms, which
    hold it to 1e-17 relative for x < 0.1; there the two products cancel in
    up to 2 log10(1/x) leading digits, all of them at x = 1e-8."""
    x2 = x * x
    return x * x2 * (1 / 3 - x2 * (1 / 30 - x2 * (1 / 840 - x2 * (1 / 45360 - x2 / 3991680))))


def sphere_term_quadrature(n: int, r: float, t: float) -> float:
    """Laplace-transform oracle for the sphere catalog."""
    return _laplace_quadrature(sphere_length_density, n, r, t)


# ---------------------------------------------------------------------------
# unit flat torus (total mass 1, diameter R = 1/sqrt(2), inj. radius 1/2)
# ---------------------------------------------------------------------------

TORUS_R = 1.0 / math.sqrt(2.0)
TORUS_RHO = 0.5


def torus_level_volume(l: float) -> float:
    """Perimeter F(l) of the geodesic circle of radius l on the unit torus.

    F(l) = 2*pi*l for l <= 1/2, and l*(2*pi - 8*arccos(1/(2l))) for
    1/2 <= l <= 1/sqrt(2); continuous at the kink, zero at the diameter.
    """
    if not 0.0 <= l <= TORUS_R + 1e-15:
        raise ValueError(f"level radius {l} outside [0, 1/sqrt(2)]")
    if l <= TORUS_RHO:
        return 2.0 * math.pi * l
    return l * (2.0 * math.pi - 8.0 * math.acos(1.0 / (2.0 * l)))


def torus_first_term(t: float) -> float:
    """a_1 on the unit torus: int_0^R exp(-t*l) F(l) dl, split at the kink."""
    if t <= 0:
        raise ValueError("scale t must be positive")
    return (_quad(lambda l: math.exp(-t * l) * 2.0 * math.pi * l, 0.0, TORUS_RHO, epsabs=1e-12,
                  points=_peak_points(t, TORUS_RHO) or None)  # below t = 128, quad's unsplit rule
            + _quad(lambda l: math.exp(-t * l) * torus_level_volume(l), TORUS_RHO, TORUS_R,
                    epsabs=1e-12))


def torus_arccos_integral(t: float) -> float:
    """int_rho^R exp(-t*l) * l * arccos(1/(2l)) dl (the cut-locus term)."""
    return _quad(lambda l: math.exp(-t * l) * l * math.acos(1.0 / (2.0 * l)),
                 TORUS_RHO, TORUS_R, epsabs=1e-13)


def torus_first_term_identity(t: float) -> float:
    """Equivalent expression 2 pi/t^2 - 8*(arccos integral) - 2 pi (Rt+1)e^{-tR}/t^2,
    with the first and last terms as 2 pi P(2, Rt)/t^2, which does not cancel as t -> 0.
    Below Rt = 1e-9 the series P(2, x)/x^2 = 1/2 - x/3 + O(x^2) is exact in
    float64, and it stays so where t^2 and P(2, Rt) underflow."""
    x = t * TORUS_R
    head = TORUS_R**2 * (0.5 - x / 3.0) if x < 1e-9 else _exp_moment(1, t, TORUS_R)
    return float(2.0 * math.pi * head - 8.0 * torus_arccos_integral(t))


# ---------------------------------------------------------------------------
# interval [a, b] of length L with Lebesgue measure
# ---------------------------------------------------------------------------

def _exp_moment(j: int, t: float, L: float) -> float:
    """I_j = int_0^L (u^j / j!) exp(-t*u) du = P(j+1, tL) / t^{j+1}."""
    from scipy.special import gammainc

    return gammainc(j + 1, t * L) / _power(t, j + 1)


@lru_cache(maxsize=4096)  # one interval_term(n) call keeps about n^2/2 entries
def interval_alpha(m: int, k: int, t: float, L: float) -> float:
    """Boundary-kernel chain integrals over [0, L]^m.

    alpha(m, k) = int_{[0,L]^m} exp(-t * sum |x_{j-1}-x_j|) *
                  [(L-x_last)^k + x_last^k]/k! * exp(-t*(L-x_last) resp. x_last)

    Base case alpha(1, k) = 2*I_k.  The recursion integrates out the variable
    carrying the boundary kernel:

    alpha(m, k) = alpha(m-1, k+1)
                + sum_{j=0}^{k} (2t)^{-(j+1)} alpha(m-1, k-j)
                - exp(-tL) * sum_{j=0}^{k} (2t)^{-(j+1)} L^{k-j}/(k-j)! * alpha(m-1, 0)
    """
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    if m == 1:
        return 2.0 * _exp_moment(k, t, L)
    acc = interval_alpha(m - 1, k + 1, t, L)
    boundary = 0.0
    for j in range(k + 1):
        coef = (2.0 * t) ** -(j + 1)
        acc += coef * interval_alpha(m - 1, k - j, t, L)
        boundary += coef * L ** (k - j) / math.factorial(k - j)
    acc -= math.exp(-t * L) * boundary * interval_alpha(m - 1, 0, t, L)
    return acc


#: (least tL, largest n) pairs within which interval_term holds to a relative
#: 1e-11 against interval_chain_terms; the worst case is a_3 at tL = 0.1,
#: off by 4.8e-12
INTERVAL_TERM_RANGE = ((1.0, 8), (0.1, 3), (0.01, 1))


def interval_term_in_range(n: int, t: float, L: float) -> bool:
    """Whether a_n at (t, L) lies in INTERVAL_TERM_RANGE."""
    return any(t * L >= low and n <= top for low, top in INTERVAL_TERM_RANGE)


def interval_term(n: int, t: float, L: float) -> float:
    """a_n for Lebesgue measure on an interval of length L.

    a_1 = 2L/t - (2/t^2)(1 - e^{-tL});  a_n = (2/t) a_{n-1} - alpha(n, 0)/t.

    Range of validity: the float recursion cancels as tL -> 0, with a
    relative error of roughly 1e-16 (2/tL)^{n+1}.  It holds within
    INTERVAL_TERM_RANGE; at tL = 0.001 a_3 is off by 2.4e-4.  It serves as
    the catalog's closed form for an independent comparison; use
    interval_chain_terms for values.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = 2.0 * L / t - (2.0 / _power(t, 2)) * (1.0 - math.exp(-t * L))
    for m in range(2, n + 1):
        a = (2.0 / t) * a - interval_alpha(m, 0, t, L) / t
    return a


def _interval_digits(N: int, t: float, L: float) -> int:
    """Working precision of interval_chain_terms: 20 + 2N + (N+1) ceil(-log10 tL)."""
    return 20 + 2 * N + (N + 1) * max(0, -(Decimal(t) * Decimal(L)).adjusted())


def interval_chain_terms(N: int, t: float, L: float, atom: float,
                         density: float) -> list[float]:
    """[a_0, ..., a_N] on [0, L] under m (delta_0 + delta_L) + c dx, m = atom,
    c = density; a proper chain never steps from an atom to the same atom.

    Transfer recursion over the chain's last point: alpha is the mass ending
    at either atom (equal by symmetry), f the density ending at interior x.
    With (Kf)(x) = int_0^L e^{-t|x-y|} f(y) dy, one leg maps
    alpha -> m (alpha e^{-tL} + (Kf)(0)) and f -> c (Kf + alpha (e^{-tx} +
    e^{-t(L-x)})), and a_k = 2 alpha + int f.  K keeps f in the span
    p0 + q(x) e^{-tx} + q(L-x) e^{-t(L-x)}, p0 constant, q a polynomial:
    K1 = 2/t - (e^{-tx} + e^{-t(L-x)})/t and
    K[q e^{-tx}] = e^{-tx} (Q + R q) - e^{-tL} (R q)(L) e^{-t(L-x)}, where
    Q' = q, Q(0) = 0 and R q = sum_j q^{(j)} / (2t)^{j+1}.

    As tL -> 0 the three basis functions merge and the coefficients behind
    a_n cancel in up to (n+1) log10(1/tL) leading digits, so the arithmetic
    is decimal at _interval_digits(N, t, L) digits.  tL is taken as a
    Decimal, so one that underflows a float still sets the precision.
    A term beyond the float range raises OverflowError.
    """
    with localcontext() as ctx:
        ctx.prec = _interval_digits(N, t, L)
        t, L, m, c = (Decimal(v) for v in (t, L, atom, density))
        decay = (-t * L).exp()

        def resolvent(q, s):
            """sum_j q^{(j)} / s^{j+1}: the polynomial r with s r - r' = q."""
            r, higher = list(q), Decimal(0)
            for i in reversed(range(len(q))):
                r[i] = higher = (q[i] + (i + 1) * higher) / s
            return r

        def at_L(q):
            acc = Decimal(0)
            for coef in reversed(q):
                acc = acc * L + coef
            return acc

        alpha, p0, q = m, c, [Decimal(0)]
        terms = []
        for _ in range(N + 1):
            u = resolvent(q, t)  # int_0^L q e^{-tx} dx = u(0) - u(L) e^{-tL}
            term = 2 * alpha + p0 * L + 2 * (u[0] - decay * at_L(u))
            value = float(term)
            if math.isinf(value):
                raise OverflowError(f"chain term a_{len(terms)} = {term:.3e} "
                                    "exceeds the float range")
            terms.append(value)
            r = resolvent(q, 2 * t)
            kq = r + [Decimal(0)]  # Kf = 2 p0/t + kq(x) e^{-tx} + kq(L-x) e^{-t(L-x)}
            kq[0] -= p0 / t + decay * at_L(r)
            for i, coef in enumerate(q):
                kq[i + 1] += coef / (i + 1)
            kf_at_0 = 2 * p0 / t + kq[0] + decay * at_L(kq)
            kq[0] += alpha
            alpha, p0, q = m * (alpha * decay + kf_at_0), 2 * c * p0 / t, [c * x for x in kq]
    return terms


# ---------------------------------------------------------------------------
# real line with Laplace weight exp(-|x|) (total mass 2)
# ---------------------------------------------------------------------------

def laplace_line_first_term(t: float) -> float:
    """a_1 for exp(-|x|) on the line: 2(t+2)/(t+1)^2."""
    if t <= 0:
        raise ValueError("scale t must be positive")
    try:
        return 2.0 * (t + 2.0) / (t + 1.0) ** 2
    except OverflowError:  # (t+1)^2 is past the float range, but a_1 ~ 2/t is not
        return 2.0 * ((t + 2.0) / (t + 1.0)) / (t + 1.0)


def laplace_line_first_term_quadrature(t: float) -> float:
    """Independent oracle: int_0^inf e^{-tl} 2(1 + l) e^{-l} dl, the Laplace
    transform of the order-1 length density 2(1 + l) e^{-l}."""
    def f(l):
        return math.exp(-t * l) * 2.0 * (1.0 + l) * math.exp(-l)

    points = _peak_points(t, 1.0)  # the density's own scale is 1
    cut = points.pop() if points else 0.0  # quad takes no points on [cut, inf)
    return (_quad(f, 0.0, cut, points=points or None, epsabs=1e-13, epsrel=1e-13)
            + _quad(f, cut, math.inf, epsabs=1e-13, epsrel=1e-13))


# ---------------------------------------------------------------------------
# real line with Gaussian weight exp(-x^2) (total mass sqrt(pi))
# ---------------------------------------------------------------------------

GAUSSIAN_PUBLISHED_NOTE = (
    "published value pi*exp(-t^2/2) disagrees with direct quadrature of the "
    "length density sqrt(2*pi)*exp(-l^2/2); the two agree only at t = 0"
)


def gaussian_line_first_term(t: float) -> float:
    """a_1 for exp(-x^2): int_0^inf e^{-tl} sqrt(2 pi) e^{-l^2/2} dl, which is
    pi * exp(t^2/2) * erfc(t/sqrt(2)) = pi * erfcx(t/sqrt(2))."""
    from scipy.special import erfcx

    if t < 0:
        raise ValueError("t must be nonnegative")
    return math.pi * float(erfcx(t / math.sqrt(2.0)))


def gaussian_line_first_term_quadrature(t: float) -> float:
    """gaussian_line_first_term by quadrature in l = h x, x in [0, 40], on the
    integrand's scale h = min(1, 1/t): the catalog's oracle."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    h = 1.0 / max(1.0, t)
    return h * _quad(
        lambda x: math.exp(-t * h * x) * math.sqrt(2 * math.pi) * math.exp(-(h * x) ** 2 / 2),
        0.0, 40.0, epsabs=1e-12)


def gaussian_line_first_term_published(t: float) -> float:
    """The printed value pi*exp(-t^2/2); see GAUSSIAN_PUBLISHED_NOTE."""
    return math.pi * math.exp(-t * t / 2.0)


def _gaussian_reduced_2d(t: float, qa: float, qb: float, c: float) -> float:
    """4*sqrt(pi/3) * int int e^{-t(s1+s2)} e^{-(qa s1^2 + qb s2^2)/3}
    cosh(c s1 s2 / 3) over the positive quadrant, truncated at S = 20."""
    S = 20.0

    def integrand(s1: float, s2: float) -> float:
        # expand exp(-Q) * cosh(C) as (exp(C - Q) + exp(-C - Q)) / 2 so each
        # exponent stays negative (Q - |C| is a positive definite form)
        q = (qa * s1 * s1 + qb * s2 * s2) / 3.0 + t * (s1 + s2)
        cc = c * s1 * s2 / 3.0
        return 0.5 * (math.exp(cc - q) + math.exp(-cc - q))

    def inner(s1: float) -> float:
        return _quad(lambda s2: integrand(s1, s2), 0.0, S, epsabs=1e-12)

    return 4.0 * math.sqrt(math.pi / 3.0) * _quad(inner, 0.0, S, epsabs=1e-10)


def gaussian_line_second_term(t: float) -> float:
    """a_2 for exp(-x^2) via the reduced 2-D integral

    4*sqrt(pi/3) * int int e^{-t(s1+s2)} e^{-2(s1^2 + s2^2)/3}
                           cosh(2 s1 s2 / 3) ds1 ds2,

    obtained by writing s1 = |x-y|, s2 = |y-z| and integrating the common
    Gaussian variable over each of the four sign branches.  The published
    reduced form carries exponents (7 s1^2 + 4 s2^2)/3 and cosh(10 s1 s2/3)
    instead, and agrees with this one only at t = 0; this version agrees
    with direct 3-D quadrature to 1e-10 and with 3-D Monte Carlo within
    statistical error.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _gaussian_reduced_2d(t, 2.0, 2.0, 2.0)


# ---------------------------------------------------------------------------
# per-space dispatch
# ---------------------------------------------------------------------------

def leg_integral_bound(space: AnalyticSpace, t: float) -> float:
    """c(t) = sup_y int exp(-t*d(x,y)) dmu(x) on the space.

    Closed forms for homogeneous spaces and for the two weighted lines, whose
    weights are symmetric and log-concave, so the leg integral (a convolution
    of two such functions) peaks at y = 0.  On the interval it is
    2c/t + (m - c/t) g(y), with c the density, m each endpoint atom's mass and
    g(y) = exp(-ty) + exp(-t(L-y)) convex and symmetric, so the sup lies at
    y = 0 or y = L/2; expm1 keeps 2 - g(y) accurate at small tL.
    """
    if isinstance(space, Circle):
        return circle_leg_integral(space.r, t)
    if isinstance(space, Sphere2):
        return sphere_leg_integral(space.r, t)
    if isinstance(space, FlatTorusUnit):
        return torus_first_term(t)
    if isinstance(space, Interval):
        L, c = space.length, space.continuous_density
        m = space.atoms[0][1] if space.atoms else 0.0
        # Python floats: t * L may overflow to inf, quietly
        end = -c * math.expm1(-t * L) / t + m * (1.0 + math.exp(-t * L))
        mid = -2.0 * c * math.expm1(-t * L / 2.0) / t + 2.0 * m * math.exp(-t * L / 2.0)
        return max(end, mid)
    if isinstance(space, LineLaplace):
        # int exp(-t|x| - |x|) dx
        return 2.0 / (1.0 + t)
    if isinstance(space, LineGaussian):
        # int exp(-t|x| - x^2) dx = sqrt(pi) exp(t^2/4) erfc(t/2)
        from scipy.special import erfcx

        return math.sqrt(math.pi) * float(erfcx(t / 2.0))
    raise TypeError(f"no leg-integral bound for {type(space).__name__}")


def leg_ratio(space: AnalyticSpace, t: float) -> float:
    """J(t)/mu(X) on the circle and the 2-sphere, the inverse of the mass of
    the weight measure.

    Circle: (1 - e^{-x})/x with x = pi*r*t, and its limit 1 where x
    underflows to 0; the one x in both places cancels its own rounding.
    Sphere: (1 + e^{-pi*r*t}) / (2((t r)^2 + 1)), free of r^2, which
    underflows below r = 1e-154 while the ratio tends to 1.  Either is 0
    where x, resp. (t r)^2, overflows."""
    if isinstance(space, Circle):
        x = math.pi * space.r * t
        return -math.expm1(-x) / x if x else 1.0
    if isinstance(space, Sphere2):
        tr = t * space.r
        return (1.0 + math.exp(-math.pi * space.r * t)) / (2.0 * (tr * tr + 1.0))
    raise TypeError(f"no leg ratio for {type(space).__name__}")


def chain_terms(space: AnalyticSpace, t: float, N: int) -> list:
    """Reference values [a_1, ..., a_N] on the space, None for an order that
    has none.

    Circle, sphere and torus: mu(X) * J(t)^n, J = leg_integral_bound, with
    an OverflowError that names a_n where the product passes the float
    range.  The interval, under either measure: interval_chain_terms.  The
    Laplace line at n = 1 and the Gaussian line at n = 1, 2: their first
    terms.
    """
    if isinstance(space, (Circle, Sphere2, FlatTorusUnit)):
        leg = leg_integral_bound(space, t)
        terms = [space.total_mass * _named_power(leg, n, "J(t)") for n in range(1, N + 1)]
        if math.inf in terms:
            n = terms.index(math.inf) + 1
            raise OverflowError(f"chain term a_{n} = mu(X) J(t)^{n} = {space.total_mass:.3g} * "
                                f"{leg:.3g}^{n} exceeds the float range")
        return terms
    if isinstance(space, Interval):
        m = space.atoms[0][1] if space.atoms else 0.0
        return interval_chain_terms(N, t, space.length, m, space.continuous_density)[1:]
    known = {LineLaplace: (laplace_line_first_term,),
             LineGaussian: (gaussian_line_first_term, gaussian_line_second_term)}[type(space)]
    return [term(t) for term in known[:N]] + [None] * (N - len(known))


def length_density(space: AnalyticSpace, n: int, l: float) -> float | None:
    """Density of the order-n total chain length at l on the space, or None
    where no closed form is known: the circle for n <= 3, the sphere for
    n <= 2 and the Gaussian line for n = 1, sqrt(2 pi) exp(-l^2/2)."""
    try:
        if isinstance(space, Circle):
            return float(circle_length_density(n, space.r, l))
        if isinstance(space, Sphere2):
            return float(sphere_length_density(n, space.r, l))
    except ValueError:
        return None
    if isinstance(space, LineGaussian) and n == 1:
        return math.sqrt(2 * math.pi) * math.exp(-l * l / 2)
    return None


# ---------------------------------------------------------------------------
# catalog dump
# ---------------------------------------------------------------------------

def catalog_rows(t_grid=(0.5, 1.0, 2.0, 5.0)):
    """(space, n, t, closed_form, oracle, abs_diff, citation) tuples.

    The oracle column is an independent quadrature (of the length density,
    for the circle, sphere and Laplace line) or, for the interval, the
    transfer recursion of interval_chain_terms, a different algorithm from
    the interval_alpha recursion; citation names the result family each row
    instantiates.  An interval row outside INTERVAL_TERM_RANGE has None for
    its closed_form and abs_diff.
    """
    rows = []
    for t in t_grid:
        for n in (1, 2, 3):
            cf = circle_term(n, 1.0, t)
            oracle = circle_term_quadrature(n, 1.0, t)
            rows.append(("circle", n, t, cf, oracle, abs(cf - oracle), "circle chain integral"))
        for n in (1, 2):
            cf = sphere_term(n, 1.0, t)
            oracle = sphere_term_quadrature(n, 1.0, t)
            rows.append(("sphere2", n, t, cf, oracle, abs(cf - oracle), "sphere chain integral"))
        cf = torus_first_term(t)
        oracle = torus_first_term_identity(t)
        rows.append(("torus", 1, t, cf, oracle, abs(cf - oracle), "flat torus first term"))
        oracles = interval_chain_terms(3, t, 1.0, 0.0, 1.0)
        for n in (1, 2, 3):
            cf = interval_term(n, t, 1.0) if interval_term_in_range(n, t, 1.0) else None
            rows.append(("interval", n, t, cf, oracles[n],
                         None if cf is None else abs(cf - oracles[n]), "interval recursion"))
        cf = laplace_line_first_term(t)
        oracle = laplace_line_first_term_quadrature(t)
        rows.append(("line-laplace", 1, t, cf, oracle, abs(cf - oracle), "Laplace-weight line"))
        oracle = gaussian_line_first_term_quadrature(t)
        pub = gaussian_line_first_term_published(t)
        rows.append(("line-gauss", 1, t, pub, oracle, abs(oracle - pub), GAUSSIAN_PUBLISHED_NOTE))
    return rows
