"""Moment integrals, shape functional, period and time map, in closed form.

The building block is the pair of singular moment integrals

    I_k(a) = int_0^1 r**k / sqrt((1 - r) * (r - a)) dr,   k in {1/2, 3/2},

for a <= 0.  With b = -a they are complete elliptic integrals, evaluated
through Carlson's R_F and R_D (:func:`frozenplanet.specialfn.carlson_rf_rd`):

    I_{1/2}  = (2/3) * b * R_D(0, 1 + b, b)
    I_{-1/2} = 2 * R_F(0, 1 + b, b)
    I_{3/2}  = (2 * (1 - b) * I_{1/2} + b * I_{-1/2}) / 3,

the last from int_0^1 P'(r) / sqrt(P(r)) dr = 0 with P = r (1 - r) (r + b).
At b = 0 the moments are exactly 2 and 4/3.  For b >= 4 the expansion of
1 / sqrt(r + b) in powers of r / b <= 1/4 gives instead

    I_k = b**(-1/2) * sum_j (1/2)_j / j! * B(k + j + 1, 1/2) * (-1/b)**j,

summed in Horner form.  Every branch stays within a few units of rounding
of a 40-digit evaluation, from b = 1e-300 to b = 1e25.  The time map, the
incomplete form of I_{1/2}, is one array-valued evaluation of R_D from the
same duplication loop, cut to the six steps its arguments need.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import sigma_pair
from .specialfn import _carlson_rd, carlson_rf_rd

# Below this b the moments equal their b = 0 values to far below rounding
# (they differ by O(b log(1/b))), while R_D(0, 1 + b, b) ~ 3/b would
# overflow towards the subnormal range.
_B_NEGLIGIBLE = 1e-300
# The power series in -1/b serves b >= _B_SERIES, where its ratio is at
# most 1/4; after _SERIES_TERMS terms the first omitted one is below 1% of
# a unit of rounding of the sum.
_B_SERIES = 4.0
_SERIES_TERMS = 28


def _series_coefficients(k: float, first: float) -> tuple[float, ...]:
    """(1/2)_j / j! * B(k + j + 1, 1/2) for j < _SERIES_TERMS, highest j first.

    ``first`` is B(k + 1, 1/2); each coefficient follows from the one before
    by the ratio recurrences of the Pochhammer symbol and the Beta function.
    """
    coef = [first]
    for j in range(1, _SERIES_TERMS):
        coef.append(coef[-1] * (j - 0.5) / j * (k + j) / (k + j + 0.5))
    return tuple(reversed(coef))


# Pairs (I_{1/2} coefficient, I_{3/2} coefficient), from B(3/2, 1/2) = pi/2
# and B(5/2, 1/2) = 3 pi / 8.
_SERIES = tuple(
    zip(
        _series_coefficients(0.5, 0.5 * math.pi),
        _series_coefficients(1.5, 0.375 * math.pi),
    )
)


class RatioIntegrals(NamedTuple):
    """The two moment integrals at a common parameter a <= 0."""

    i_half: float
    i_three_half: float
    a: float


def ratio_integrals(a: float) -> RatioIntegrals:
    """Evaluate I_{1/2}(a) and I_{3/2}(a) in closed form (see the module docstring).

    Requires a finite a <= 0 (for a > 0 the integrand changes character).
    """
    if not -math.inf < a <= 0.0:
        raise DomainError(f"ratio integrals require a finite a <= 0, got a={a!r}")
    b = -a
    if b < _B_NEGLIGIBLE:
        i_half, i_three_half = 2.0, 4.0 / 3.0
    elif b < _B_SERIES:
        rf, rd = carlson_rf_rd(0.0, 1.0 + b, b)
        i_half = (2.0 / 3.0) * b * rd
        i_three_half = (2.0 * (1.0 - b) * i_half + 2.0 * b * rf) / 3.0
    else:
        t = -1.0 / b
        i_half = i_three_half = 0.0
        for c_half, c_three_half in _SERIES:
            i_half = i_half * t + c_half
            i_three_half = i_three_half * t + c_three_half
        scale = 1.0 / math.sqrt(b)
        i_half *= scale
        i_three_half *= scale
    return RatioIntegrals(i_half=i_half, i_three_half=i_three_half, a=a)


def big_f(gamma: float, x: float) -> float:
    """Shape functional F(gamma, x) = sigma_plus * I_{3/2}(a) / I_{1/2}(a).

    Here a = sigma_minus / sigma_plus at the point (gamma, x).  For fixed
    gamma > 0 the map x -> F(gamma, x) is strictly decreasing from a value
    >= 8/3 at x = 0 towards 0, and the mean position of the periodic orbit
    is the unique x solving F(gamma, x) = 2.  Rounding can push a to a tiny
    positive value where it vanishes analytically (gamma = -1, x < 2); such
    values are clamped to 0.
    """
    pair = sigma_pair(gamma, x)
    if pair.plus <= 0.0:
        raise DomainError(
            f"shape functional undefined where sigma_plus <= 0 (gamma={gamma!r}, x={x!r})"
        )
    a = pair.minus / pair.plus
    if a > 0.0:
        a = 0.0
    ints = ratio_integrals(a)
    return pair.plus * ints.i_three_half / ints.i_half


def period(gamma: float, qbar1: float) -> float:
    """Orbit period eta = sqrt(2) * gamma * qbar1 * sqrt(q1max) * I_{1/2}(a).

    ``qbar1`` is the orbit mean, q1max / q1antimax are its energy-relation
    roots, and a is their ratio; the kappa value consistent with
    (gamma, qbar1) is built into the sigma roots, so only those two
    arguments are needed.
    """
    if qbar1 <= 0.0:
        raise DomainError(f"period requires qbar1 > 0, got {qbar1!r}")
    pair = sigma_pair(gamma, qbar1)
    if pair.plus <= 0.0:
        raise DomainError(f"period undefined where sigma_plus <= 0 (gamma={gamma!r})")
    q1max = 0.5 * pair.plus * qbar1
    a = min(pair.minus / pair.plus, 0.0)
    ints = ratio_integrals(a)
    return math.sqrt(2.0) * gamma * qbar1 * math.sqrt(q1max) * ints.i_half


# Duplication steps of the time map's R_D; the bound in _time_map's
# docstring shows that six suffice for its arguments.
_TIME_MAP_STEPS = 6


def _time_map(a: float, p: np.ndarray) -> np.ndarray:
    """H(p) = G(sin p) = int_0^p cos(s)**2 / sqrt(cos(s)**2 - a) ds, elementwise.

    ``p`` holds angles in [0, pi/2] and ``a`` is finite and <= 0; callers
    check both.  With b = -a, m = 1 / (1 + b) and Delta**2 = m (cos(p)**2 + b),
    H = (E(p|m) - (1 - m) F(p|m)) / sqrt(m) in Legendre's incomplete
    integrals; DLMF 19.25.10 writes this difference as a sum of two positive
    terms,

        H = sin p cos p / sqrt(cos(p)**2 + b)
            + (b m**(3/2) / 3) sin(p)**3 R_D(cos(p)**2, 1, Delta**2),

    so no cancellation occurs as b -> 0, where F and E - F each grow like
    log(1/b) near p = pi/2.  At b = 0, H = sin p.  The weight is formed as
    (b m) sqrt(m), since m**(3/2) underflows once b exceeds about 1e205.

    Six duplication steps bound the truncation error of R_D's series below
    a third of a unit of rounding of H, for every p and every b > 0.  With
    c = cos p and s = sin p the arguments x0 = c**2, y0 = 1, z0 = Delta**2
    satisfy x0 <= z0 <= y0, z0 in (0, 1], and a step keeps that order.
    After n steps:

    * y_n - x_n = 4**-n s**2 <= 4**-n.  x_n rises and y_n falls to the
      common limit L = R_F(x0, y0, z0)**-2 (a step leaves R_F unchanged),
      and R_F(x0, y0, z0) <= R_F(0, 1, z0) <= 1 + asinh(z0**(-1/2)), from
      splitting its integral at t = 1.  So x_n >= l - 4**-n with
      l = (1 + asinh(z0**(-1/2)))**-2, and from the first two steps
      x_n >= z0**(1/4) / 16 once n >= 2; let x_lo be the larger bound.
    * The series stands in for 4**-n R_D(x_n, y_n, z_n).  Its offsets are
      at most e = 4**-n / x_lo, and by Carlson's expansion (DLMF 19.19)
      the terms of degree 6 and up sum to at most
      (3/2)_6 / 6! * e**6 (1 - e)**-7.5 * x_lo**(-3/2), with
      (3/2)_6 / 6! = 2.93, when e < 1.  Offsets never exceed 4, so the
      series is at most sum_{N <= 5} (3/2)_N / N! 4**N = 3579 times
      A_n**(-3/2), and with R_D(x_n, y_n, z_n) <= x_n**(-3/2) the error
      is at most (1 + 3579) x_lo**(-3/2) in any case.
    * The first term of H is >= 0, so H >= (b m**(3/2) / 3) s**3 R_D, and
      R_D(x0, y0, z0) >= max(1, 3 / (4 z0)): every argument is at most 1,
      and the first duplication term alone is 3 / (sqrt(z0) (z0 + lam))
      with lam <= 3 sqrt(z0).

    The relative error of H is therefore at most 4**-n times the smaller
    series bound over max(1, 3 / (4 z0)), a function of z0 alone.  For
    n = 6 its largest value over z0 in (0, 1] is 3.1e-17, near z0 = 6e-6;
    for n = 5 it is 3.5e-12.
    """
    if a == 0.0:
        return np.sin(p)
    b = -a
    m = 1.0 / (1.0 + b)
    s = np.sin(p)
    c = np.cos(p)
    cc = c * c
    rd = _carlson_rd(cc, 1.0, m * (cc + b), _TIME_MAP_STEPS)[0]
    return s * c / np.sqrt(cc + b) + (b * m * m**0.5 / 3.0) * s**3 * rd


def time_integral(a: float, upper: float) -> float:
    """Time-of-flight kernel G(upper) = int_0^upper sqrt(1-u**2)/sqrt(1-u**2-a) du.

    Monotone increasing in ``upper`` on [0, 1]; G(U)/(2*G(1)) is the scaled
    time at which the inner electron passes q1 = q1max * (1 - U**2).
    Evaluated by ``_time_map`` at the single angle p = asin(upper).
    """
    if not -math.inf < a <= 0.0:
        raise DomainError(f"time integral requires a finite a <= 0, got a={a!r}")
    if not 0.0 <= upper <= 1.0:
        raise DomainError(f"time integral requires 0 <= upper <= 1, got {upper!r}")
    return float(_time_map(a, np.array([math.asin(upper)]))[0])
