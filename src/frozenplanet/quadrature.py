"""Moment integrals, shape functional, period and time map, in closed form.

The building block is the pair of singular moment integrals

    I_k(a) = int_0^1 r**k / sqrt((1 - r) * (r - a)) dr,   k in {1/2, 3/2},

for a <= 0.  With b = -a they are complete elliptic integrals, evaluated
through Carlson's R_F and R_D (:func:`frozenplanet.specialfn.carlson_rf_rd`):

    I_{1/2}  = (2/3) * b * R_D(0, 1 + b, b)
    I_{-1/2} = 2 * R_F(0, 1 + b, b)
    I_{3/2}  = (2 * (1 - b) * I_{1/2} + b * I_{-1/2}) / 3,

the last from int_0^1 P'(r) / sqrt(P(r)) dr = 0 with P = r (1 - r) (r + b).
At b = 0 the moments are exactly 2 and 4/3.  For b >= 1 the expansion of
1 / sqrt(r + b) about r = 1/2, in powers of (r - 1/2) / (b + 1/2), whose
size is at most 1/3 there, gives instead

    I_k = (b + 1/2)**(-1/2) * sum_j (1/2)_j / j! * M_kj * (-T)**j,
    T = 1 / (b + 1/2),   M_kj = int_0^1 r**k (r - 1/2)**j (1 - r)**(-1/2) dr,

summed in Horner form over the terms that b needs.  A table built at
import gives each binade [2**i, 2**(i+1)) of b the fewest terms whose first
omitted one is below 0.02 of 2**-53 of the sum at b = 2**i: 34 at b = 1,
17 at b = 4, 11 at b = 16 and one from b = 2**57 on.  So R_D serves only
b < 1, where both terms of the I_{3/2} identity are non-negative and
nothing cancels; b = 1 is where the orbit touches the outer electron
(kappa = 0).  Every branch stays within a few units of rounding of a
40-digit evaluation, from b = 1e-300 to b = 1e25, and the series within
2.3 units from b = 1 to b = 1.7e308.  The shape
functional F and the period rest on one private kernel, ``_shape``, which
returns F with the sigma pair and I_{1/2} it used; ``big_f`` and
``period`` wrap it, and the orbit solve calls it at each trial point and
builds the period from the accepted one.  The time map, the
incomplete form of I_{1/2}, is R_D from the same Carlson kernel, written once for
floats and arrays alike.  It serves time_integral and, through it, the
tests' independent reference for the trajectory rebuild, which builds its
own angle grid from a Gauss rule and takes G(1) = I_{1/2} / 2 from the
moment (:mod:`frozenplanet.orbit`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .model import _to_float, sigma_pair
from .specialfn import carlson_rf_rd

# Below this b the moments equal their b = 0 values to far below rounding
# (they differ by O(b log(1/b))), while R_D(0, 1 + b, b) ~ 3/b would
# overflow towards the subnormal range.
_B_NEGLIGIBLE = 1e-300
# The expansion about r = 1/2 serves b >= _B_SERIES, where its ratio
# |r - 1/2| / (b + 1/2) is at most 1/3.  Each binade of b runs the fewest
# of the _SERIES_TERMS terms whose first omitted one is below _SERIES_CUT of
# the sum at its lower end (see ``_terms_needed``): all of them at b = 1,
# 11 at b = 16, one from b = 2**57 on.
_B_SERIES = 1.0
_SERIES_TERMS = 34
_SERIES_CUT = 0.02 * 2.0**-53


def _series_ratios(k: float, terms: int) -> list[tuple[int, int]]:
    """(1/2)_j / j! * M_j / M_0 for j < ``terms`` (at least 2), as exact integer pairs.

    M_j = int_0^1 r**k (r - 1/2)**j (1 - r)**(-1/2) dr.  Integrating
    d/dr [r**(k+1) (1 - r)**(1/2) (r - 1/2)**j] over [0, 1], which gives
    zero, and writing every power of r and 1 - r about 1/2 gives the
    three-term recurrence

        (4k + 4j + 6) M_{j+1} = (2k + 1) M_j + j M_{j-1}.

    For k in {1/2, 3/2} its coefficients are integers, so M_j / M_0 =
    num_j / den_j with num_0 = den_0 = 1, num_1 = 2k + 1, den_1 = 4k + 6,
    den_{j+1} = (4k + 4j + 6) den_j and num_{j+1} = (2k + 1) num_j +
    j (4k + 4j + 2) num_{j-1}, held exactly as Python integers; with
    (1/2)_j / j! = C(2j, j) / 4**j each pair is (C(2j, j) num_j, 4**j den_j).
    """
    h = int(2.0 * k) + 1  # 2k + 1
    num, den = [1, h], [1, 2 * h + 4]
    for j in range(1, terms - 1):
        num.append(h * num[j] + j * (2 * h + 4 * j) * num[j - 1])
        den.append((2 * h + 4 * j + 4) * den[j])
    return [(math.comb(2 * j, j) * n, 4**j * d) for j, (n, d) in enumerate(zip(num, den))]


def _series_coefficients(k: float, first: float) -> tuple[float, ...]:
    """(1/2)_j / j! * M_j for j <= _SERIES_TERMS, lowest j first.

    ``first`` is M_0 = B(k + 1, 1/2), and each ratio to it is one integer
    quotient of :func:`_series_ratios`, which Python rounds correctly, so
    each coefficient carries the rounding of that quotient, of M_0 and of
    one product: within 1.3 units of a 40-digit evaluation for every j.
    The same recurrence in floats, whose positive terms never cancel, lets
    the roundings of its steps add up to 4.5 units in M_24 (k = 3/2); the
    binomial sum over B(k + i + 1, 1/2) that expands (r - 1/2)**j directly
    would cancel instead, its terms reaching (3/2)**j M_0 against
    M_j ~ 2**-j M_0.  The last coefficient, j = 34, is only read as the
    first omitted term at b = 1.
    """
    return tuple(first * (n / d) for n, d in _series_ratios(k, _SERIES_TERMS + 1))


# Pairs (I_{1/2} coefficient, I_{3/2} coefficient), from B(3/2, 1/2) = pi/2
# and B(5/2, 1/2) = 3 pi / 8.
_SERIES = tuple(
    zip(
        _series_coefficients(0.5, 0.5 * math.pi),
        _series_coefficients(1.5, 0.375 * math.pi),
    )
)


def _terms_needed(b: float) -> int:
    """Least N whose first omitted term, j = N, is below _SERIES_CUT of the sum at b >= 1.

    The terms (1/2)_j / j! M_j T**j alternate in sign and fall in size, so
    each sum is at least its first two terms; the test is made against
    that, for both moments.  The first omitted term falls with b, so the
    count at the lower end of a range of b serves the whole range.
    """
    t = 1.0 / (b + 0.5)
    (half_0, three_half_0), (half_1, three_half_1) = _SERIES[:2]
    floor_half = _SERIES_CUT * (half_0 - half_1 * t)
    floor_three_half = _SERIES_CUT * (three_half_0 - three_half_1 * t)
    n, power = 1, t
    while _SERIES[n][0] * power >= floor_half or _SERIES[n][1] * power >= floor_three_half:
        n, power = n + 1, power * t
    return n


# Entry i holds, for b in [2**i, 2**(i+1)), the top coefficient pair of the
# Horner sum and the pairs below it, highest j first, at the count
# _terms_needed(2**i); binades with equal counts share one entry.
_SERIES_BY_COUNT = {
    n: (_SERIES[n - 1], tuple(reversed(_SERIES[: n - 1]))) for n in range(1, _SERIES_TERMS + 1)
}
_SERIES_BY_BINADE = tuple(_SERIES_BY_COUNT[_terms_needed(2.0**i)] for i in range(1024))


def ratio_integrals(a: float) -> tuple[float, float]:
    """(I_{1/2}(a), I_{3/2}(a)) in closed form (see the module docstring).

    Requires a finite a <= 0 (for a > 0 the integrand changes character).
    ``a`` is taken as a Python float, so the moments are computed in
    double precision whatever its float type.
    """
    return _moments(_to_float(a, "the ratio integrals' a"))


def _moments(a: float) -> tuple[float, float]:
    """:func:`ratio_integrals` for a Python float ``a``, the kernel ``_shape`` calls."""
    if not -math.inf < a <= 0.0:
        raise DomainError(f"ratio integrals require a finite a <= 0, got a={a!r}")
    b = -a
    if b >= _B_SERIES:
        # b + 1/2 is exact below 2**52, and above it its rounding moves
        # I_k by at most a quarter unit.  The scale 1 / sqrt(b + 1/2)
        # stays normal up to the largest b, while T = 1 / (b + 1/2) turns
        # subnormal from b of about 4.5e307 on, where every term past the
        # first is far below rounding.
        shifted = b + 0.5
        t = -1.0 / shifted
        (i_half, i_three_half), rest = _SERIES_BY_BINADE[math.frexp(b)[1] - 1]
        for c_half, c_three_half in rest:
            i_half = i_half * t + c_half
            i_three_half = i_three_half * t + c_three_half
        scale = 1.0 / math.sqrt(shifted)
        i_half *= scale
        i_three_half *= scale
    elif b < _B_NEGLIGIBLE:
        i_half, i_three_half = 2.0, 4.0 / 3.0
    else:
        # For b < 1 both terms of the I_{3/2} identity are non-negative.
        rf, rd = carlson_rf_rd(0.0, 1.0 + b, b)
        i_half = (2.0 / 3.0) * b * rd
        i_three_half = (2.0 * (1.0 - b) * i_half + 2.0 * b * rf) / 3.0
    return i_half, i_three_half


def _shape(gamma: float, x: float) -> tuple[float, float, float, float]:
    """(F, sigma_plus, sigma_minus, I_{1/2}(a)) at the point (gamma, x).

    The one evaluation of the shape functional F = sigma_plus * I_{3/2} /
    I_{1/2}, with a = sigma_minus / sigma_plus.  :func:`big_f` returns its
    F and :func:`period` its sigma_plus and I_{1/2}, after checks of their
    own; the orbit solve calls it at each trial point inside its window
    and keeps the accepted point's pair and moment.  a is never positive:
    ``sigma_pair`` forms sigma_minus as -4 (gamma + 1)**2 / sigma_plus or
    as s - w, w = hypot(s, 2 (gamma + 1)) >= |s|, so sigma_minus <= 0 <=
    sigma_plus by sign rules alone; a is -0.0 where it vanishes (gamma =
    -1, x < 2), and NaN from an overflow fails the checks here or in
    ``_moments``.  Where a overflows to -inf, b = -a exceeds
    every double and the series gives I_{3/2} / I_{1/2} = 3/4 and I_{1/2}
    = (pi / 2) / sqrt(b) to far below rounding; plus * minus = -4 (gamma +
    1)**2 gives sqrt(b) = 2 |gamma + 1| / plus without the overflow, and
    without minus, which may itself be -inf.
    Raises :class:`DomainError` unless x >= 0 and sigma_plus > 0, naming a
    non-finite argument first.
    """
    plus, minus = sigma_pair(gamma, x)
    if not plus > 0.0 or x < 0.0:
        if not (math.isfinite(gamma) and math.isfinite(x)):
            raise DomainError(
                f"shape functional requires a finite gamma and x, got gamma={gamma!r}, x={x!r}"
            )
        if x < 0.0:
            raise DomainError(f"shape functional requires x >= 0, got x={x!r}")
        raise DomainError(
            f"shape functional undefined where sigma_plus <= 0 (gamma={gamma!r}, x={x!r})"
        )
    a = minus / plus
    if a == -math.inf:
        return 0.75 * plus, plus, minus, math.pi * plus / (4.0 * abs(gamma + 1.0))
    i_half, i_three_half = _moments(a)
    return plus * i_three_half / i_half, plus, minus, i_half


def _eta(gamma: float, qbar1: float, q1max: float, i_half: float) -> float:
    """Period sqrt(2) * gamma * qbar1 * sqrt(q1max) * I_{1/2}(a) (see :func:`period`)."""
    return math.sqrt(2.0) * gamma * qbar1 * math.sqrt(q1max) * i_half


def big_f(gamma: float, x: float) -> float:
    """Shape functional F(gamma, x) = sigma_plus * I_{3/2}(a) / I_{1/2}(a).

    Here a = sigma_minus / sigma_plus at the point (gamma, x).  For fixed
    gamma > 0 the map x -> F(gamma, x) is strictly decreasing from a value
    >= 8/3 at x = 0 towards 0, and the mean position of the periodic orbit
    is the unique x solving F(gamma, x) = 2.  Requires a finite gamma, a
    finite x >= 0 and sigma_plus > 0 there.  The checks and the case
    where a overflows live in the kernel ``_shape``.  Both arguments are
    taken as Python floats, so F is computed in double precision whatever
    their float type.
    """
    return _shape(_to_float(gamma, "big_f's gamma"), _to_float(x, "big_f's x"))[0]


def period(gamma: float, qbar1: float) -> float:
    """Orbit period eta = sqrt(2) * gamma * qbar1 * sqrt(q1max) * I_{1/2}(a).

    ``qbar1`` is the orbit mean, q1max / q1antimax are its energy-relation
    roots, and a is their ratio; the kappa value consistent with
    (gamma, qbar1) is built into the sigma roots, so only those two
    arguments are needed.  The moment and the sigma pair come from the
    kernel ``_shape`` at x = qbar1, the one that ``big_f`` wraps.  Both
    arguments are taken as Python floats, as by ``big_f``.
    """
    gamma, qbar1 = _to_float(gamma, "period's gamma"), _to_float(qbar1, "period's qbar1")
    if not math.isfinite(gamma):
        raise DomainError(f"period requires a finite gamma, got gamma={gamma!r}")
    if not 0.0 < qbar1 < math.inf:
        raise DomainError(f"period requires a finite qbar1 > 0, got qbar1={qbar1!r}")
    try:
        _, plus, _, i_half = _shape(gamma, qbar1)
    except DomainError:
        # With gamma and qbar1 checked, only sigma_plus <= 0 is left.
        raise DomainError(f"period undefined where sigma_plus <= 0 (gamma={gamma!r})") from None
    return _eta(gamma, qbar1, 0.5 * plus * qbar1, i_half)


def _h(b, s, cc):
    """Time map H(p) = int_0^p cos(t)**2 / sqrt(cos(t)**2 + b) dt.

    Takes s = sin p and cc = cos(p)**2 as Python floats or NumPy arrays,
    touched only by arithmetic and ``** 0.5``, and b = -a, a finite float
    >= 0.  With m = 1 / (1 + b) and Delta**2 = m (cc + b),
    H = (E(p|m) - (1 - m) F(p|m)) / sqrt(m) in Legendre's incomplete
    integrals; DLMF 19.25.10 writes this difference as a sum of two
    positive terms,

        H = s sqrt(cc) / sqrt(cc + b) + (b m**(3/2) / 3) s**3 R_D(cc, 1, Delta**2),

    so no cancellation occurs as b -> 0, where F and E - F each grow like
    log(1/b) near p = pi/2.  Below _B_NEGLIGIBLE, as for the moments, H
    equals its b = 0 value sin p to far below rounding, while R_D ~ 1/b
    would overflow at p = pi/2.  The weight is formed as (b m) sqrt(m),
    since m**(3/2) underflows once b exceeds about 1e205.
    """
    if b < _B_NEGLIGIBLE:
        return s
    m = 1.0 / (1.0 + b)
    rd = carlson_rf_rd(cc, 1.0, m * (cc + b))[1]
    return s * cc**0.5 / (cc + b) ** 0.5 + (b * m * m**0.5 / 3.0) * s**3 * rd


def _time_map(a: float, p: np.ndarray) -> np.ndarray:
    """H(p) = G(sin p) elementwise, for angles ``p`` in [0, pi/2] (see ``_h``).

    ``a`` is finite and <= 0; callers check both.
    """
    c = np.cos(p)
    return _h(-a, np.sin(p), c * c)


def time_integral(a: float, upper: float) -> float:
    """Time-of-flight kernel G(upper) = int_0^upper sqrt(1-u**2)/sqrt(1-u**2-a) du.

    Monotone increasing in ``upper`` on [0, 1]; G(U)/(2*G(1)) is the scaled
    time at which the inner electron passes q1 = q1max * (1 - U**2).
    Evaluated by ``_h`` at sin p = upper and cos(p)**2 = (1 - upper)(1 + upper).
    """
    if not -math.inf < a <= 0.0:
        raise DomainError(f"time integral requires a finite a <= 0, got a={a!r}")
    if not 0.0 <= upper <= 1.0:
        raise DomainError(f"time integral requires 0 <= upper <= 1, got {upper!r}")
    return float(_h(-a, upper, (1.0 - upper) * (1.0 + upper)))
