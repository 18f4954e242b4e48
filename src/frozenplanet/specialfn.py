"""Special functions: Gamma, Beta, Carlson's R_F and R_D, the lemniscatic constant.

Gamma is the standard library's ``math.gamma`` behind a domain check.
Carlson's symmetric elliptic integrals R_F and R_D come from one
duplication loop with a fixed step count, on floats and arrays alike; they
give the moment integrals, the time map and the arc-length route to the
lemniscatic constant in closed form.  The lemniscatic constant is computed
two independent ways and the routes are cross-checked before a value is
returned.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ConvergenceError, DomainError


def gamma_fn(x: float) -> float:
    """Gamma function for real x > 0 (``math.gamma``).

    Gamma overflows a double for x above about 171.62 and for x below
    about 5.6e-309; there, as for x <= 0 and a non-finite x, it raises
    :class:`DomainError`.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"gamma_fn requires a finite x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma_fn({x!r}) overflows a double") from None


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for finite a, b > 0.

    The larger of Gamma(a) and Gamma(b) is divided by Gamma(a + b) before
    the product is formed, as beta_fn(1e-300, 171.0), about 1e300, needs;
    where that quotient overflows, which takes Gamma(a + b) < 1, the
    smaller is divided instead, as beta_fn(6e-309, 1.5), about 1.67e308,
    needs.  Every Gamma value is at least 0.885, so the smaller quotient
    overflows only where B does, and a finite B does not overflow on the
    way.  Raises :class:`DomainError` wherever one of the three Gamma
    values overflows, as for a + b above about 171.62, and where B itself
    overflows.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"beta_fn requires finite a, b > 0, got a={a!r}, b={b!r}")
    small, large = sorted((gamma_fn(a), gamma_fn(b)))
    whole = gamma_fn(a + b)
    ratio = large / whole
    result = ratio * small if ratio < math.inf else small / whole * large
    if math.isinf(result):
        raise DomainError(f"beta_fn({a!r}, {b!r}) overflows a double")
    return result


# Duplication steps of carlson_rf_rd, the one step count for every caller.
# While the arguments are far apart, each step takes about the square root
# of their ratio; once they are close, each step shrinks their relative
# spread fourfold.  Twelve steps bring every ratio up to 1e300 within reach
# of the fifth-order series: R_F(0, 1, 1e-300) needs all twelve, and every
# argument triple of the moments, the time map and the lemniscatic
# constant lands within a few units of rounding of SciPy's elliprf/elliprd.
_CARLSON_STEPS = 12


def carlson_rf_rd(x, y, z):
    """Carlson's symmetric elliptic integrals R_F(x, y, z) and R_D(x, y, z).

        R_F = (1/2) int_0^inf dt / sqrt((t + x) (t + y) (t + z))
        R_D = (3/2) int_0^inf dt / ((t + z) sqrt((t + x) (t + y) (t + z)))

    for x, y >= 0, at most one of them 0, and z > 0.  Carlson's duplication
    method (Carlson 1995, Numer. Algorithms 10; DLMF 19.36.1-2) replaces
    (x, y, z) by ((x + lam)/4, (y + lam)/4, (z + lam)/4) with
    lam = sqrt(x y) + sqrt(y z) + sqrt(z x), which both integrals share,
    for a fixed number of steps, and ends in Carlson's fifth-order series.
    Only arithmetic and ``** 0.5`` are used, so the arguments may be Python
    floats or broadcastable NumPy arrays, and nothing iterates to a
    tolerance.
    """
    # Offsets of x and y from the means A_F = (x + y + z)/3 and
    # A_D = (x + y + 3z)/5; a duplication step divides each offset by 4.
    mean_f = (x + y + z) / 3.0
    xf, yf = mean_f - x, mean_f - y
    mean_d = (x + y + 3.0 * z) / 5.0
    xd, yd = mean_d - x, mean_d - y
    tail = 0.0
    scale = 1.0
    for _ in range(_CARLSON_STEPS):
        sx, sy, sz = x**0.5, y**0.5, z**0.5
        lam = sx * sy + sz * (sx + sy)
        tail = tail + scale / (sz * (z + lam))
        scale *= 0.25
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
    # The means obey the same recurrence as the arguments, so A_n is the
    # mean of the final arguments.
    mean_f = (x + y + z) / 3.0
    mean_d = (x + y + 3.0 * z) / 5.0

    dx = xf * scale / mean_f
    dy = yf * scale / mean_f
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    rf = (
        1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    ) / mean_f**0.5

    dx = xd * scale / mean_d
    dy = yd * scale / mean_d
    dz = -(dx + dy) / 3.0
    xy = dx * dy
    zz = dz * dz
    e2 = xy - 6.0 * zz
    e3 = (3.0 * xy - 8.0 * zz) * dz
    e4 = 3.0 * (xy - zz) * zz
    e5 = xy * zz * dz
    series = (
        1.0
        - 3.0 * e2 / 14.0
        + e3 / 6.0
        + 9.0 * e2 * e2 / 88.0
        - 3.0 * e4 / 22.0
        - 9.0 * e2 * e3 / 52.0
        + 3.0 * e5 / 26.0
    )
    rd = scale * series / (mean_d * mean_d**0.5) + 3.0 * tail
    return rf, rd


def _varpi_integral() -> float:
    """Arc-length integral 2 * int_0^1 dt / sqrt(1 - t^4) = 2 * R_F(0, 1, 2).

    The substitution t**2 = 1 / (1 + s) turns the integral into
    (1/2) int_0^inf ds / sqrt(s (s + 1) (s + 2)) = R_F(0, 1, 2).
    """
    return 2.0 * carlson_rf_rd(0.0, 1.0, 2.0)[0]


def _varpi_gamma() -> float:
    """Closed form Gamma(1/4)**2 / sqrt(8 pi)."""
    g = gamma_fn(0.25)
    return g * g / math.sqrt(8.0 * math.pi)


@lru_cache(maxsize=None)
def lemniscate_constant() -> float:
    """The lemniscatic constant (~2.6220575542921198).

    Evaluates both the defining arc-length integral and the closed Gamma
    form, verifies they agree to 1e-10 relative, and returns the
    arc-length value: against a 40-digit evaluation it is 0.57 units of
    rounding off, the Gamma form 1.57.  A disagreement raises
    :class:`ConvergenceError`.
    """
    by_gamma = _varpi_gamma()
    by_integral = _varpi_integral()
    if abs(by_gamma - by_integral) > 1e-10 * abs(by_gamma):
        raise ConvergenceError(
            "lemniscatic constant routes disagree: "
            f"gamma={by_gamma!r} integral={by_integral!r}"
        )
    return by_integral
