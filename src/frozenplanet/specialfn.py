"""Special functions: Gamma, Beta, Carlson's R_F and R_D, the lemniscatic constant.

The Gamma function is a fixed Lanczos approximation (g = 7, 9 coefficients)
rather than a wrapper around an external library, so its accuracy on the
quarter-integer arguments used elsewhere is pinned by this module alone.
Carlson's symmetric elliptic integrals R_F and R_D come from one
duplication loop with a fixed step count; they give the moment integrals,
the time map and the arc-length route to the lemniscatic constant in closed
form.  The time map takes R_D alone from the same loop, after the six
steps its arguments need (see :func:`frozenplanet.quadrature._time_map`).
The lemniscatic constant is computed two independent ways and the routes
are cross-checked before a value is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConvergenceError, DomainError

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma function for real x > 0 (Lanczos approximation).

    Arguments below 1/2 are lifted through the recurrence
    Gamma(x) = Gamma(x + 1) / x, which keeps the approximation on the part
    of the axis where its error is smallest.
    """
    if x <= 0.0:
        raise DomainError(f"gamma_fn requires x > 0, got {x!r}")
    if x < 0.5:
        return gamma_fn(x + 1.0) / x
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_fn requires a, b > 0, got a={a!r}, b={b!r}")
    return gamma_fn(a) * gamma_fn(b) / gamma_fn(a + b)


# Duplication steps of carlson_rf_rd.  While the arguments are far apart,
# each step takes about the square root of their ratio; once they are
# close, each step shrinks their relative spread fourfold.  Twelve steps
# bring every ratio up to 1e300 within reach of the fifth-order series:
# R_F(0, 1, 1e-300) needs all twelve, and every argument triple of the
# moments, the time map and the lemniscatic constant lands within a few
# units of rounding of SciPy's elliprf/elliprd.
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
    # Offsets of x and y from the mean A_F = (x + y + z)/3; a duplication
    # step divides each offset by 4.
    mean_f = (x + y + z) / 3.0
    xf, yf = mean_f - x, mean_f - y
    rd, x, y, z, scale = _carlson_rd(x, y, z, _CARLSON_STEPS)
    # The mean obeys the same recurrence as the arguments, so A_n is the
    # mean of the final arguments.
    mean_f = (x + y + z) / 3.0

    dx = xf * scale / mean_f
    dy = yf * scale / mean_f
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    rf = (
        1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    ) / mean_f**0.5
    return rf, rd


def _carlson_rd(x, y, z, steps):
    """R_D(x, y, z) after ``steps`` duplication steps and the series.

    Returns R_D together with the final arguments and the final scale
    4**-steps, from which :func:`carlson_rf_rd` finishes R_F.  Twelve steps
    serve every argument (``_CARLSON_STEPS``); a caller whose arguments
    provably need fewer passes that count, as the time map does.
    """
    # Offsets of x and y from the mean A_D = (x + y + 3z)/5.
    mean_d = (x + y + 3.0 * z) / 5.0
    xd, yd = mean_d - x, mean_d - y
    tail = 0.0
    scale = 1.0
    for _ in range(steps):
        sx, sy, sz = x**0.5, y**0.5, z**0.5
        lam = sx * sy + sz * (sx + sy)
        tail = tail + scale / (sz * (z + lam))
        scale *= 0.25
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
    mean_d = (x + y + 3.0 * z) / 5.0

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
    return rd, x, y, z, scale


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
def lemniscate_constant(check_tol: float = 1e-10) -> float:
    """The lemniscatic constant (~2.6220575542921198).

    Evaluates both the defining arc-length integral and the closed Gamma
    form, verifies they agree to ``check_tol`` relative, and returns the
    closed-form value (the tighter of the two).  A disagreement raises
    :class:`ConvergenceError`.
    """
    by_gamma = _varpi_gamma()
    by_integral = _varpi_integral()
    if abs(by_gamma - by_integral) > check_tol * abs(by_gamma):
        raise ConvergenceError(
            "lemniscatic constant routes disagree: "
            f"gamma={by_gamma!r} integral={by_integral!r}"
        )
    return by_gamma


@dataclass(frozen=True)
class Constants:
    """Bundle of the two scalar constants the threshold formulas need."""

    pi: float
    varpi: float


@lru_cache(maxsize=None)
def constants() -> Constants:
    """Return the cached :class:`Constants` bundle."""
    return Constants(pi=math.pi, varpi=lemniscate_constant())
