"""Scalar special functions: Gamma, Beta, and the lemniscatic constant.

The Gamma function is a fixed Lanczos approximation (g = 7, 9 coefficients)
rather than a wrapper around an external library, so its accuracy on the
quarter-integer arguments used elsewhere is pinned by this module alone.
The lemniscatic constant is computed two independent ways and the routes
are cross-checked before a value is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._gauss import converge_levels
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


def _varpi_integral() -> float:
    """Arc-length integral 2 * int_0^1 dt / sqrt(1 - t^4) by quadrature.

    The substitution t = 1 - u^2 removes the endpoint singularity:
    the integrand becomes 4 / sqrt((2 - u^2) * (1 + (1 - u^2)^2)).
    """

    def estimate(table):
        u2 = table.u * table.u
        t = 1.0 - u2
        return (4.0 * table.w.dot(1.0 / ((2.0 - u2) * (1.0 + t * t)) ** 0.5)).tolist()

    return converge_levels(estimate, 64, 6, 1e-13)[0]


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
