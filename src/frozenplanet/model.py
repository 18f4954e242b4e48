"""Closed-form parameter algebra of the collinear mean-interaction model.

For nucleus charge mu > 1 the outer electron freezes at qbar2 while the
inner electron oscillates between the collision q1 = 0 and the turning
point q1max.  Everything here is elementary algebra in the gap ratio
gamma = (qbar2 - qbar1) / qbar1; the elliptic-integral pieces live in
:mod:`frozenplanet.quadrature`.
"""

from __future__ import annotations

import math

from .errors import DomainError


def _to_float(value: float, name: str) -> float:
    """``value + 0.0``: a NumPy scalar keeps its type and a string raises
    TypeError, but an int beyond the double range raises DomainError."""
    try:
        return value + 0.0
    except OverflowError:
        raise DomainError(f"{name} lies beyond the double range; it must be finite") from None


def gamma_of_mu(mu: float) -> float:
    """Gap ratio gamma = (1 + sqrt(mu)) / (mu - 1) for nucleus charge mu > 1.

    Decreasing in mu; below mu = 1 the outer electron is not bound and no
    periodic orbit exists.  A non-finite mu is rejected.
    """
    mu = _to_float(mu, "the nucleus charge mu")
    if not math.isfinite(mu):
        raise DomainError(f"mu={mu!r}: the nucleus charge must be a finite number")
    if mu <= 1.0:
        raise DomainError(
            f"mu={mu!r}: for charge mu <= 1 the outer electron is unbound "
            "(the atom ionizes) and no periodic orbit exists"
        )
    return (1.0 + math.sqrt(mu)) / (mu - 1.0)


def mu_of_gamma(gamma: float) -> float:
    """Inverse of :func:`gamma_of_mu`: mu = ((gamma + 1) / gamma)**2.

    Defined for finite gamma > 0, where it is the exact inverse (the map
    is singular at gamma = 0 and loses its meaning for negative gamma).
    """
    gamma = _to_float(gamma, "mu_of_gamma's gamma")
    if not 0.0 < gamma < math.inf:
        raise DomainError(f"mu_of_gamma requires a finite gamma > 0, got {gamma!r}")
    r = (gamma + 1.0) / gamma
    return r * r


def qbar2_of(gamma: float, qbar1: float) -> float:
    """Outer-electron rest position qbar2 = (gamma + 1) * qbar1."""
    if not math.isfinite(gamma):
        raise DomainError(f"qbar2_of requires a finite gamma, got {gamma!r}")
    if not 0.0 < qbar1 < math.inf:
        raise DomainError(f"qbar2_of requires a finite qbar1 > 0, got {qbar1!r}")
    return (gamma + 1.0) * qbar1


def kappa_of(gamma: float, qbar1: float) -> float:
    """Inner-electron energy parameter kappa = 2 / (gamma**2 * qbar1) - 1.

    Its sign decides whether the inner electron's swing reaches past the
    outer electron (kappa > 0), exactly touches it (kappa = 0), or stays
    short (kappa < 0).
    """
    if not (math.isfinite(gamma) and gamma != 0.0):
        raise DomainError(f"kappa_of requires a finite gamma != 0, got {gamma!r}")
    if not 0.0 < qbar1 < math.inf:
        raise DomainError(f"kappa_of requires a finite qbar1 > 0, got {qbar1!r}")
    return 2.0 / (gamma * gamma * qbar1) - 1.0


def sigma_pair(gamma: float, x: float) -> tuple[float, float]:
    """(plus, minus): the scaled turning points of the inner-electron potential.

    They are the two roots of
        sigma**2 - 2 * (2 - gamma**2 * x) * sigma - 4 * (gamma + 1)**2 = 0
    at the point (gamma, x), and x * sigma / 2 recovers the physical turning
    points when x is the orbit mean qbar1.  The root whose sign matches
    s = 2 - gamma**2 * x is taken from the quadratic formula directly; the
    other comes from the product identity plus * minus = -4 * (gamma + 1)**2,
    so neither suffers subtractive cancellation.  Defined for all real
    gamma, x (``plus`` only degenerates to 0 at gamma = -1, x >= 2).
    """
    s = 2.0 - gamma * gamma * x
    gp1 = gamma + 1.0
    w = math.hypot(s, 2.0 * gp1)
    if s >= 0.0:
        plus = s + w
        minus = -4.0 * gp1 * gp1 / plus if plus != 0.0 else 0.0
    else:
        minus = s - w
        plus = -4.0 * gp1 * gp1 / minus
    return plus, minus


def q1_extrema(gamma: float, qbar1: float) -> tuple[float, float]:
    """(q1max, q1antimax): swing amplitude and its negative mirror root.

    q1max = sigma_plus * qbar1 / 2 is the inner electron's turning point;
    q1antimax = sigma_minus * qbar1 / 2 < 0 is the spurious second root of
    the same energy relation.  Their ratio parametrizes every moment integral.
    """
    if not math.isfinite(gamma):
        raise DomainError(f"q1_extrema requires a finite gamma, got {gamma!r}")
    if not 0.0 < qbar1 < math.inf:
        raise DomainError(f"q1_extrema requires a finite qbar1 > 0, got {qbar1!r}")
    plus, minus = sigma_pair(gamma, qbar1)
    return 0.5 * plus * qbar1, 0.5 * minus * qbar1


def q1max_of_kappa(kappa: float, gamma: float, qbar1: float) -> float:
    """Positive root of q**2 - gamma**2 * kappa * qbar1**2 * q = mu * gamma**2 * qbar1**2.

    Same amplitude as ``q1_extrema(...)[0]`` but parametrized by kappa;
    uses mu * gamma**2 = (gamma + 1)**2 so mu never has to be formed.
    """
    if not math.isfinite(kappa):
        raise DomainError(f"q1max_of_kappa requires a finite kappa, got {kappa!r}")
    if not math.isfinite(gamma):
        raise DomainError(f"q1max_of_kappa requires a finite gamma, got {gamma!r}")
    if not 0.0 < qbar1 < math.inf:
        raise DomainError(f"q1max_of_kappa requires a finite qbar1 > 0, got {qbar1!r}")
    b = gamma * gamma * kappa * qbar1 * qbar1
    gp1q = (gamma + 1.0) * qbar1
    w = math.hypot(b, 2.0 * gp1q)
    if b >= 0.0:
        return 0.5 * (b + w)
    return 2.0 * gp1q * gp1q / (w - b)
