"""Swing/outer-electron intersection classification and the critical charge.

Whether the inner electron's swing reaches the frozen outer electron is
decided by the sign of kappa at the solved orbit: the swing amplitude
q1max exceeds qbar2 exactly when kappa > 0.  The crossover charge has a
closed form in the lemniscatic constant.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import isfinite, pi

from .errors import ConvergenceError, DomainError
from .model import mu_of_gamma
from .solver import solve_orbit
from .specialfn import lemniscate_constant

# Half-width of the band of kappa around 0 classified as touching.
_TOUCH_TOL = 1e-9


class IntersectionClass(Enum):
    """Relation between the swing interval [0, q1max] and the point qbar2."""

    INTERSECTS = "Intersects"
    TOUCHES = "Touches"
    DISJOINT = "Disjoint"


@lru_cache(maxsize=None)
def critical_gamma() -> float:
    """Gap ratio at which the swing exactly touches the outer electron.

    Closed form (3 * pi - varpi**2) / varpi**2 with varpi the lemniscatic
    constant; approximately 0.3708397431333909.
    """
    v = lemniscate_constant()
    v2 = v * v
    return (3.0 * pi - v2) / v2


@lru_cache(maxsize=None)
def critical_mu() -> float:
    """Critical nucleus charge, approximately 13.664722944101899.

    Charges above it give intersecting configurations, charges below give
    disjoint ones.  Computed through :func:`critical_gamma` so the two
    thresholds are exactly consistent under :func:`mu_of_gamma`.
    """
    return mu_of_gamma(critical_gamma())


def classify_kappa(kappa: float) -> IntersectionClass:
    """Classify from an already-computed finite kappa; |kappa| <= 1e-9 touches."""
    if not isfinite(kappa):
        raise DomainError(f"kappa must be finite, got {kappa!r}")
    if abs(kappa) <= _TOUCH_TOL:
        return IntersectionClass.TOUCHES
    return IntersectionClass.INTERSECTS if kappa > 0.0 else IntersectionClass.DISJOINT


def classify(mu: float) -> IntersectionClass:
    """Solve the orbit for ``mu`` and classify the intersection.

    The orbit is solved to the solver's default |F - 2| <= 1e-10, which
    resolves kappa well below the touching band |kappa| <= 1e-9; the
    verdict is then cross-checked against the closed-form critical charge,
    and a disagreement (which would indicate a regression in the moment
    integrals or the solver) raises :class:`ConvergenceError`.
    """
    sol = solve_orbit(mu)
    mu = sol.mu  # the charge as a float, compared in double precision
    verdict = classify_kappa(sol.kappa)

    mu_star = critical_mu()
    if verdict is IntersectionClass.INTERSECTS and mu < mu_star * (1.0 - 1e-6):
        raise ConvergenceError(
            f"kappa={sol.kappa!r} > 0 at mu={mu!r} below the critical charge"
        )
    if verdict is IntersectionClass.DISJOINT and mu > mu_star * (1.0 + 1e-6):
        raise ConvergenceError(
            f"kappa={sol.kappa!r} < 0 at mu={mu!r} above the critical charge"
        )
    return verdict
