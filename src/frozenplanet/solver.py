"""Fixed-point solver: the unique simple periodic orbit for a given charge.

For every mu > 1 the orbit's mean inner position qbar1 is the unique root
of F(gamma(mu), x) = 2, with F strictly decreasing in x.  Bisection on a
bracket grown by doubling is therefore globally safe; no derivative of F
is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .model import gamma_of_mu, kappa_of, q1_extrema, qbar2_of, sigma_pair
from .quadrature import big_f, period

_X_LO = 1e-8
_X_HI_LIMIT = 1e12
_WIDTH_STOP = 1e-14


@dataclass(frozen=True)
class OrbitSolution:
    """One solved periodic orbit, with all derived scalars attached.

    ``fixpoint_residual`` is |F(gamma, qbar1) - 2| at the accepted root;
    every other field is closed-form algebra or one pair of moment
    integrals away from (mu, qbar1).
    """

    mu: float
    gamma: float
    qbar1: float
    qbar2: float
    kappa: float
    q1max: float
    q1antimax: float
    eta: float
    fixpoint_residual: float


def fixpoint_residual(mu: float, x: float) -> float:
    """Signed defect F(gamma(mu), x) - 2; positive left of the root."""
    if x <= 0.0:
        raise DomainError(f"fixpoint_residual requires x > 0, got {x!r}")
    return big_f(gamma_of_mu(mu), x) - 2.0


def _failure(message: str, mu: float, gamma: float, x: float, evals: int) -> ConvergenceError:
    """A solver failure at the last estimate x of the orbit mean, after evals F calls."""
    pair = sigma_pair(gamma, x)
    return ConvergenceError(
        message, mu=mu, a=min(pair.minus / pair.plus, 0.0), iterations=evals, last=x
    )


def solve_orbit(mu: float, tol: float = 1e-10) -> OrbitSolution:
    """Solve F(gamma(mu), x) = 2 for the orbit mean and assemble the orbit.

    ``tol`` bounds the accepted |F - 2| and must lie in [1e-14, 1e-6].
    The bracket starts at [1e-8, 1] and the upper end doubles until the
    residual turns negative; bisection then runs until the residual meets
    ``tol`` (a relative interval width below 1e-14 without that happening
    raises :class:`ConvergenceError`).
    """
    if not 1e-14 <= tol <= 1e-6:
        raise DomainError(f"tol must lie in [1e-14, 1e-6], got {tol!r}")
    gamma = gamma_of_mu(mu)

    def f(x: float) -> float:
        return big_f(gamma, x) - 2.0

    lo = _X_LO
    if f(lo) <= 0.0:
        raise _failure(
            f"no sign change available: F(gamma, {lo!r}) <= 2 for mu={mu!r}",
            mu, gamma, lo, 1,
        )
    hi = 1.0
    f_hi = f(hi)
    evals = 2
    while f_hi >= 0.0:
        lo = hi
        hi *= 2.0
        if hi > _X_HI_LIMIT:
            raise _failure(
                f"bracket for the orbit mean exceeded {_X_HI_LIMIT:g} for mu={mu!r}",
                mu, gamma, lo, evals,
            )
        f_hi = f(hi)
        evals += 1

    while True:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        evals += 1
        if abs(f_mid) <= tol:
            break
        if hi - lo < _WIDTH_STOP * mid:
            raise _failure(
                f"bisection interval collapsed before reaching tol={tol:g} "
                f"(mu={mu!r}, residual={f_mid!r})",
                mu, gamma, mid, evals,
            )
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid

    qbar1 = mid
    q1max, q1antimax = q1_extrema(gamma, qbar1)
    return OrbitSolution(
        mu=mu,
        gamma=gamma,
        qbar1=qbar1,
        qbar2=qbar2_of(gamma, qbar1),
        kappa=kappa_of(gamma, qbar1),
        q1max=q1max,
        q1antimax=q1antimax,
        eta=period(gamma, qbar1),
        fixpoint_residual=abs(f_mid),
    )
