"""Fixed-point solver: the unique simple periodic orbit for a given charge.

For every mu > 1 the orbit's mean inner position qbar1 is the unique root
of F(gamma(mu), x) = 2, with F strictly decreasing in x.  Bisection on a
bracket grown by doubling is therefore globally safe; no derivative of F
is needed.

The doubling starts at a closed-form lower bound of the root.  F is
sigma_plus * R with R = I_{3/2} / I_{1/2} in [2/3, 3/4], and sigma_plus
falls with x through 3 at x_lo = (3 + 4 (gamma + 1)**2) / (6 gamma**2).
Left of x_lo, sigma_plus > 3 and R >= 2/3, so F > 2 and the root lies
right of x_lo.  The bracket therefore starts at the largest power of two
not above x_lo, or at [1e-8, 1] when x_lo < 1, and doubles from there.
Every power of two it skips lies left of the root, so a doubling from 1
steps past each of them: the final bracket [2**(k-1), 2**k] and every
bisection midpoint are the ones a start at 1 reaches.  The trial points
are thus the same powers of two for every charge, which keeps the solved
qbar1 non-decreasing in mu.

Likewise sigma_plus = 8/3 at x_hi = (2/3 + 3 (gamma + 1)**2 / 4) / gamma**2,
where F < 2, and x_hi / x_lo <= 17/14 puts the root below 4 lo: at most
three trial points precede the bisection at any charge.

The same window decides about 10 of the 34 trial points without F.  The quadratic of
sigma_plus inverts in closed form: sigma_plus = sigma at the mean
x = (2 - s) / gamma**2 with s = (sigma**2 - 4 (gamma + 1)**2) / (2 sigma).
At x_l, where sigma_plus = 3 (1 + tol), and at x_r, where
sigma_plus = (8/3) (1 - tol), R strictly inside (2/3, 3/4) gives
F - 2 > 2 tol at every x <= x_l and F - 2 < -2 tol at every x >= x_r.  The
doubling and the bisection take their branch at such points without a
call; only points strictly inside (x_l, x_r) are evaluated.  A skipped
point gets the branch that its evaluation would give, so the trial points,
the branches and the accepted midpoint are those of a solve that evaluates
every point.  Over the charges 1 + 10**u, u in [-12, 11], a solve makes
24 F calls on average and never more than 32 (34 and 37 when every
trial point is evaluated).  Where R nears 3/4, for u in [-9, -3], x_r
lies close to the root and a solve takes 11 on average (3 to 20 for u in
[-8, -3]).

Each trial point the window leaves undecided is evaluated once, through
the kernel ``quadrature._shape`` that :func:`big_f` wraps, with the window
tests inline.  The kernel returns F with the sigma pair (sigma_plus,
sigma_minus) and the moment I_{1/2} it used, and the solve keeps those of
the accepted midpoint: q1max = sigma_plus qbar1 / 2, q1antimax =
sigma_minus qbar1 / 2 and the period eta follow from them by the
arithmetic of ``q1_extrema`` and ``period``, to the same doubles.  A solve
therefore computes no moment pair beyond those of its F evaluations (29
at mu = 2) and calls none of ``big_f``, ``period`` or ``q1_extrema``.

The doubling has no cap: qbar1 grows like 1.33 mu, so the bracket covers
every charge whose orbit mean lies below 2**1023, up to mu of about
6.7e307.  The period eta grows like 3.63 mu and passes the largest double
first, from mu of about 4.95e307, so a solve succeeds up to there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .model import gamma_of_mu, kappa_of, qbar2_of, sigma_pair
from .quadrature import _eta, _shape, big_f

_X_LO = 1e-8
_X_TOP = 2.0**1023
_WIDTH_STOP = 1e-14


@dataclass(frozen=True)
class OrbitSolution:
    """One solved periodic orbit, with all derived scalars attached.

    ``fixpoint_residual`` is |F(gamma, qbar1) - 2| at the accepted root;
    every other field is closed-form algebra in (mu, qbar1) and the sigma
    pair and I_{1/2} of that last F evaluation.
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
    if not 0.0 < x < math.inf:
        raise DomainError(f"fixpoint_residual requires a finite x > 0, got x={x!r}")
    return big_f(gamma_of_mu(mu), x) - 2.0


def _failure(message: str, mu: float, gamma: float, x: float, evals: int) -> ConvergenceError:
    """A solver failure at the last estimate x of the orbit mean, after evals F calls."""
    plus, minus = sigma_pair(gamma, x)
    return ConvergenceError(
        message, mu=mu, a=min(minus / plus, 0.0), iterations=evals, last=x
    )


def _bracket_start(gamma: float) -> tuple[float, float]:
    """Initial bracket (lo, hi) of the doubling, with lo left of the root.

    lo is the largest power of two not above x_lo (see the module
    docstring), capped at 2**1023, and hi = 2 lo; below x_lo = 1 the
    bracket is [1e-8, 1].
    """
    gp1 = gamma + 1.0
    x_lo = (3.0 + 4.0 * gp1 * gp1) / (6.0 * gamma * gamma)
    if x_lo < 1.0:
        return _X_LO, 1.0
    lo = math.ldexp(0.5, math.frexp(min(x_lo, _X_TOP))[1])
    return lo, 2.0 * lo


def _decided_window(gamma: float, tol: float) -> tuple[float, float]:
    """(x_l, x_r): F - 2 > 2 tol at every x <= x_l and < -2 tol at every x >= x_r.

    They are the means at which sigma_plus = 3 (1 + tol) and (8/3) (1 - tol)
    (see the module docstring).  Where gamma**2 nears the underflow, from
    mu of about 1.3e308 on, the bounds overflow and decide nothing: x_r is
    then infinite, and x_l is replaced by 0.
    """
    gp1_sq4 = 4.0 * (gamma + 1.0) ** 2
    gamma_sq = gamma * gamma

    def mean_at(sigma: float) -> float:
        return (2.0 - (sigma * sigma - gp1_sq4) / (2.0 * sigma)) / gamma_sq

    x_l = mean_at(3.0 * (1.0 + tol))
    x_r = mean_at(8.0 / 3.0 * (1.0 - tol))
    return (x_l if x_l < math.inf else 0.0), x_r


def solve_orbit(mu: float, tol: float = 1e-10) -> OrbitSolution:
    """Solve F(gamma(mu), x) = 2 for the orbit mean and assemble the orbit.

    ``tol`` bounds the accepted |F - 2| and must lie in [1e-14, 1e-6].
    The bracket starts at the largest power of two not above the
    closed-form lower bound x_lo of the root, or at [1e-8, 1] when
    x_lo < 1, and the upper end doubles until the residual turns negative;
    bisection then runs until the residual meets ``tol``.  F is called only
    at trial points strictly inside the closed-form window (x_l, x_r);
    outside it the sign of F - 2 is known and the branch is taken without
    a call.  A solve makes 24 F calls on average at the default ``tol``
    over mu = 1 + 10**u, u in [-12, 11], and never more than 32, each one
    call of the kernel ``quadrature._shape``.  The swing (q1max, q1antimax)
    and the period eta are formed from the sigma pair and I_{1/2} of the
    accepted evaluation, bit-identical to ``q1_extrema`` and ``period`` at
    the solved mean, so no moment pair is computed after the root is found.
    :class:`ConvergenceError` is raised when the upper end overflows to
    infinity (the orbit mean exceeds 2**1023, from mu of about 6.7e307),
    when the relative interval width falls below 1e-14 before the residual
    meets ``tol``, or when the period of the solved orbit is not finite (it
    exceeds the largest double from mu of about 4.95e307).  Its
    ``iterations`` counts the F calls made.
    """
    if not 1e-14 <= tol <= 1e-6:
        raise DomainError(f"tol must lie in [1e-14, 1e-6], got {tol!r}")
    gamma = gamma_of_mu(mu)
    # F - 2 > 0 at every x <= x_l and < 0 at every x >= x_r; only points
    # strictly between are evaluated.
    x_l, x_r = _decided_window(gamma, tol)
    evals = 0

    lo, hi = _bracket_start(gamma)
    if x_l < lo < x_r:
        evals += 1
        no_sign_change = _shape(gamma, lo)[0] <= 2.0
    else:
        no_sign_change = lo > x_l
    if no_sign_change:
        raise _failure(
            f"no sign change available: F(gamma, {lo!r}) <= 2 for mu={mu!r}",
            mu, gamma, lo, evals,
        )
    while True:
        if math.isinf(hi):
            raise _failure(
                f"bracket for the orbit mean overflowed past {lo!r} for mu={mu!r}",
                mu, gamma, lo, evals,
            )
        if x_l < hi < x_r:
            evals += 1
            if _shape(gamma, hi)[0] < 2.0:
                break
        elif hi > x_l:
            break
        lo = hi
        hi *= 2.0

    while True:
        mid = 0.5 * (lo + hi)
        if x_l < mid < x_r:
            evals += 1
            f, plus, minus, i_half = _shape(gamma, mid)
            f_mid = f - 2.0
            if abs(f_mid) <= tol:
                break
        else:
            f_mid = math.inf if mid <= x_l else -math.inf
        if hi - lo < _WIDTH_STOP * mid:
            if math.isinf(f_mid):
                # Report the residual F gives at a decided midpoint.
                evals += 1
                f_mid = _shape(gamma, mid)[0] - 2.0
            raise _failure(
                f"bisection interval collapsed before reaching tol={tol:g} "
                f"(mu={mu!r}, residual={f_mid!r})",
                mu, gamma, mid, evals,
            )
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid

    # The accepted midpoint was evaluated: its sigma pair and I_{1/2} give
    # the swing and the period, as q1_extrema and period would.
    qbar1 = mid
    q1max = 0.5 * plus * qbar1
    eta = _eta(gamma, qbar1, q1max, i_half)
    if not math.isfinite(eta):
        raise _failure(
            f"period of the orbit overflowed for mu={mu!r} (orbit mean {qbar1!r})",
            mu, gamma, qbar1, evals,
        )
    return OrbitSolution(
        mu=mu,
        gamma=gamma,
        qbar1=qbar1,
        qbar2=qbar2_of(gamma, qbar1),
        kappa=kappa_of(gamma, qbar1),
        q1max=q1max,
        q1antimax=0.5 * minus * qbar1,
        eta=eta,
        fixpoint_residual=abs(f_mid),
    )
