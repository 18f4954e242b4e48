"""Fixed-point solver: the unique simple periodic orbit for a given charge.

For every mu > 1 the orbit's mean inner position qbar1 is the unique root
of F(gamma(mu), x) = 2, with F strictly decreasing in x, so bisection on
any bracket of the root is globally safe and needs no derivative of F.

F is sigma_plus * R with R = I_{3/2} / I_{1/2} strictly inside
(2/3, 3/4), and the quadratic of sigma_plus inverts in closed form:
sigma_plus = sigma at the mean x = (2 - s) / gamma**2 with
s = (sigma**2 - 4 (gamma + 1)**2) / (2 sigma).  At x_l, where
sigma_plus = 3 (1 + tol), and at x_r, where sigma_plus = (8/3) (1 - tol),
this gives F - 2 > 2 tol at every x <= x_l and F - 2 < -2 tol at every
x >= x_r.  The window narrows further wherever the moments' argument b
is at least 1, which covers every root up to the critical charge mu*:
there R is a power series in t = 1 / (b + 1/2) <= 2/3 whose Taylor
polynomials of even degree N and N + 1 bound it from above and below,
with N chosen from t so that the two lie within tol / 32 of each other,
and Newton's method finds the sigma_plus at which each bound makes F - 2 =
+-(tol + E): for the upper bound from where its first two terms meet the
target, and for the lower one from the upper end's last pass, since
T_{N+1} = T_N + c_{N+1} t**(N+1).  E = 1e-14 is the difference between
computed and exact F that the window tolerates.  The window (x_l, x_r)
therefore brackets the root, and a trial point outside it takes the
branch its F value would give without a call.

The solve bisects [0, top], where top is the least power of two at or
above x_r: each pass halves the step, tries mid = lo + step and moves lo
to mid while F - 2 > 0, and the first mid with |F - 2| <= tol is
accepted.  Bisecting [0, 2 top] first tries top, which lies at or right
of x_r, and so continues exactly as the bisection of [0, top].  Every
trial point therefore lies in one dyadic tree, whatever the charge.  Two
charges take the same branches down to the first point that lies between
their roots, so the solved qbar1 is non-decreasing in mu by
construction, up to the rounding of F: at tol = 1e-14 the acceptance
band is about 22 rounding units of F wide, and one unit at its edge can
accept a point for one double and pass it for the next; the two means
then differ by less than tol relative.  The passes before the first
trial point inside the window are all decided, and the solve skips them:
it starts at that point, the dyadic of fewest bits in the window.  Over
the charges 1 + 10**u, u in [-12, 11], a solve makes 13.5 F calls on
average and never more than 32: up to mu*, where the series bounds hold,
1.003 on average and at most 2 (one at mu = 2), and above it 30, the
bisection's depth inside the constant bounds' window.  At tol = 1e-14,
where the window is about twice as wide as the acceptance band, the
solves up to mu* make 1.98 calls on average and at most 3.  Close to the
ionization threshold the root nears 3/4 = 0.11 in binary, an early
midpoint: for u <= -10.5 a solve accepts 3/4 after one call.

Each trial point inside the window is evaluated once, through the kernel
``quadrature._shape`` that :func:`big_f` wraps.  The kernel returns F
with the sigma pair (sigma_plus, sigma_minus) and the moment I_{1/2} it
used, and the solve keeps those of the accepted point: q1max =
sigma_plus qbar1 / 2, q1antimax = sigma_minus qbar1 / 2 and the period
eta follow from them by the arithmetic of ``q1_extrema`` and ``period``,
to the same doubles.  A solve therefore computes no moment pair beyond
those of its F evaluations (one at mu = 2) and calls none of ``big_f``,
``period`` or ``q1_extrema``.

qbar1 grows like 1.33 mu and x_r like 1.42 mu, so x_r passes 2**1023
from mu of about 6.34e307, and the bracket there overflows.  The period
eta grows like 3.63 mu and passes the largest double first, from mu of
about 4.95e307, so a solve succeeds up to there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TypeVar

from .errors import ConvergenceError, DomainError
from .model import gamma_of_mu, kappa_of, qbar2_of, sigma_pair
from .quadrature import _eta, _shape, big_f

_X_TOP = 2.0**1023
_WIDTH_STOP = 1e-14
_T = TypeVar("_T")


@dataclass(frozen=True)
class OrbitSolution:
    """One solved periodic orbit, with all derived scalars attached.

    ``fixpoint_residual`` is |F(gamma, qbar1) - 2| at the accepted root;
    every other field is closed-form algebra in (mu, qbar1) and the sigma
    pair and I_{1/2} of that last F evaluation.  :func:`solve_orbit` builds
    each instance through the private constructor ``_frozen``, which
    writes the fields' dict once instead of running the generated
    ``__init__`` and its one ``object.__setattr__`` per field, a sizeable
    share of a solve below mu*; equality, hashing, repr, copies, pickles
    and ``dataclasses.replace`` are those of the dataclass.
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


def _frozen(cls: type[_T], fields: dict[str, object]) -> _T:
    """An instance of the frozen dataclass ``cls`` with ``fields`` as its ``__dict__``.

    ``fields`` holds every field of ``cls`` and nothing else.  Warm, with
    the fields of the solve at mu = 1.5, the generated frozen ``__init__``
    of an OrbitSolution, nine ``object.__setattr__`` calls, took 1.84 us
    and this one dict write 0.65 us (best of 15 x 50,000 on a 2-vCPU Xeon),
    of a solve there of about 10 us.
    """
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def fixpoint_residual(mu: float, x: float) -> float:
    """Signed defect F(gamma(mu), x) - 2; positive left of the root."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"fixpoint_residual requires a finite x > 0, got x={x!r}")
    return big_f(gamma_of_mu(mu), x) - 2.0


def _failure(
    message: str,
    mu: float,
    gamma: float,
    x: float,
    window: tuple[float, float],
    steps: tuple[float, float],
    evaluated: int,
) -> ConvergenceError:
    """A solver failure at the last estimate x of the orbit mean.

    ``window`` is the closed-form window (x_l, x_r).  ``steps`` holds the
    bisection's first and current step, both powers of two, so the loop
    has passed log2(first / current) midpoints, read off their exponents
    and skipped ones included; ``evaluated`` of them were evaluated, one F
    call each, and the rest decided by the window.  ``a`` is sigma_minus /
    sigma_plus at x, never positive (see ``quadrature._shape``).
    """
    plus, minus = sigma_pair(gamma, x)
    trials = math.frexp(steps[0])[1] - math.frexp(steps[1])[1]
    return ConvergenceError(
        message, mu=mu, a=minus / plus, iterations=evaluated, last=x,
        window=window, decided=trials - evaluated, evaluated=evaluated,
    )


# Taylor coefficients c_0..c_23 of R = I_{3/2} / I_{1/2} in t = 1 / (b + 1/2),
# each an exact double, the last ones that are (see ``_decided_window``).
_R_TAYLOR = (
    3 / 4, -1 / 32, 1 / 512, -1 / 512, 9 / 2**15, -129 / 2**19, 783 / 2**24,
    -2607 / 2**26, 9357 / 2**30, -59061 / 2**33, 236721 / 2**37, -358467 / 2**38,
    6221643 / 2**44, -145857981 / 2**49, 2689049739 / 2**55, -7669490331 / 2**57,
    37078279731 / 2**61, -206741119113 / 2**64, 1039166938863 / 2**68,
    -2841224990067 / 2**70, 29504366579529 / 2**75, -317273052097809 / 2**79,
    3386684165878593 / 2**84, -8970734044357137 / 2**86,
)
# One entry per even degree N = 2, 4, ..., 22: the gap |c_{N+1}| between the
# bounds T_N >= R >= T_{N+1}, and both in Horner order, highest term first.
_R_BOUNDS = tuple(
    (-_R_TAYLOR[n + 1], _R_TAYLOR[n::-1], _R_TAYLOR[n + 1::-1]) for n in range(2, 23, 2)
)
# The window's degree is the least whose gap |c_{N+1}| t**(N+1) at the
# Newton start is at most this share of tol.
_GAP_SHARE = 1 / 32
# The difference between computed and exact F that the window's decided
# points tolerate: its ends put F - 2 at +-(tol + _F_ROUNDING).
_F_ROUNDING = 1e-14
# Relative margin on the targets of the series bounds, for the rounding of
# their evaluation and of the mean at the end found.
_BOUND_MARGIN = 64 * 2.0**-53
# A Newton step for a series end of at most this share of sigma is the last:
# the step after it would be below rounding (see ``_decided_window``).
_LAST_STEP = 2.0**-26


def _series_end(
    coefficients: tuple[float, ...], target: float, gp1_sq4: float, sigma: float, steps: int
) -> tuple[float, float, float, float]:
    """(sigma, t, sigma T(t), its derivative in sigma) at a certified end of sigma T = target.

    T is the polynomial given by ``coefficients``, t = sigma**2 / (gp1_sq4 +
    sigma**2 / 2), and with sigma dt/dsigma = t (2 - t) the derivative is
    T + t (2 - t) T'.  Each pass evaluates both by Horner's rule and takes
    a Newton step while ``steps`` remain and the step is nonzero; then it
    steps sigma one double at a time until sigma T lies on the certified
    side of the target: at or below it for the upper end, whose target is
    below 2, and at or above it for the lower end.  A step of at most
    _LAST_STEP sigma is the last.  The values returned are those of the
    certifying pass.
    """
    upper = target < 2.0
    while True:
        sq = sigma * sigma
        t = sq / (gp1_sq4 + 0.5 * sq)
        p = dp = 0.0
        for c in coefficients:
            dp = dp * t + p
            p = p * t + c
        value, slope = sigma * p, p + t * (2.0 - t) * dp
        if steps:
            step = (value - target) / slope
            if step != 0.0:
                steps = steps - 1 if abs(step) > _LAST_STEP * sigma else 0
                sigma -= step
                continue
        if value <= target if upper else value >= target:
            return sigma, t, value, slope
        sigma = math.nextafter(sigma, 0.0 if upper else math.inf)


def _series_bounds(t: float, tol: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(T_N, T_{N+1}) in Horner order for the least even N in 2..22 whose gap fits at t.

    The gap |c_{N+1}| t**(N+1) is the distance T_N - T_{N+1} between the
    bounds, and it fits where it is at most _GAP_SHARE tol; where no degree
    fits, N = 22.
    """
    power, most = t * t * t, _GAP_SHARE * tol
    for gap, above, below in _R_BOUNDS:
        if gap * power <= most:
            break
        power *= t * t
    return above, below


def _decided_window(gamma: float, tol: float) -> tuple[float, float]:
    """(x_l, x_r): F - 2 > tol + E at every x <= x_l and < -(tol + E) at every x >= x_r.

    E = _F_ROUNDING bounds the difference between computed and exact F
    there, so a trial point outside the window computes |F - 2| > tol and
    takes the branch the window gives it.  F = sigma R grows with sigma =
    sigma_plus, which falls as x grows.  The constant bounds 2/3 < R < 3/4
    give the means at which sigma = 3 (1 + tol) and (8/3) (1 - tol), where
    F - 2 lies beyond +-2 tol (see the module docstring), as far out as
    +-(tol + E) since tol >= 1e-14 = E.  Where gamma**2 nears the
    underflow, from mu of about 1.3e308 on, both overflow to infinity.

    Where the moments' argument b = -a is at least 1, sigma is at most
    2 (gamma + 1), since sigma_plus sigma_minus = -4 (gamma + 1)**2 gives
    b = 4 (gamma + 1)**2 / sigma**2.  There R is a power series in t =
    1 / (b + 1/2) = sigma**2 / (4 (gamma + 1)**2 + sigma**2 / 2) <= 2/3,
    the quotient of the moments' centred series (see
    :mod:`frozenplanet.quadrature`), in which their scale (b + 1/2)**(-1/2)
    cancels and the ratio of their leading terms is 3/4.  Its coefficients
    c_n, the power-series division of those series' exact rational
    coefficients, are dyadic; c_0..c_23 are exact doubles, and c_24 is
    not.  For n <= 150 they alternate in sign and |c_{n+1}| <= |c_n|
    (checked in exact rationals), so for t <= 1 the terms |c_n| t**n do not
    grow.  Take an even N in 2..22.  The sum of the terms from n = N + 1
    to 150 then lies between its first two partial sums, c_{N+1} t**(N+1)
    and (c_{N+1} + c_{N+2} t) t**(N+1), both negative for t <= 2/3, and
    with |c_{N+2} / c_{N+1}| <= 0.35 it is at least 0.76 |c_{N+1}|
    t**(N+1) in size.  Likewise the sum from n = N + 2 to 150 is positive
    and, with |c_{N+3} / c_{N+2}| <= 0.9 (0.896 at N = 2, falling to 0.654
    at N = 22), at least 0.40 c_{N+2} t**(N+2).  Past n = 150: |r - 1/2|
    <= 1/2 gives |M_j| <= 2**-j M_0, and (1/2)_j / j! <= 1/2 for j >= 1, so
    on |t| = 1 each series differs from its leading term by at most half of
    it.  R is then analytic on |t| <= 1 with |R| <= (3/4) (3/2) / (1/2) =
    9/4, Cauchy's estimate gives |c_n| <= 9/4, and the terms past n = 150
    sum to at most 7 t**151 <= 4e-22 t**(N+2), far inside both margins:
    c_{N+2} >= c_24 > 3.9e-11.  So the Taylor polynomials T_N and T_{N+1}
    bracket R:

        T_{N+1}(t) <= R(t) <= T_N(t)  for 0 <= t <= 2/3 and even N in 2..22.

    The window takes the least N whose gap T_N - T_{N+1} = |c_{N+1}|
    t**(N+1), at t of the start of Newton's method, is at most tol / 32
    (``_series_bounds``), or 22 where none is.  As sigma < 3.2 there, F - 2
    spans at most 2 (tol + E) + 0.1 tol across the window, with the
    margins below.

    The upper end sigma_r, with sigma T_N(t) = (2 - tol - E) (1 - m), lies
    left of the lower one sigma_l, with sigma T_{N+1}(t) = (2 + tol + E)
    (1 + m), m = 64 u and u = 2**-53, since T_{N+1} < T_N.  One call of
    ``_series_end`` finds each: Newton's method, then a walk one double at
    a time until its bound, evaluated again, meets its target.  sigma_r
    starts where the series' first two terms meet its target, within 7e-4
    of it, and takes at most two Newton steps.  sigma_l starts from the
    pass that certified sigma_r: T_{N+1}(t) = T_N(t) + c_{N+1} t**(N+1),
    so that pass's sigma T_N and its slope, with the one term and its
    slope added, give sigma T_{N+1} and its slope at sigma_r, and one
    Newton step from there lands next to sigma_l.  That sum only seeds
    Newton's method; the pass that certifies sigma_l evaluates T_{N+1} by
    Horner's rule.  A Newton step s of at most 2**-26 sigma is the last
    one: sigma T(t(sigma)) grows like sigma**k, k in (0.96, 1] (below), so
    the next step would be about |k - 1| / 2 (s / sigma)**2 <= 0.02 *
    2**-52 of sigma, below rounding.  So sigma_l takes a second step only
    where its seed step is longer, as at tol = 1e-6, where the ends lie
    about 2 tol apart, and sigma_r its second only where its first step
    is longer too; where t is below rounding, near the ionization
    threshold, the first step is zero, and that pass certifies the end.
    m covers every rounding from the certifying evaluation to the mean at
    the end, each a relative error, to first order in u, for the bound's
    degree n <= 23:

    - t is formed within 6 u (three roundings in 4 (gamma + 1)**2, one
      each in sigma**2, the sum and the quotient), which moves T(t) by at
      most 0.2 u, since t |T'(t)| <= 0.029 T(t) for t <= 2/3;
    - Horner's rule errs by at most gamma_2n sum |c_k| t**k, gamma_2n =
      2 n u / (1 - 2 n u) (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., section 5.1), and sum |c_k| t**k <= 1.06 T(t)
      for t <= 2/3: 2.12 n u;
    - the product by sigma, u; the target, 2 u, as 1 - m and 1 + m are
      exact;
    - the mean: s = (sigma**2 - 4 (gamma + 1)**2) / (2 sigma) errs by at
      most (2 b + (b - 1) / 2) sigma u, which is at most 5 u (2 - s), 2 - s
      = 2 + sigma (b - 1) / 2, for b >= 1 and sigma < 5, and 2 - s,
      gamma**2 and the quotient add u each: 8 u.  Every end has 2.6 <
      sigma < 3.2, since 2/3 < T < 3/4, so the exact sigma_plus at the mean
      found moves by no more, as |d log sigma / d log x| = (4 / sigma + b -
      1) / (b + 1) <= 1 for sigma >= 2, and sigma T(t(sigma)) grows like
      sigma**k with k = 1 + t (2 - t) T'(t) / T(t) in (0.96, 1], so its
      value moves by no more either.

    In all (2.12 n + 11.2) u, at most 60 u at n = 23: inside m at every
    degree.  Only ends in the series domain sigma <= edge = 2 (gamma + 1)
    count.  sigma_r is found again from edge, with no Newton step, where
    its search ends past edge, and then steps down from there, and sigma_l
    is kept where it ends at or below edge; the rounding of edge lets t
    pass 2/3 by a few units there, which the non-growing terms leave room
    for.  Above mu*, where the root's b is below 1, both ends lie past
    edge, and the search stops before any Newton step where its start
    does; that choice only saves work, as the two rules above keep every
    end in the domain.  Since F grows with sigma, F < 2 - tol - E at every
    sigma <= sigma_r and F > 2 + tol + E at every sigma >= sigma_l, and
    the ends narrow the window to their means.  sigma_l always does, as the
    odd partial sums of the series rise: T_{N+1} >= T_1 = 3/4 - t/32 >=
    0.729, so sigma_l < 2.75 < 3 (1 + tol).  The mean at sigma_r can lie
    right of the constant x_r, near the threshold at tol below 2.4e-14.
    """
    gp1_sq4 = 4.0 * (gamma + 1.0) ** 2
    gamma_sq = gamma * gamma
    sigma = 3.0 * (1.0 + tol)
    x_l = (2.0 - (sigma * sigma - gp1_sq4) / (2.0 * sigma)) / gamma_sq
    sigma = 8.0 / 3.0 * (1.0 - tol)
    x_r = (2.0 - (sigma * sigma - gp1_sq4) / (2.0 * sigma)) / gamma_sq
    edge = 2.0 * (gamma + 1.0)
    reach = tol + _F_ROUNDING
    target = (2.0 - reach) * (1.0 - _BOUND_MARGIN)
    # Where the first two terms, 3/4 - t/32 with t taken at sigma =
    # target / (3/4), meet the target: within 7e-4 of sigma_r, relative.
    sigma = target / 0.75
    sq = sigma * sigma
    start = target / (0.75 - sq / (gp1_sq4 + 0.5 * sq) / 32.0)
    if start > edge:
        return x_l, x_r
    sq = start * start
    above, below = _series_bounds(sq / (gp1_sq4 + 0.5 * sq), tol)
    sigma, t, value, slope = _series_end(above, target, gp1_sq4, start, 2)
    if sigma > edge:
        sigma, t, value, slope = _series_end(above, target, gp1_sq4, edge, 0)
    x_r = min(x_r, (2.0 - (sigma * sigma - gp1_sq4) / (2.0 * sigma)) / gamma_sq)
    # sigma T_{N+1} and its slope from this pass's T_N, which lacks only
    # the term c_{N+1} t**(N+1), seed one Newton step to the lower end.
    target = (2.0 + reach) * (1.0 + _BOUND_MARGIN)
    n = len(above)
    term = below[0] * t**n
    step = (value + sigma * term - target) / (slope + term * (1.0 + n * (2.0 - t)))
    steps = 1 if abs(step) > _LAST_STEP * sigma else 0
    sigma = _series_end(below, target, gp1_sq4, sigma - step, steps)[0]
    if sigma <= edge:
        x_l = (2.0 - (sigma * sigma - gp1_sq4) / (2.0 * sigma)) / gamma_sq
    return x_l, x_r


def _first_undecided(x_l: float, x_r: float, top: float) -> tuple[float, float]:
    """(lo, step) of the bisection of [0, top] just before its first trial point in (x_l, x_r).

    That point is the dyadic of fewest bits strictly inside the window.
    Every pass before it is decided and takes the branch that keeps the
    window in [lo, lo + 2 step], so the bisection interval there is the
    least one of the tree that holds the window, and the point its middle.
    With u = top / 2**53, the spacing of the doubles in [top / 2, top),
    the trial points n u strictly inside are the integers n with left < n
    <= right, left = floor(x_l / u) and right = ceil(x_r / u) - 1; the one
    with the most trailing zero bits is right cleared below the highest
    bit in which it differs from left.

    Such a point exists, and the collapse check 2 step < _WIDTH_STOP mid
    fires at no skipped pass, as the window is wide: log(x_r / x_l) >=
    tol + E >= 2e-14, E = _F_ROUNDING.  Each end lies where exact F - 2 is
    beyond +-(tol + E) (see ``_decided_window``), and |d log F / d log x|
    <= 1 across the window: F = sigma R falls with x, d log sigma / d log x
    is in [-1, 0] where sigma >= 2, and R = I_{3/2} / I_{1/2} rises with x,
    as b = 4 (gamma + 1)**2 / sigma**2 does.  For R is the mean of r under
    the weight r**(1/2) ((1 - r) (r + b))**(-1/2), whose log has the
    b-derivative -1 / (2 (r + b)), rising with r: dR/db >= 0 by Chebyshev's
    inequality.  So log(x_r / x_l) >= log((2 + tol + E) / (2 - tol - E)) >=
    tol + E, and x_r - x_l > 1.99e-14 x_r holds 90 trial points or more.
    The interval [mid - step, mid + step] returned holds the window, and
    mid + step <= 2 mid < 2 x_r, so 4 step >= 2 (x_r - x_l) > _WIDTH_STOP
    (mid + step): the check fails at the last skipped pass, which tried
    mid +- step with twice this step, and so at every earlier one, as once
    it fires it fires at every later pass (step halves, and the next mid
    is at least half of this one).
    """
    shift = 54 - math.frexp(top)[1]
    left = math.floor(math.ldexp(x_l, shift))
    right = math.ceil(math.ldexp(x_r, shift)) - 1
    bits = (left ^ right).bit_length() - 1
    step = math.ldexp(1.0, bits - shift)
    mid = math.ldexp(float(right >> bits << bits), -shift)
    return mid - step, 2.0 * step


def solve_orbit(mu: float, tol: float = 1e-10) -> OrbitSolution:
    """Solve F(gamma(mu), x) = 2 for the orbit mean and assemble the orbit.

    ``tol`` bounds the accepted |F - 2| and must lie in [1e-14, 1e-6].  The
    solve bisects [0, top], top the least power of two at or above x_r,
    calls F, through the kernel ``quadrature._shape``, only at trial points
    strictly inside the window (x_l, x_r), skips the passes before the
    first of them, and takes the swing and the period from the accepted
    evaluation (see the module docstring).  :class:`ConvergenceError` is
    raised when x_r exceeds 2**1023 (from mu of about 6.34e307), when the
    relative interval width falls below 1e-14 before the residual meets
    ``tol``, or when the period is not finite (from mu of about 4.95e307).
    Its ``iterations`` counts the F calls made; ``window`` holds (x_l,
    x_r), and ``decided`` and ``evaluated`` split the midpoints tried by
    whether the window or an F call took their branch.  A collapse comes
    only at an evaluated midpoint, whose residual the error reports: then
    2 step < _WIDTH_STOP mid, so mid is within 5e-15 of the root, which [lo,
    lo + 2 step] holds, and each window end more than 0.99e-14 from it,
    relative: log(1 + (tol + E) / 2) or more (see ``_first_undecided``).
    """
    if not 1e-14 <= tol <= 1e-6:
        raise DomainError(f"tol must lie in [1e-14, 1e-6], got {tol!r}")
    gamma = gamma_of_mu(mu)
    # Once accepted, a NumPy scalar charge or tol becomes a plain float, so
    # the solve computes in double precision, and every field and message
    # that carries them holds the float.
    mu, tol = float(mu), float(tol)
    # F - 2 > 0 at every x <= x_l and < 0 at every x >= x_r; only points
    # strictly between are evaluated.
    x_l, x_r = _decided_window(gamma, tol)
    if not x_r <= _X_TOP:
        raise _failure(
            f"bracket for the orbit mean overflowed past 2**1023 for mu={mu!r}",
            mu, gamma, _X_TOP, (x_l, x_r), (_X_TOP, _X_TOP), 0,
        )
    # Bisect [0, top], top the least power of two at or above x_r.
    mantissa, exponent = math.frexp(x_r)
    top = math.ldexp(0.5 if mantissa == 0.5 else 1.0, exponent)
    # Skip the decided passes before the first trial point in the window.
    lo, step = _first_undecided(x_l, x_r, top)
    evaluated = 0
    while True:
        step *= 0.5
        mid = lo + step
        if x_l < mid < x_r:
            evaluated += 1
            f, plus, minus, i_half = _shape(gamma, mid)
            f_mid = f - 2.0
            if abs(f_mid) <= tol:
                break
        else:
            f_mid = math.inf if mid <= x_l else -math.inf
        if 2.0 * step < _WIDTH_STOP * mid:
            raise _failure(
                f"bisection interval collapsed before reaching tol={tol:g} "
                f"(mu={mu!r}, residual={f_mid!r})",
                mu, gamma, mid, (x_l, x_r), (top, step), evaluated,
            )
        if f_mid > 0.0:
            lo = mid

    # The accepted midpoint was evaluated: its sigma pair and I_{1/2} give
    # the swing and the period, as q1_extrema and period would.
    qbar1 = mid
    q1max = 0.5 * plus * qbar1
    eta = _eta(gamma, qbar1, q1max, i_half)
    if not math.isfinite(eta):
        raise _failure(
            f"period of the orbit overflowed for mu={mu!r} (orbit mean {qbar1!r})",
            mu, gamma, qbar1, (x_l, x_r), (top, step), evaluated,
        )
    return _frozen(OrbitSolution, {
        "mu": mu,
        "gamma": gamma,
        "qbar1": qbar1,
        "qbar2": qbar2_of(gamma, qbar1),
        "kappa": kappa_of(gamma, qbar1),
        "q1max": q1max,
        "q1antimax": 0.5 * minus * qbar1,
        "eta": eta,
        "fixpoint_residual": abs(f_mid),
    })
