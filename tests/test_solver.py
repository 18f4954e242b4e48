"""Tests for the fixed-point solve of the orbit shape equation F(gamma, x) = 2."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from frozenplanet import (
    ConvergenceError,
    DomainError,
    big_f,
    classify,
    critical_gamma,
    critical_mu,
    fixpoint_residual,
    gamma_of_mu,
    kappa_of,
    mu_of_gamma,
    period,
    q1_extrema,
    qbar2_of,
    ratio_integrals,
    sigma_pair,
    solve_orbit,
)
from frozenplanet import model, quadrature, solver
from frozenplanet.solver import OrbitSolution

# Frozen regression values from the current build (defect |F - 2| <= 1e-10;
# the induced parameter uncertainty is well below the 1e-9 tolerances used).
QBAR1_MU2 = 1.604132801759988
ETA_MU2 = 4.695443068506109
KAPPA_MU2 = -0.7860864448809135
QBAR1_MU4 = 3.6000244673341513
ETA_MU4 = 10.342953771802511
KAPPA_MU20 = 0.09121402801130785


def test_solve_orbit_mu2_goldens(sol_mu2):
    assert_allclose(sol_mu2.qbar1, QBAR1_MU2, rtol=1e-9)
    assert_allclose(sol_mu2.eta, ETA_MU2, rtol=1e-9)
    assert_allclose(sol_mu2.kappa, KAPPA_MU2, rtol=1e-9)
    assert abs(sol_mu2.fixpoint_residual) <= 1e-10


def test_solve_orbit_mu4_goldens(sol_mu4):
    assert_allclose(sol_mu4.qbar1, QBAR1_MU4, rtol=1e-9)
    assert_allclose(sol_mu4.eta, ETA_MU4, rtol=1e-9)
    assert abs(big_f(1.0, sol_mu4.qbar1) - 2.0) <= 1e-10


def test_solve_orbit_mu20_kappa(sol_mu2):
    sol = solve_orbit(20.0)
    assert_allclose(sol.kappa, KAPPA_MU20, rtol=1e-9)
    assert sol.kappa > 0.0 > sol_mu2.kappa


def test_solution_internal_consistency(sol_mu2, sol_mu4):
    # The swing and the period come from the accepted point's sigma pair
    # and I_1/2 by the arithmetic of q1_extrema and period: the same doubles.
    for sol in (sol_mu2, sol_mu4, solve_orbit(1e11), solve_orbit(1e300)):
        g = gamma_of_mu(sol.mu)
        assert_allclose(sol.gamma, g, rtol=1e-14)
        assert_allclose(sol.qbar2, qbar2_of(g, sol.qbar1), rtol=1e-14)
        assert_allclose(sol.kappa, kappa_of(g, sol.qbar1), rtol=1e-12)
        assert (sol.q1max, sol.q1antimax) == q1_extrema(g, sol.qbar1)
        assert sol.eta == period(g, sol.qbar1)
        assert sol.q1antimax < 0.0 < sol.qbar1 < sol.q1max


def test_solve_orbit_at_threshold():
    sol = solve_orbit(critical_mu())
    gs = critical_gamma()
    assert_allclose(sol.qbar1, 2.0 / gs**2, rtol=1e-8)
    assert abs(sol.kappa) <= 1e-8
    # At the touch point the swing exactly reaches the outer electron.
    assert_allclose(sol.q1max, sol.qbar2, rtol=1e-8)


def test_solve_orbit_near_ionization_threshold():
    # mu -> 1+: gamma blows up but the solve must still converge;
    # qbar1 approaches the 3 mu / 4 deep-well asymptote.
    sol = solve_orbit(1.0001)
    assert abs(sol.fixpoint_residual) <= 1e-10
    assert_allclose(sol.qbar1, 0.75 * sol.mu, rtol=1e-3)


def test_solve_orbit_slope_at_ionization_threshold():
    """(qbar1 - 3/4) / (mu - 1) tends to 3/4 as mu -> 1.

    There gamma -> inf and b = -sigma_minus / sigma_plus grows like
    (9/16) gamma**2, so R = I_{3/2} / I_{1/2} = 3/4 + O(1/b) and the root
    of F = sigma_plus R = 2 has sigma_plus = 8/3 + O(1/b).  The mean with
    that sigma_plus is x = (2 - s) / gamma**2, s = sigma_plus / 2 -
    2 (gamma + 1)**2 / sigma_plus = 4/3 - (3/4) (gamma + 1)**2 + O(1),
    since ds / dsigma_plus grows like gamma**2 ~ b, so

        x = (3/4) (1 + 1/gamma)**2 + O(gamma**-2) = 3/4 + (3/2) / gamma + O(gamma**-2).

    With mu - 1 = 2 / gamma + gamma**-2 the slope is 3/4 + O(mu - 1).
    At tol = 1e-14 the solve leaves |F - 2| <= 1e-14 and |F_x| is about
    8/3, so qbar1 is within 4e-15 of the root: 4e-6 of the slope at
    mu - 1 = 1e-9.  (At the default tol the solve accepts 3/4 itself.)
    """
    for offset in (1e-9, 1e-8):
        mu = 1.0 + offset
        slope = (solve_orbit(mu, tol=1e-14).qbar1 - 0.75) / (mu - 1.0)
        assert abs(slope - 0.75) <= 1e-4, (offset, slope)


# The large-charge limit, frozen from 30-digit mpmath: b_inf is the root of
# sqrt(b) = R(b), R = I_{3/2} / I_{1/2}, and s_inf = (1 - b_inf) / sqrt(b_inf).
B_INF = 0.5174783659557972
S_INF = 0.6707654594107527
KAPPA_INF = 0.5046253606330479


def test_kappa_at_large_charge_limit():
    """kappa(mu) approaches kappa_inf = s_inf / (2 - s_inf) from below.

    As mu -> inf, gamma -> 0; at the root sqrt(b) = (gamma + 1) R(b), so b
    tends to b_inf.  With s = 2 - gamma**2 qbar1 = (1 - b) / R(b), kappa =
    2 / (gamma**2 qbar1) - 1 = s / (2 - s), and R(b_inf) = sqrt(b_inf)
    gives s_inf.  At mu = 1e20 kappa lies 1.7e-10 below the limit, a
    correction of order 1 / sqrt(mu).
    """
    i_half, i_three_half = ratio_integrals(-B_INF)
    assert abs(i_three_half / i_half - math.sqrt(B_INF)) <= 1e-15
    assert abs((1.0 - B_INF) / math.sqrt(B_INF) - S_INF) <= 4e-16
    assert abs(S_INF / (2.0 - S_INF) - KAPPA_INF) <= 4e-16
    gap = KAPPA_INF - solve_orbit(1e20, tol=1e-14).kappa
    assert 0.0 < gap <= 5e-10, gap


def test_solve_orbit_large_mu():
    # The orbit mean grows like 1.33 mu; the bracket has no cap and follows
    # it as far as the float range reaches.
    sols = [solve_orbit(mu) for mu in (1000.0, 1e12, 1e15, 1e20, 1e100, 1e300)]
    for sol in sols:
        assert abs(sol.fixpoint_residual) <= 1e-10
        assert sol.kappa > 0.0
    assert all(a.qbar1 < b.qbar1 for a, b in zip(sols, sols[1:]))


def test_solve_orbit_failures_carry_context(monkeypatch):
    # From mu of about 6.34e307 the closed-form bound x_r of the root
    # exceeds 2**1023, so no power of two brackets it: the solve raises
    # before any F call, with 2**1023 as the last estimate.  Just below, the
    # bracket holds, and the period of the solved orbit overflows instead.
    # Each failure carries the closed-form window and splits the midpoints
    # it tried into those the window decided and those F evaluated; at
    # 6e307 the bisection of [0, 2**1023] tried 33 midpoints before the
    # accepted one's period overflowed, and 31 of them lay in the window.
    calls = []
    real_shape = quadrature._shape
    monkeypatch.setattr(solver, "_shape", lambda *args: calls.append(args) or real_shape(*args))
    with pytest.raises(ConvergenceError, match="period of the orbit overflowed") as info:
        solve_orbit(6e307)
    monkeypatch.undo()
    exc = info.value
    assert exc.window == solver._decided_window(gamma_of_mu(6e307), 1e-10)
    assert (exc.decided, exc.evaluated, exc.iterations) == (2, 31, 31) == (2, len(calls), 31)
    assert exc.window[0] < exc.last < exc.window[1] <= 2.0**1023
    for mu in (6.4e307, 1e308):
        window = solver._decided_window(gamma_of_mu(mu), 1e-10)
        assert window[1] > 2.0**1023
        with pytest.raises(ConvergenceError, match="bracket for the orbit mean overflowed") as info:
            solve_orbit(mu)
        exc = info.value
        assert (exc.mu, exc.last, exc.iterations) == (mu, 2.0**1023, 0)
        assert (exc.window, exc.decided, exc.evaluated) == (window, 0, 0)
        assert -1.0 < exc.a <= 0.0
    # At mu = 1.7e308 gamma**2 is subnormal and both bounds overflow.
    assert solver._decided_window(gamma_of_mu(1.7e308), 1e-10) == (math.inf, math.inf)
    with pytest.raises(ConvergenceError, match="bracket for the orbit mean overflowed") as info:
        solve_orbit(1.7e308)
    assert (info.value.last, info.value.iterations) == (2.0**1023, 0)

    # Above mu* the window is the constant bounds' one, and the bisection
    # evaluates the midpoints inside it until the interval collapses; at
    # mu = 2 the series bounds narrow it to 3e-13 relative, and the solve
    # jumps past 43 decided midpoints to the first one inside it, whose
    # evaluation is the last.  The collapse at 1e-3 relative width leaves
    # the last estimate within 1e-3 of the root, relative.  A collapse comes
    # at an evaluated midpoint, and the error reports F's residual there.
    monkeypatch.setattr(solver, "_WIDTH_STOP", 1e-3)
    for mu, qbar1, counts in ((20.0, 22.096, (2, 10, 10)), (2.0, QBAR1_MU2, (43, 1, 1))):
        with pytest.raises(ConvergenceError, match="bisection interval collapsed") as info:
            solve_orbit(mu, tol=1e-14)
        exc = info.value
        assert exc.mu == mu
        assert abs(exc.last - qbar1) <= 1e-3 * qbar1
        assert (exc.decided, exc.evaluated, exc.iterations) == counts
        assert exc.window == solver._decided_window(gamma_of_mu(mu), 1e-14)
        assert exc.window[0] < exc.last < exc.window[1]
        assert f"residual={big_f(gamma_of_mu(mu), exc.last) - 2.0!r})" in str(exc)
        assert exc.a < 0.0
    monkeypatch.undo()

    # Raise sites that know none of the numbers leave them unset.
    plain = ConvergenceError("plain")
    assert (plain.mu, plain.a, plain.iterations, plain.last) == (None, None, None, None)
    assert (plain.window, plain.decided, plain.evaluated) == (None, None, None)


def test_solve_orbit_period_overflow():
    # The period grows like 3.63 mu and passes the largest double from mu
    # of about 4.95e307, before the bracket overflows at about 6.34e307.
    sol = solve_orbit(4.9e307)
    assert math.isfinite(sol.eta) and sol.eta > sol.mu
    with pytest.raises(ConvergenceError, match="period of the orbit overflowed") as info:
        solve_orbit(5e307)
    exc = info.value
    assert exc.mu == 5e307
    assert math.isfinite(exc.last) and exc.last > 5e307
    assert exc.iterations == 30
    assert -1.0 < exc.a < 0.0


def test_solve_orbit_numpy_charge_gives_floats():
    # A NumPy scalar charge is accepted as its float: every field is a
    # plain float and the solution equals that of the float charge, while
    # a string is still refused by gamma_of_mu.
    mu = 1.0 + 1e-12
    sol = solve_orbit(np.float64(mu))
    assert all(type(getattr(sol, f.name)) is float for f in dataclasses.fields(sol))
    assert sol == solve_orbit(mu)
    with pytest.raises(TypeError):
        solve_orbit("2")


@pytest.mark.filterwarnings("error")
def test_narrow_float_charges_and_tols_solve_in_double():
    # A float32 or float16 charge or tol is taken as its value in double
    # precision: the solve, the verdict and the residual equal those at
    # float(value), with no warning, rather than running in the narrow type.
    for mu in (np.float32(2.0), np.float32(1.7), np.float16(3.3), np.float16(13.7)):
        sol = solve_orbit(mu)
        assert sol == solve_orbit(float(mu)) and sol.gamma == gamma_of_mu(float(mu))
        assert classify(mu) is classify(float(mu))
        assert fixpoint_residual(mu, sol.qbar1) == fixpoint_residual(float(mu), sol.qbar1)
        assert abs(fixpoint_residual(mu, sol.qbar1)) <= sol.fixpoint_residual
    for tol in (np.float32(1e-8), np.float32(1e-12), np.float16(5e-7)):
        assert solve_orbit(2.0, tol=tol) == solve_orbit(2.0, tol=float(tol))
    # So are the arguments of the public moment, shape and period entries,
    # and of fixpoint_residual's mean, which reaches big_f.
    calls = [
        (big_f, 2.0, 1.5), (big_f, 1.0, 3.3), (period, 2.0, 1.5), (period, 0.4, 13.7),
        (ratio_integrals, -0.6), (ratio_integrals, -6.48), (fixpoint_residual, 2.0, 1.7),
    ]
    for narrow in (np.float32, np.float16):
        for fn, *args in calls:
            for i in range(len(args)):
                narrowed = [narrow(v) if j == i else v for j, v in enumerate(args)]
                exact = [float(v) for v in narrowed]
                value, expected = fn(*narrowed), fn(*exact)
                assert type(value) is type(expected) and value == expected, (fn, narrowed)
                values = value if isinstance(value, tuple) else (value,)
                assert all(type(v) is float for v in values), (fn, narrowed, value)


def test_solve_orbit_rejects_unbound_charge():
    with pytest.raises(DomainError, match="ioniz"):
        solve_orbit(1.0)
    with pytest.raises(DomainError):
        solve_orbit(0.5)


def test_solve_orbit_tolerance_band():
    with pytest.raises(DomainError):
        solve_orbit(2.0, tol=1e-15)
    with pytest.raises(DomainError):
        solve_orbit(2.0, tol=1e-3)


def test_solve_orbit_deterministic():
    assert solve_orbit(7.5) == solve_orbit(7.5)


def test_fixpoint_residual_signs():
    # F(gamma, x) - 2 is positive for tiny x and negative far out, so the
    # bisection bracket always exists.
    for mu in (2.0, 4.0, 10.0):
        assert fixpoint_residual(mu, 1e-6) > 0.0
    assert fixpoint_residual(2.0, 1e6) < 0.0
    assert abs(fixpoint_residual(critical_mu(), 2.0 / critical_gamma() ** 2)) <= 1e-9


def test_fixpoint_residual_strictly_decreasing():
    xs = np.linspace(0.3, 4.0, 15)
    vals = [fixpoint_residual(2.0, float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_fixpoint_residual_rejects_nonpositive_x():
    # The error names the x the caller passed, NaN included.
    for x in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match=f"finite x > 0, got x={x!r}"):
            fixpoint_residual(2.0, x)


def test_unique_root_on_dense_grid():
    # Sign-change count over a dense grid: exactly one crossing at mu = 4.
    sol = solve_orbit(4.0)
    xs = np.linspace(1e-6, 4.0 * sol.qbar1, 2000)
    signs = np.array([fixpoint_residual(4.0, float(x)) > 0.0 for x in xs])
    flips = int(np.sum(signs[:-1] != signs[1:]))
    assert flips == 1


def _x_lo(gamma):
    """Mean at which sigma_plus = 3: F > 2 left of it, so the root lies right."""
    return (3.0 + 4.0 * (gamma + 1.0) ** 2) / (6.0 * gamma**2)


def _x_hi(gamma):
    """Mean at which sigma_plus = 8/3: F <= 2 right of it."""
    return (2.0 / 3.0 + 0.75 * (gamma + 1.0) ** 2) / gamma**2


def _solve_every_point(mu, tol=1e-10):
    """solve_orbit's outcome from a bisection that evaluates F at every trial point.

    It doubles from x = 1 to the least power of two 2**k >= 1 with F < 2,
    then bisects [0, 2**(k+1)], whose first midpoint is 2**k, and accepts
    the first midpoint with |F - 2| <= tol.  The failures are raised with
    solve_orbit's messages, last estimates and ``a``.
    """
    gamma = gamma_of_mu(mu)

    def f(x):
        return big_f(gamma, x) - 2.0

    hi = 1.0
    while f(hi) >= 0.0:
        hi *= 2.0
    lo, step, mid = 0.0, hi, hi
    while True:
        f_mid = f(mid)
        if abs(f_mid) <= tol:
            break
        assert 2.0 * step >= 1e-14 * mid
        if f_mid > 0.0:
            lo = mid
        step *= 0.5
        mid = lo + step
    eta = period(gamma, mid)
    if not math.isfinite(eta):
        plus, minus = sigma_pair(gamma, mid)
        raise ConvergenceError(
            f"period of the orbit overflowed for mu={mu!r} (orbit mean {mid!r})",
            mu=mu, a=min(minus / plus, 0.0), last=mid,
        )
    q1max, q1antimax = q1_extrema(gamma, mid)
    return OrbitSolution(
        mu=mu,
        gamma=gamma,
        qbar1=mid,
        qbar2=qbar2_of(gamma, mid),
        kappa=kappa_of(gamma, mid),
        q1max=q1max,
        q1antimax=q1antimax,
        eta=eta,
        fixpoint_residual=abs(f_mid),
    )


def _outcome(solve, mu, tol):
    """The solution, or the type, message, last estimate and a of the failure."""
    try:
        return solve(mu, tol)
    except ConvergenceError as exc:
        return type(exc), str(exc), exc.last, exc.a


def test_closed_form_start_keeps_every_orbit():
    # The solve bisects [0, top], top the least power of two at or above
    # x_r.  The reference bisects [0, 2**(k+1)], and 2**(k+1) > 2 root > x_r,
    # so 2**(k+1) >= top.  Its midpoints from 2**k down to top lie at or
    # right of x_r, where F - 2 < -tol, so it goes left at each and then
    # tries the solver's midpoints in order.  The window (x_l, x_r) decides
    # each point the solver skips with the branch F gives there, so every
    # field is bit-identical: over the whole solvable range, on the
    # benchmark's range (which holds u in [-9, -3], where x_r lies close to
    # the root), on consecutive doubles next to the ionization threshold
    # and around the charges where the window's bounds trade places (mu = 9
    # and 16, where t = 2/3 meets sigma_plus = 3 and 8/3; mu*, where the
    # root's b is 1), and the period overflow at mu = 5e307 matches in
    # type, message, last estimate and a.
    charges = _sweep_charges()
    for tol in _SWEEP_TOLS:
        for mu in charges:
            expected = _outcome(_solve_every_point, mu, tol)
            assert _outcome(solve_orbit, mu, tol) == expected, (mu, tol)
        # Past mu of about 6.34e307 no power of two brackets x_r, while the
        # reference still reaches the period overflow at 6.7e307.
        for mu in (6.7e307, 1e308):
            with pytest.raises(ConvergenceError, match="bracket for the orbit mean overflowed"):
                solve_orbit(mu, tol)


_SWEEP_TOLS = (1e-14, 1e-10, 1e-6)


def _sweep_charges():
    """The charges on which the solve is checked against the reference."""
    charges = [1.0 + d for d in np.geomspace(1e-12, 4.9e307, 80)]
    charges += [1.0 + 10.0**u for u in np.linspace(-12.0, 11.0, 2000)]
    charges += _consecutive_doubles(1.0 + 1e-12, 2000)[1:]
    for mu in (9.0, critical_mu(), 16.0):
        for _ in range(100):
            mu = math.nextafter(mu, 0.0)
        charges += _consecutive_doubles(mu, 200)
    charges.append(5e307)
    return charges


def test_series_ends_settle_within_few_doubles(monkeypatch):
    # The window takes each series end from the last pass of its Newton
    # method, with no walk: the upper end at the root of that pass's
    # tangent, or at edge where the root lies past it, and the lower end at
    # its tangent's root shifted right by (_CURVATURE / 2) d**2 / s_0, with
    # its value and slope from the upper end's pass and the one term of
    # T_{N+1} it lacks, or from a pass of its own.  In exact arithmetic
    # from the pass's doubles, each end the window keeps lies within 2
    # doubles of that point.  Over the sweep's charges and tols, over
    # consecutive doubles around each charge where the bounds' degree steps
    # up, across the charges past mu* where the upper end comes from a pass
    # at edge, and at tols 1e-8 and 3e-8 too.
    tols = _SWEEP_TOLS + (1e-8, 3e-8)
    extra = np.linspace(critical_mu(), 13.72, 200).tolist() + _lower_pass_charges()
    charges = {tol: _sweep_charges() + extra for tol in tols}
    for tol in tols:
        for mu in _degree_switches(monkeypatch, tol):
            for _ in range(20):
                mu = math.nextafter(mu, 0.0)
            charges[tol] += _consecutive_doubles(mu, 40)
    passes, bounds = _recorded_series_work(monkeypatch)
    half_curvature = Fraction(solver._CURVATURE) / 2
    kept = {"upper": 0, "lower": 0, "edge": 0, "lower pass": 0}
    for tol in tols:
        lower_target = (2.0 + tol + solver._F_ROUNDING) * (1.0 + solver._BOUND_MARGIN)
        for mu in charges[tol]:
            gamma = gamma_of_mu(mu)
            passes.clear()
            bounds.clear()
            window = solver._decided_window(gamma, tol)
            if not bounds:
                continue
            edge = 2.0 * (gamma + 1.0)
            constant = _constant_window(gamma, tol)
            upper = [(target, out) for _, target, out in passes if target < 2.0][-1]
            target, (sigma, t, value, slope, step) = upper
            d = (Fraction(value) - Fraction(target)) / Fraction(slope)
            end = min(Fraction(sigma) - d, Fraction(edge))
            if window[1] != constant[1]:
                assert _mean_within_doubles(window[1], end, gamma, 2), (mu, tol)
                kept["upper"] += 1
                kept["edge"] += sigma == edge
            lower = [(target, out) for _, target, out in passes if target > 2.0]
            if lower:
                target, (sigma, t, value, slope, step) = lower[-1]
                value, slope = Fraction(value), Fraction(slope)
            else:
                target, n = lower_target, len(bounds[-1][0])
                term = Fraction(bounds[-1][1][0]) * Fraction(t) ** n
                value = Fraction(value) + Fraction(sigma) * term
                slope = Fraction(slope) + term * (1 + n * (2 - Fraction(t)))
            d = (value - Fraction(target)) / slope
            end = Fraction(sigma) - d + half_curvature * d * d / slope
            if window[0] != constant[0]:
                assert sigma <= edge and end <= edge, (mu, tol)
                assert _mean_within_doubles(window[0], end, gamma, 2), (mu, tol)
                kept["lower"] += 1
                kept["lower pass"] += bool(lower)
    assert kept["upper"] > 15000 and kept["lower"] > 15000, kept
    assert kept["edge"] > 500 and kept["lower pass"] > 0, kept


def _recorded_series_work(monkeypatch):
    """Lists that fill, as _decided_window runs, with each _series_end call's
    (coefficients, target, result) and each _series_bounds result."""
    passes, bounds = [], []
    series_end, series_bounds = solver._series_end, solver._series_bounds

    def recorded_end(coefficients, target, gp1_sq4, sigma, settled):
        out = series_end(coefficients, target, gp1_sq4, sigma, settled)
        passes.append((coefficients, target, out))
        return out

    def recorded_bounds(t, tol):
        bounds.append(series_bounds(t, tol))
        return bounds[-1]

    monkeypatch.setattr(solver, "_series_end", recorded_end)
    monkeypatch.setattr(solver, "_series_bounds", recorded_bounds)
    return passes, bounds


def _lower_pass_charges():
    """Charges near mu = 7.1 at which, at tol = 1e-6, the lower end's step
    from the upper end's pass does not settle, and it takes a pass of its
    own (two of 20,000 log-spaced charges below mu* do, 7.0931 and 7.1023)."""
    return np.linspace(7.09, 7.11, 201).tolist()


def _mean_at(sigma, gamma):
    """The orbit mean at which sigma_plus = sigma, as the solver forms it."""
    s = (sigma * sigma - 4.0 * (gamma + 1.0) ** 2) / (2.0 * sigma)
    return (2.0 - s) / (gamma * gamma)


def _mean_within_doubles(x, sigma, gamma, k):
    """Whether x is the mean at one of the doubles within k doubles of the rational sigma."""
    near = float(sigma)
    candidates = [near]
    for direction in (0.0, math.inf):
        step = near
        for _ in range(k):
            step = math.nextafter(step, direction)
            candidates.append(step)
    return any(_mean_at(c, gamma) == x for c in candidates)


def _degree_switches(monkeypatch, tol):
    """The least double charges below mu* at which the window's series degree steps up.

    The degree grows with t at the start of Newton's method, and so with
    mu; each step is bisected between neighbours of a grid in log(mu - 1)
    whose degrees differ.
    """
    picked = []
    series_bounds = solver._series_bounds

    def recorded(t, tol):
        bounds = series_bounds(t, tol)
        picked.append(len(bounds[0]) - 1)
        return bounds

    monkeypatch.setattr(solver, "_series_bounds", recorded)

    def degree(mu):
        picked.clear()
        solver._decided_window(gamma_of_mu(mu), tol)
        return picked[-1] if picked else 0

    grid = [1.0 + 10.0**u for u in np.linspace(-12.0, math.log10(critical_mu() - 1.0), 400)]
    degrees = [degree(mu) for mu in grid]
    switches = []
    for lo, hi, d_lo, d_hi in zip(grid, grid[1:], degrees, degrees[1:]):
        if 0 < d_lo < d_hi:
            while math.nextafter(lo, hi) < hi:
                mid = 0.5 * (lo + hi)
                if degree(mid) > d_lo:
                    hi = mid
                else:
                    lo = mid
            switches.append(hi)
    monkeypatch.setattr(solver, "_series_bounds", series_bounds)
    # The grid meets every degree from 2 up, so each step is one of 2.
    seen = sorted(set(degrees) - {0})
    assert seen == list(range(2, seen[-1] + 1, 2)) and len(switches) == len(seen) - 1
    return switches


def _consecutive_doubles(mu, n):
    """mu and the n doubles that follow it."""
    out = [mu]
    for _ in range(n):
        out.append(math.nextafter(out[-1], math.inf))
    return out


def _charge_where_x_r_reaches(x, tol):
    """The least double mu in (1 + 1e-12, 1e3] whose window bound x_r is at least x."""
    lo, hi = 1.0 + 1e-12, 1e3
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if solver._decided_window(gamma_of_mu(mid), tol)[1] >= x:
            hi = mid
        else:
            lo = mid
    return hi


def _charge_where_root_b_is(b):
    """The charge whose root has moment argument b = -a.

    sigma_plus * sigma_minus = -4 (gamma + 1)**2 gives sigma_plus =
    2 (gamma + 1) / sqrt(b), so F = sigma_plus I_{3/2} / I_{1/2} = 2 holds
    where gamma + 1 = sqrt(b) I_{1/2}(-b) / I_{3/2}(-b)."""
    i_half, i_three_half = ratio_integrals(-b)
    return mu_of_gamma(math.sqrt(b) * i_half / i_three_half - 1.0)


def _walk_to_window(x_l, x_r, top):
    """(lo, step) before the bisection's first trial point in (x_l, x_r), or None.

    The passes of ``solve_orbit`` with every point decided, walked one by
    one; None where the interval collapses first.
    """
    lo, step = 0.0, top
    while True:
        mid = lo + 0.5 * step
        if x_l < mid < x_r:
            return lo, step
        step *= 0.5
        if 2.0 * step < solver._WIDTH_STOP * mid:
            return None
        if mid <= x_l:
            lo = mid


def test_first_undecided_matches_the_walk():
    # The solve skips the passes before its first trial point inside the
    # window, and starts from the state that walking them leaves.  Every
    # window is at least 2e-14 wide, relative (test_decided_window_is_wide),
    # so the walk always reaches such a point before the interval could
    # collapse.  Windows of random width from 2e-14 relative up and of
    # random place, with ends on trial points, at top and around top / 2,
    # and the windows of the sweep's charges.
    rng = np.random.default_rng(1)
    cases = []
    for exponent in (-3, 0, 1, 40, 1000):
        top = 2.0**exponent
        for _ in range(300):
            x_r = top * rng.uniform(0.5, 1.0)
            width = 10.0 ** rng.uniform(math.log10(2e-14), -0.5)
            cases.append((x_r * (1.0 - width), x_r, top))
        point = top * 0.6875
        cases += [(point, top, top), (0.25 * top, 0.5 * top, top), (0.4 * top, 0.6 * top, top)]
    for tol in _SWEEP_TOLS:
        for mu in _sweep_charges()[::10]:
            x_l, x_r = solver._decided_window(gamma_of_mu(mu), tol)
            if x_r <= 2.0**1023:
                mantissa, exponent = math.frexp(x_r)
                cases.append((x_l, x_r, math.ldexp(0.5 if mantissa == 0.5 else 1.0, exponent)))
    for x_l, x_r, top in cases:
        walked = _walk_to_window(x_l, x_r, top)
        assert walked is not None, (x_l, x_r, top)
        assert solver._first_undecided(x_l, x_r, top) == walked, (x_l, x_r, top)


_WINDOW_TOLS = (1e-14, 1e-12, 1e-10, 1e-8, 1e-6)


def test_decided_window_is_wide():
    # The premise of the solve's jump to its first undecided point and of
    # its collapses coming at evaluated points: F - 2 lies beyond +-(tol +
    # E) at the window's ends, and |d log F / d log x| <= 1 between them,
    # so log(x_r / x_l) >= tol + E (see solver._first_undecided).  Over the
    # sweep's charges the least ratio of the two is about 1.34 at tol =
    # 1e-14 and 1 + 1.4e-8 at 1e-6, where the series ends lie closest.
    for tol in _WINDOW_TOLS:
        ratios = []
        for mu in _sweep_charges():
            x_l, x_r = solver._decided_window(gamma_of_mu(mu), tol)
            ratios.append(math.log1p((x_r - x_l) / x_l) / (tol + solver._F_ROUNDING))
        assert min(ratios) >= 1.0, (tol, min(ratios))


def _constant_window(gamma, tol):
    """(x_l, x_r) of the constant bounds, where sigma_plus = 3 (1 + tol) and
    (8/3) (1 - tol), as the solver forms them."""
    return _mean_at(3.0 * (1.0 + tol), gamma), _mean_at(8.0 / 3.0 * (1.0 - tol), gamma)


def test_series_lower_end_right_of_constant_end():
    # Where the window's lower end comes from the series bound T_{N+1}, it
    # replaces the constant bounds' x_l without a comparison: T_{N+1} >=
    # T_1 >= 0.729 for t <= 2/3 puts sigma_plus there below 2.75, against
    # 3 (1 + tol) at the constant end, so the series end lies right of it.
    used = 0
    for tol in _WINDOW_TOLS:
        for mu in _sweep_charges():
            gamma = gamma_of_mu(mu)
            x_l = solver._decided_window(gamma, tol)[0]
            constant = _constant_window(gamma, tol)[0]
            if x_l != constant:
                used += 1
                assert x_l > constant, (mu, tol)
                assert sigma_pair(gamma, x_l)[0] < 2.75, (mu, tol)
    assert used > 10000


def test_qbar1_non_decreasing_in_mu():
    # Every trial point lies in one dyadic tree, so two charges take the
    # same branches down to the first point that separates their roots:
    # the solved mean is non-decreasing in mu, the property the benchmark
    # gates.  The sets are consecutive doubles next to the ionization
    # threshold, consecutive doubles around each charge where top switches
    # (x_r crossing 1, 2 and 4), consecutive doubles around the charges
    # where the root's b crosses the moments' series switch at b = 1 (the
    # touch point mu*, where the series bounds of the window end too) and
    # their step from 14 to 11 terms at b = 16, around mu = 9 and 16, where
    # t = 2/3 meets the constant bounds sigma_plus = 3 and 8/3, and sorted
    # log-uniform charges.  At
    # tol = 1e-14 the acceptance band |F - 2| <= tol is about 22 rounding
    # units of F wide, and at a point on that band's edge one rounding unit
    # can accept the point for one double and pass it for the next.  Such a
    # decrease stays within the accuracy that |F - 2| <= tol gives both
    # means, 2 tol relative, since |x F_x| >= 1.2 at the root.
    rng = np.random.default_rng(0)
    random_charges = np.sort(1.0 + 10.0 ** rng.uniform(-12.0, 11.0, 5000)).tolist()
    for tol, allowed in ((1e-10, 0.0), (1e-14, 2e-14)):
        sets = [_consecutive_doubles(1.0 + 1e-12, 2000), random_charges]
        centres = [_charge_where_x_r_reaches(x, tol) for x in (1.0, 2.0, 4.0)]
        centres += [critical_mu(), _charge_where_root_b_is(16.0), 9.0, 16.0]
        for mu in centres:
            for _ in range(200):
                mu = math.nextafter(mu, 0.0)
            sets.append(_consecutive_doubles(mu, 400))
        for charges in sets:
            qbar1 = np.array([solve_orbit(mu, tol).qbar1 for mu in charges])
            drop = (qbar1[:-1] - qbar1[1:]) / qbar1[:-1]
            assert drop.max() <= allowed, (tol, charges[int(drop.argmax())])


_LOG_MU_MINUS_1 = (-12.0, math.log10(4.9e307))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.floats(min_value=_LOG_MU_MINUS_1[0], max_value=_LOG_MU_MINUS_1[1]),
    st.floats(min_value=-14.0, max_value=-6.0),
)
def test_decided_window_premise(u, log_tol):
    # mu - 1 and tol log-uniform.  Left of x_l every F - 2 exceeds tol and
    # right of x_r every one falls below -tol, so a point there takes the
    # branch its evaluation would give; the root lies strictly between.
    # The ends lie beyond +-(tol + E), E = solver._F_ROUNDING, in exact F,
    # which test_decided_window_is_wide builds on; computed F is checked
    # beyond +-(tol + E / 2), and over 3,000 random charges and tols it lay
    # at least tol + 1.16 E out.
    mu, tol = 1.0 + 10.0**u, 10.0**log_tol
    gamma = gamma_of_mu(mu)
    x_l, x_r = solver._decided_window(gamma, tol)
    reach = tol + 0.5 * solver._F_ROUNDING
    assert big_f(gamma, x_l) - 2.0 > reach
    assert big_f(gamma, x_r) - 2.0 < -reach
    assert x_l < solve_orbit(mu, tol).qbar1 < x_r


def _exact_big_f(gamma, x):
    """F at the doubles gamma and x in 40-digit arithmetic, for b = -a >= 1.

    sigma_plus from the quadratic of ``model.sigma_pair`` (through the
    product of the roots where s < 0, which cancels nothing), and R in the
    2F1 form of ``test_series_bracket_certificate`` at z = -1 / b.
    """
    with mpmath.workdps(40):
        gamma, x, half = mpmath.mpf(gamma), mpmath.mpf(x), mpmath.mpf(1) / 2
        s = 2 - gamma**2 * x
        product = 4 * (gamma + 1) ** 2
        w = mpmath.sqrt(s**2 + product)
        plus = s + w if s >= 0 else product / (w - s)
        z = -(plus**2) / product
        ratio = mpmath.mpf(3) / 4 * (
            mpmath.hyp2f1(half, 5 * half, 3, z) / mpmath.hyp2f1(half, 3 * half, 2, z)
        )
        return plus * ratio


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.floats(min_value=-12.0, max_value=math.log10(critical_mu() - 1.0)),
    st.floats(min_value=-14.0, max_value=-6.0),
)
def test_decided_window_premise_in_exact_f_below_threshold(u, log_tol):
    # mu - 1 and tol log-uniform below mu*, where the window's series ends
    # lie.  Exact (40-digit) F - 2 lies beyond +-(tol + E) at both ends, E =
    # solver._F_ROUNDING.  A series end, one that differs from the constant
    # bounds' end, targets sigma T = (2 +- (tol + E)) (1 +- m), m =
    # solver._BOUND_MARGIN = 64 units, which covers the rounding of that end
    # (62 units at most; see also test_series_ends_certified_exactly): exact
    # F lies past its target less m / 2.  That sees E: ends found for the reach tol
    # alone fall short of it, lying about 1.3 E out in exact F.
    mu, tol = 1.0 + 10.0**u, 10.0**log_tol
    gamma = gamma_of_mu(mu)
    reach = tol + solver._F_ROUNDING
    margin = 0.5 * solver._BOUND_MARGIN
    window = solver._decided_window(gamma, tol)
    for x, constant, sign in zip(window, _constant_window(gamma, tol), (1.0, -1.0)):
        plus, minus = sigma_pair(gamma, x)
        if -minus < plus:
            continue  # b < 1, a constant end next to mu*
        exact = _exact_big_f(gamma, x)
        assert sign * (exact - 2) > reach, (mu, tol, x)
        if x != constant:
            assert sign * (exact - (2 + sign * reach) * (1 + sign * margin)) >= 0, (mu, tol, x)


def test_big_f_rounding_near_root():
    # The window decides a trial point outside it from exact F, which lies
    # beyond 2 +- (tol + E) there, E = solver._F_ROUNDING; the point then
    # takes the branch its evaluation would give as long as computed F is
    # within E of exact F.  Below mu*, at the root, at qbar1 (1 +- 1e-9)
    # and at both window ends at tol = 1e-10 and 1e-14, computed F lies
    # within E / 4 of 40-digit F (8.9e-16 at worst, 4 units of 2**-52).
    worst = 0.0
    for u in np.linspace(-12.0, math.log10(critical_mu() - 1.0), 90):
        mu = 1.0 + 10.0**u
        gamma = gamma_of_mu(mu)
        qbar1 = solve_orbit(mu).qbar1
        xs = [qbar1, qbar1 * (1.0 - 1e-9), qbar1 * (1.0 + 1e-9)]
        for tol in (1e-10, 1e-14):
            xs += solver._decided_window(gamma, tol)
        for x in xs:
            error = abs(big_f(gamma, x) - _exact_big_f(gamma, x))
            assert error <= solver._F_ROUNDING / 4, (mu, x, float(error))
            worst = max(worst, float(error))
    assert worst > 0.0


def _ratio_taylor(terms):
    """c_0..c_{terms-1} of R(t) = I_{3/2} / I_{1/2} in t = 1 / (b + 1/2), exactly.

    Each moment is (b + 1/2)**(-1/2) M_0 sum_j q_j (-t)**j with q_j the
    exact rationals of ``quadrature._series_ratios`` (q_0 = 1), so R is
    B(5/2, 1/2) / B(3/2, 1/2) = 3/4 times the power-series quotient.
    """
    half, three_half = (
        [Fraction(n, d) for n, d in quadrature._series_ratios(k, terms)] for k in (0.5, 1.5)
    )
    quotient = []
    for n in range(terms):
        quotient.append(three_half[n] - sum(quotient[i] * half[n - i] for i in range(n)))
    return [Fraction(3, 4) * (-1) ** n * q for n, q in enumerate(quotient)]


def test_series_bracket_certificate():
    # The window's series bounds rest on the exact coefficients of R for
    # n <= 150: the solver's are c_0..c_23, each an exact double, and c_24
    # is none; each dyadic coefficient alternates in sign and |c_{n+1}| <=
    # |c_n|, so the terms do not grow for t <= 1 (see solver._decided_window
    # for the tail past 150).
    c = _ratio_taylor(151)
    assert [Fraction(x) for x in solver._R_TAYLOR] == c[:24]
    assert Fraction(float(c[24])) != c[24]
    for n, cn in enumerate(c):
        assert (cn > 0) == (n % 2 == 0), n
        assert cn.denominator & (cn.denominator - 1) == 0, n
        assert abs(cn) <= Fraction(9, 4), n
    assert all(abs(c[n + 1]) <= abs(c[n]) for n in range(150))
    degrees = range(2, 23, 2)
    assert [(gap, len(above), len(below)) for gap, above, below in solver._R_BOUNDS] == [
        (-float(c[n + 1]), n + 1, n + 2) for n in degrees
    ]
    # The ratios behind the docstring's margins, at least 0.76 |c_{N+1}|
    # t**(N+1) and 0.40 c_{N+2} t**(N+2) for t <= 2/3.
    assert max(abs(c[n + 2] / c[n + 1]) for n in degrees) <= Fraction(35, 100)
    assert max(abs(c[n + 3] / c[n + 2]) for n in degrees) <= Fraction(9, 10)
    # Against 40-digit moments (the 2F1 form) at log-spaced t over each
    # degree's range, from where the degree two below stops fitting at
    # tol = 1e-14 (1e-3 for N = 2, where T_2 - R is still 1e21 times the
    # working precision) up to t = 2/3: T_N - R and R - T_{N+1}, over the
    # first term each omits, lie between the Leibniz margins 1 - (2/3)
    # |c_{N+2} / c_{N+1}| and 1 - (2/3) |c_{N+3} / c_{N+2}| and 1.
    with mpmath.workdps(40):
        half = mpmath.mpf(1) / 2
        coefficients = [mpmath.mpf(x.numerator) / x.denominator for x in c[:26]]
        for n in degrees:
            if n == 2:
                t_min = 1e-3
            else:
                t_min = (solver._GAP_SHARE * 1e-14 / abs(float(c[n - 1]))) ** (1.0 / (n - 1))
            ts = [mpmath.mpf(2) / 3]
            ts += [mpmath.mpf(t) for t in np.geomspace(t_min, 2.0 / 3.0, 20, endpoint=False)]
            margins = [1 - abs(c[n + 2] / c[n + 1]) * Fraction(2, 3)]
            margins.append(1 - abs(c[n + 3] / c[n + 2]) * Fraction(2, 3))
            for t in ts:
                z = -1 / (1 / t - half)
                ratio = mpmath.mpf(3) / 4 * (
                    mpmath.hyp2f1(half, 5 * half, 3, z) / mpmath.hyp2f1(half, 3 * half, 2, z)
                )
                t_n = mpmath.fsum(cn * t**k for k, cn in enumerate(coefficients[: n + 1]))
                t_n1 = t_n + coefficients[n + 1] * t ** (n + 1)
                above = (t_n - ratio) / (-coefficients[n + 1] * t ** (n + 1))
                below = (ratio - t_n1) / (coefficients[n + 2] * t ** (n + 2))
                assert float(margins[0]) <= above <= 1.0, (n, t, above)
                assert float(margins[1]) <= below <= 1.0, (n, t, below)


def test_series_curvature_bound():
    # The window certifies each series end from the tangent of its last
    # Newton pass (see solver._decided_window).  With V(sigma) = sigma
    # T(t(sigma)), V' = T + t (2 - t) T' and V'' = (t (2 - t) / sigma) P(t),
    # P = (3 - 2 t) T' + t (2 - t) T'', and sigma**2 >= 8 t / (2 - t) for
    # gamma > 0, so |V''| <= sqrt(t (2 - t)**3 / 8) |P(t)|.  On 64 pieces of
    # 0 <= t <= 2/3 + 2**-40, in exact rationals from the solver's own
    # coefficients, each piece bounded through the slope of its polynomial,
    # for T = T_N and T_{N+1} of every degree the window uses: P <= -0.0439,
    # so V is concave and lies below its tangents; |V''| <= M_0 = 0.0326;
    # and V' >= 0.7.  _CURVATURE covers M_0 with the lower end's shift
    # e <= 2.4e-5 |d| for a settled step d, |d| <= 9.8e-4 at every tol.
    def derivative(p):
        return [k * c for k, c in enumerate(p)][1:]

    def plus(p, q):
        n = max(len(p), len(q))
        return [(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)]

    def times(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def at(p, t):
        value = Fraction(0)
        for c in reversed(p):
            value = value * t + c
        return value

    def slope_bound(p, t):
        # A bound on |p'| over [0, t].
        return sum(abs(c) * t**k for k, c in enumerate(derivative(p)))

    top = Fraction(2, 3) + Fraction(1, 2**40)
    pieces = 64
    worst_p, worst_v2, least_v1 = -math.inf, Fraction(0), math.inf
    coefficients = [Fraction(c) for c in solver._R_TAYLOR]
    for degree in sorted({n + k for n in range(2, 23, 2) for k in (0, 1)}):
        t_poly = coefficients[: degree + 1]
        d1, d2 = derivative(t_poly), derivative(derivative(t_poly))
        wing = [Fraction(0), Fraction(2), Fraction(-1)]  # t (2 - t)
        p_poly = plus(times([Fraction(3), Fraction(-2)], d1), times(wing, d2))
        v1_poly = plus(t_poly, times(wing, d1))
        for i in range(pieces):
            a, b = top * i / pieces, top * (i + 1) / pieces
            spread = (b - a) * slope_bound(p_poly, b)
            worst_p = max(worst_p, at(p_poly, a) + spread)
            size = -at(p_poly, a) + spread
            worst_v2 = max(worst_v2, b * (2 - a) ** 3 / 8 * size * size)
            least_v1 = min(least_v1, at(v1_poly, a) - (b - a) * slope_bound(v1_poly, b))
    m_0 = Fraction(326, 10000)
    assert worst_p <= Fraction(-439, 10000), float(worst_p)
    assert worst_v2 <= m_0 * m_0, math.sqrt(worst_v2)
    assert least_v1 >= Fraction(7, 10), float(least_v1)
    settled = solver._SETTLED * 1e-6
    assert settled <= 9.8e-4**2
    assert solver._CURVATURE / 2.0 * 9.8e-4 / 0.7 <= 2.4e-5
    assert m_0 * (1 + Fraction(24, 10**6)) ** 2 < Fraction(solver._CURVATURE)
    assert Fraction(solver._CURVATURE) / 2 * Fraction(settled) <= Fraction(1e-6) / 64


def _exact_plus_bounds(gamma, x):
    """Dyadic rationals 2**-80 apart around the exact sigma_plus at the doubles gamma and x.

    sigma_plus = s + sqrt(s**2 + 4 (gamma + 1)**2), s = 2 - gamma**2 x (the
    quadratic of ``model.sigma_pair``), with the root bounded by integers.
    """
    gamma, x = Fraction(gamma), Fraction(x)
    s = 2 - gamma * gamma * x
    q = s * s + 4 * (gamma + 1) ** 2
    root = math.isqrt(q.numerator * q.denominator << 200)
    below = s + Fraction(root, q.denominator << 100)
    above = below + Fraction(1, q.denominator << 100)
    scale = 2**80
    return Fraction(math.floor(below * scale), scale), Fraction(math.ceil(above * scale), scale)


def _exact_series_value(coefficients, gamma, sigma):
    """(sigma T(t), t) at the rational sigma, exactly: t = sigma**2 / (4 (gamma + 1)**2
    + sigma**2 / 2), and T has ``coefficients`` in Horner order."""
    sq = sigma * sigma
    t = sq / (4 * (Fraction(gamma) + 1) ** 2 + sq / 2)
    value = Fraction(0)
    for c in coefficients:
        value = value * t + Fraction(c)
    return sigma * value, t


def test_series_ends_certified_exactly(monkeypatch):
    # The window's series ends, each a prediction from the tangent of a
    # Newton pass with no evaluation at the end itself, checked in exact
    # rationals at the exact sigma_plus of the mean returned: sigma_r T_N
    # <= 2 - tol - E and sigma_l T_{N+1} >= 2 + tol + E, E =
    # solver._F_ROUNDING, with t <= 2/3 + 2**-40 at both, where T_N and
    # T_{N+1} bracket R.  Each keeps more than half of its rounding margin
    # m = solver._BOUND_MARGIN (at least 1.33e-14 of 1.42e-14 was left),
    # and each, but an upper end at edge, gives up at most tol / 64 + 4 m
    # more to the certificate.  Over 400 charges from 1 + 1e-12 to mu*, the
    # 601 doubles around mu*, 200 charges past it, where the upper end
    # comes from a pass at edge, and at tol = 1e-6 the charges where the
    # lower end takes a pass of its own.
    passes, bounds = _recorded_series_work(monkeypatch)
    star = critical_mu()
    for _ in range(300):
        star = math.nextafter(star, 0.0)
    charges = (1.0 + np.geomspace(1e-12, critical_mu() - 1.0, 400)).tolist()
    charges += _consecutive_doubles(star, 600) + np.linspace(critical_mu(), 13.72, 200).tolist()
    limit = Fraction(2, 3) + Fraction(1, 2**40)
    margin = Fraction(solver._BOUND_MARGIN)
    seen = {"upper": 0, "lower": 0, "edge": 0, "lower pass": 0}
    for tol in (1e-14, 1e-10, 1e-8, 3e-8, 1e-6):
        reach = Fraction(tol) + Fraction(solver._F_ROUNDING)
        loss = Fraction(tol) / 64 + 4 * margin
        for mu in charges + (_lower_pass_charges() if tol == 1e-6 else []):
            gamma = gamma_of_mu(mu)
            passes.clear()
            bounds.clear()
            x_l, x_r = solver._decided_window(gamma, tol)
            if not bounds:
                continue
            above, below = bounds[-1]
            constant = _constant_window(gamma, tol)
            if x_r != constant[1]:
                sigma = _exact_plus_bounds(gamma, x_r)[1]
                value, t = _exact_series_value(above, gamma, sigma)
                assert t <= limit, (mu, tol)
                assert value <= (2 - reach) * (1 - margin / 2), (mu, tol)
                upper = [out for _, target, out in passes if target < 2.0][-1]
                at_edge = upper[0] == 2.0 * (gamma + 1.0)
                assert at_edge or value >= 2 - reach - loss, (mu, tol)
                seen["upper"] += 1
                seen["edge"] += at_edge
            if x_l != constant[0]:
                low, high = _exact_plus_bounds(gamma, x_l)
                assert _exact_series_value(below, gamma, high)[1] <= limit, (mu, tol)
                value = _exact_series_value(below, gamma, low)[0]
                assert (2 + reach) * (1 + margin / 2) <= value <= 2 + reach + loss, (mu, tol)
                seen["lower"] += 1
                seen["lower pass"] += any(target > 2.0 for _, target, _ in passes)
    assert seen["upper"] > 5000 and seen["lower"] > 2000, seen
    assert seen["edge"] > 500 and seen["lower pass"] > 0, seen


def test_decided_window_passes(monkeypatch):
    # Below mu* the window certifies each end from the tangent of the last
    # pass of its Newton method, with no pass to check it, and the lower end
    # comes from the upper end's pass, so a window takes few full-degree
    # Horner passes: 1.11 on average at the default tol over 2,000 charges
    # from 1 + 1e-12 to mu* (3.11 when each end took one more pass and a
    # walk, and 6.04 before that), 1.15 at 1e-14 and 1.02 at 1e-6, and
    # never more than 2.  The series helper is called once, for the upper
    # end, and for the lower end only where its step from that pass does
    # not settle.  Each pass iterates one of the bound tuples that
    # _series_bounds hands out.
    passes = []

    class Counted(tuple):
        def __iter__(self):
            passes.append(self)
            return super().__iter__()

    series_bounds, series_end = solver._series_bounds, solver._series_end
    helper_calls = []

    def counted_end(*args):
        helper_calls.append(args[1])
        return series_end(*args)

    monkeypatch.setattr(
        solver, "_series_bounds", lambda t, tol: tuple(map(Counted, series_bounds(t, tol)))
    )
    monkeypatch.setattr(solver, "_series_end", counted_end)
    charges = (1.0 + np.geomspace(1e-12, critical_mu() - 1.0, 2000)).tolist()
    counts = {}
    for tol in _SWEEP_TOLS:
        counts[tol] = []
        for mu in charges:
            passes.clear()
            helper_calls.clear()
            solver._decided_window(gamma_of_mu(mu), tol)
            assert helper_calls[0] < 2.0 and all(h > 2.0 for h in helper_calls[1:]), (mu, tol)
            counts[tol].append(len(passes))
    counts = {tol: np.array(c) for tol, c in counts.items()}
    assert counts[1e-10].mean() <= 1.15
    assert counts[1e-14].mean() <= 1.2
    assert counts[1e-6].mean() <= 1.05
    assert max(c.max() for c in counts.values()) <= 2


def test_solve_orbit_f_calls(monkeypatch):
    # The bracket [0, top] comes from the closed-form bound x_r, so the
    # count does not grow with the charge (a doubling from x = 1 makes 71
    # at mu = 1e11 and 1,030 at 1e300), and the window (x_l, x_r) decides
    # every trial point outside it without a call.  Up to mu* the series
    # bounds of R narrow the window to little more than the acceptance
    # band, and the solve starts at the first trial point inside it: one
    # call at mu = 2, and at most 2 at the default tol; at tol = 1e-14 the
    # window is about twice the band, and at most 3.  Above mu* the window
    # and the counts are those of the constant bounds.
    # Each evaluated point is one call of the kernel that big_f wraps, and
    # every moment pair belongs to one: the swing and the period come from
    # the accepted point, with no big_f, period, ratio_integrals or
    # q1_extrema call.
    calls = []
    moment_calls = []
    shape, moments = quadrature._shape, quadrature._moments

    def counted(gamma, x):
        calls.append(x)
        return shape(gamma, x)

    def counted_moments(a):
        moment_calls.append(a)
        return moments(a)

    def forbidden(*args):
        raise AssertionError("solve_orbit must not call this")

    monkeypatch.setattr(solver, "_shape", counted)
    monkeypatch.setattr(quadrature, "_moments", counted_moments)
    for module, name in (
        (solver, "big_f"), (quadrature, "big_f"), (quadrature, "period"),
        (quadrature, "ratio_integrals"), (model, "q1_extrema"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    for mu, expected in ((2.0, 1), (1e11, 32), (1e300, 31)):
        calls.clear()
        moment_calls.clear()
        solve_orbit(mu)
        assert len(calls) == len(moment_calls) == expected, mu
    us = np.linspace(-12.0, 11.0, 2301)
    below = 1.0 + 10.0**us <= critical_mu()
    counts = {}
    for tol in (1e-10, 1e-14):
        counts[tol] = []
        for u in us:
            calls.clear()
            solve_orbit(1.0 + 10.0**u, tol)
            counts[tol].append(len(calls))
    counts = {tol: np.array(c) for tol, c in counts.items()}
    default = counts[1e-10]
    assert default.max() <= 32
    assert default.mean() <= 13.5
    assert default[below].mean() <= 1.05
    assert default[below].max() <= 2
    assert round(default[~below].mean(), 2) == 30.0
    assert default[~below].max() == 32
    assert default[us <= -9.0].max() == 1
    finest = counts[1e-14]
    assert finest[below].mean() <= 2.0
    assert finest[below].max() <= 4
    assert round(finest[~below].mean(), 2) == 43.29


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.floats(min_value=-12.0, max_value=300.0))
def test_orbit_mean_enclosed_by_closed_forms(u):
    # x_lo < root < x_hi holds exactly.  The solver accepts |F - 2| <= 1e-10,
    # and where the root nears x_hi (mu -> 1, R -> 3/4) F falls like 1/x, so
    # the accepted mean may lie up to about 5e-11 of itself past x_hi.
    mu = 1.0 + 10.0**u
    gamma = gamma_of_mu(mu)
    qbar1 = solve_orbit(mu).qbar1
    assert _x_lo(gamma) <= qbar1 <= _x_hi(gamma) * (1.0 + 1e-10)
