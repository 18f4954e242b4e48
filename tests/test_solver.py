"""Tests for the fixed-point solve of the orbit shape equation F(gamma, x) = 2."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frozenplanet import (
    ConvergenceError,
    DomainError,
    big_f,
    critical_gamma,
    critical_mu,
    fixpoint_residual,
    gamma_of_mu,
    kappa_of,
    period,
    q1_extrema,
    qbar2_of,
    solve_orbit,
)
from frozenplanet import solver

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
    for sol in (sol_mu2, sol_mu4):
        g = gamma_of_mu(sol.mu)
        assert_allclose(sol.gamma, g, rtol=1e-14)
        assert_allclose(sol.qbar2, qbar2_of(g, sol.qbar1), rtol=1e-14)
        assert_allclose(sol.kappa, kappa_of(g, sol.qbar1), rtol=1e-12)
        q1max, q1anti = q1_extrema(g, sol.qbar1)
        assert_allclose(sol.q1max, q1max, rtol=1e-12)
        assert_allclose(sol.q1antimax, q1anti, rtol=1e-12)
        assert_allclose(sol.eta, period(g, sol.qbar1), rtol=1e-12)
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


def test_solve_orbit_large_mu():
    # The orbit mean grows like 1.33 mu; the doubling bracket has no cap and
    # follows it as far as the float range reaches.
    sols = [solve_orbit(mu) for mu in (1000.0, 1e12, 1e15, 1e20, 1e100, 1e300)]
    for sol in sols:
        assert abs(sol.fixpoint_residual) <= 1e-10
        assert sol.kappa > 0.0
    assert all(a.qbar1 < b.qbar1 for a, b in zip(sols, sols[1:]))


def test_solve_orbit_failures_carry_context(monkeypatch):
    # At mu = 1e308 the orbit mean (about 1.33 mu) exceeds 2**1023: the
    # bracket doubles from x = 1 until 2**1024 overflows, so the last
    # estimate is 2**1023 after F at 1e-8, 1, 2, ..., 2**1023.
    with pytest.raises(ConvergenceError, match="bracket for the orbit mean overflowed") as info:
        solve_orbit(1e308)
    exc = info.value
    assert (exc.mu, exc.last, exc.iterations) == (1e308, 2.0**1023, 1025)
    assert -1.0 < exc.a <= 0.0

    monkeypatch.setattr(solver, "_X_LO", 100.0)  # right of the root at mu = 2
    with pytest.raises(ConvergenceError, match="no sign change") as info:
        solve_orbit(2.0)
    exc = info.value
    assert (exc.mu, exc.last, exc.iterations) == (2.0, 100.0, 1)
    assert exc.a < 0.0
    monkeypatch.undo()

    monkeypatch.setattr(solver, "_WIDTH_STOP", 1e-3)
    with pytest.raises(ConvergenceError, match="bisection interval collapsed") as info:
        solve_orbit(2.0, tol=1e-14)
    exc = info.value
    assert exc.mu == 2.0
    assert abs(exc.last - QBAR1_MU2) <= 1e-2
    assert exc.iterations > 2
    assert exc.a < 0.0

    # Raise sites that know none of the numbers leave them unset.
    plain = ConvergenceError("plain")
    assert (plain.mu, plain.a, plain.iterations, plain.last) == (None, None, None, None)


def test_solve_orbit_period_overflow():
    # The period grows like 3.63 mu and passes the largest double from mu
    # of about 4.95e307, before the bracket overflows at about 6.7e307.
    sol = solve_orbit(4.9e307)
    assert math.isfinite(sol.eta) and sol.eta > sol.mu
    with pytest.raises(ConvergenceError, match="period of the orbit overflowed") as info:
        solve_orbit(5e307)
    exc = info.value
    assert exc.mu == 5e307
    assert math.isfinite(exc.last) and exc.last > 5e307
    assert exc.iterations > 1000
    assert -1.0 < exc.a < 0.0


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
    with pytest.raises(DomainError):
        fixpoint_residual(2.0, 0.0)
    with pytest.raises(DomainError):
        fixpoint_residual(2.0, -1.0)


def test_unique_root_on_dense_grid():
    # Sign-change count over a dense grid: exactly one crossing at mu = 4.
    sol = solve_orbit(4.0)
    xs = np.linspace(1e-6, 4.0 * sol.qbar1, 2000)
    signs = np.array([fixpoint_residual(4.0, float(x)) > 0.0 for x in xs])
    flips = int(np.sum(signs[:-1] != signs[1:]))
    assert flips == 1
