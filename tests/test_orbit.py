"""Tests for trajectory reconstruction and its self-consistency diagnostics."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from frozenplanet import (
    ConvergenceError,
    DomainError,
    critical_mu,
    energy_residual,
    mean_q1,
    mean_residual,
    reconstruct,
    solve_orbit,
    time_integral,
)
from frozenplanet import orbit


def test_reconstruct_rejects_bad_sample_counts(sol_mu2):
    for n in (0, 8, 15, 17, 1001, 2**20 + 2, 10**12, 512.0, 64.5, "512", None):
        with pytest.raises(DomainError):
            reconstruct(sol_mu2, n)
    # NumPy integers are integers.
    traj = reconstruct(sol_mu2, np.int64(64))
    assert np.array_equal(traj.q1, reconstruct(sol_mu2, 64).q1)


def test_reconstruct_anchors(traj_mu2, sol_mu2):
    n = traj_mu2.t.size - 1
    assert traj_mu2.q1[0] == sol_mu2.q1max
    assert traj_mu2.q1[n // 2] == 0.0  # collision is pinned to the midpoint
    assert traj_mu2.t[0] == 0.0
    assert traj_mu2.t[n // 2] == 0.5
    assert traj_mu2.t[-1] == 1.0
    assert traj_mu2.q2_const == sol_mu2.qbar2
    assert traj_mu2.eta == sol_mu2.eta


def test_reconstruct_time_reversal_exact(traj_mu2):
    # The second half is the mirror of the first by construction, so the
    # time-reversal defect is exactly zero, not merely small.
    assert np.array_equal(traj_mu2.q1, traj_mu2.q1[::-1])


def test_reconstruct_shape_and_range(traj_mu2, sol_mu2):
    n = traj_mu2.t.size - 1
    half = n // 2
    assert traj_mu2.q1.shape == (n + 1,)
    assert np.all(np.diff(traj_mu2.q1[: half + 1]) < 0.0)  # falls monotonically
    assert np.all(traj_mu2.q1 >= 0.0)
    assert np.all(traj_mu2.q1 <= sol_mu2.q1max)
    assert_allclose(traj_mu2.t, np.arange(n + 1) / n, rtol=0.0, atol=0.0)


def test_reconstruct_arrays_read_only(traj_mu2):
    with pytest.raises(ValueError):
        traj_mu2.q1[0] = 1.0
    with pytest.raises(ValueError):
        traj_mu2.t[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj_mu2.eta = 0.0


def test_reconstruct_deterministic(sol_mu2):
    a = reconstruct(sol_mu2, 64)
    b = reconstruct(sol_mu2, 64)
    assert np.array_equal(a.q1, b.q1)


def test_trajectory_properties(traj_mu2, sol_mu2):
    assert_allclose(traj_mu2.qbar1, sol_mu2.qbar1, rtol=1e-12)
    assert traj_mu2.q1max == sol_mu2.q1max


def test_mean_residual_small(sol_mu2, traj_mu2):
    # Sample-mean of q1 matches the fixed-point mean qbar1.
    coarse = reconstruct(sol_mu2, 256)
    assert abs(mean_residual(coarse)) <= 1e-6 * sol_mu2.qbar1
    assert abs(mean_residual(traj_mu2)) <= 1e-6 * sol_mu2.qbar1
    assert_allclose(mean_q1(traj_mu2), sol_mu2.qbar1, rtol=1e-7)


def test_mean_residual_halves_under_doubling(sol_mu2):
    r1024 = abs(mean_residual(reconstruct(sol_mu2, 1024)))
    r2048 = abs(mean_residual(reconstruct(sol_mu2, 2048)))
    assert r2048 < 0.5 * r1024


def test_mean_invariant_under_mirror_extension(traj_mu2):
    # The quadrature mean over [0, 1] equals the mean over the first half
    # run forward and backward; mirroring must not bias it.
    q = traj_mu2.q1
    n = q.size - 1
    trap_full = float(np.trapezoid(q, dx=1.0 / n))
    half = q[: n // 2 + 1]
    trap_half = float(np.trapezoid(half, dx=1.0 / n))
    assert_allclose(trap_full, 2.0 * trap_half, rtol=1e-15)


def test_energy_residual_converges(sol_mu2):
    values = [abs(energy_residual(reconstruct(sol_mu2, n))) for n in (128, 256, 512, 1024)]
    assert values[-1] <= 1e-6
    assert all(a > b for a, b in zip(values, values[1:]))  # order >= 1 decay


def test_energy_residual_at_threshold():
    sol = solve_orbit(critical_mu())
    assert abs(energy_residual(reconstruct(sol, 1024))) <= 1e-6


def test_motion_law_second_order(sol_mu2):
    # Centered second difference of q1 against the equation of motion
    # q1'' = -eta^2 (mu / q1^2 + 1 / (gamma^2 qbar1^2)), interior window.
    def max_defect(n):
        traj = reconstruct(sol_mu2, n)
        j = np.arange(1, n)
        mask = (traj.t[j] >= 0.1) & (traj.t[j] <= 0.4)
        j = j[mask]
        q = traj.q1
        fd = (q[j + 1] - 2.0 * q[j] + q[j - 1]) * float(n) ** 2
        rhs = -(traj.eta**2) * (
            traj.mu / q[j] ** 2 + 1.0 / (traj.gamma**2 * traj.qbar1**2)
        )
        return float(np.max(np.abs(fd / rhs - 1.0)))

    d256, d512 = max_defect(256), max_defect(512)
    assert d256 <= 1e-3
    ratio = d256 / d512
    assert 3.0 <= ratio <= 5.5  # ~4 for a second-order scheme


def test_kappa_conserved_along_orbit(sol_mu2, sol_mu4):
    # kappa recomputed pointwise from the energy integral with a centered
    # finite-difference velocity, away from the collision and the apex.
    for sol in (sol_mu2, sol_mu4):
        traj = reconstruct(sol, 4096)
        n = traj.t.size - 1
        j = np.arange(1, n)
        mask = (traj.t[j] >= 0.05) & (traj.t[j] <= 0.45)
        j = j[mask]
        q = traj.q1
        v = (q[j + 1] - q[j - 1]) * (n / 2.0)
        kappa_t = (
            v * v / (2.0 * traj.eta**2)
            - sol.mu / q[j]
            + q[j] / (traj.gamma**2 * traj.qbar1**2)
        )
        drift = np.max(np.abs(kappa_t - sol.kappa)) / abs(sol.kappa)
        assert drift <= 1e-4


def test_reconstruct_above_threshold_amplitude():
    # Above the threshold charge the swing passes the outer electron's rest
    # position; reconstruction itself is unaffected by the crossing.
    sol = solve_orbit(20.0)
    traj = reconstruct(sol, 64)
    assert traj.q1[0] > traj.q2_const


def _brentq_error(sol, n):
    """Largest |q1 - reference| over checked first-half samples of reconstruct(sol, n).

    Reference: each sample solved on its own by a bracketed root solve of
    G(u) = 2 G(1) t in u, with q1 = q1max (1 - u**2).  Every first-half
    sample is checked up to n = 256 and every (n/256)-th beyond, plus each
    of the last 64 before the collision, where the inversion is worst
    conditioned.
    """
    a = sol.q1antimax / sol.q1max
    g_full = time_integral(a, 1.0)
    half = n // 2
    samples = np.unique(np.r_[1:half:max(1, n // 256), max(1, half - 64) : half])
    ref = []
    for j in samples:
        target = 2.0 * g_full * (j / n)
        u = brentq(
            lambda u: time_integral(a, u) - target,
            0.0,
            1.0,
            xtol=1e-15,
            rtol=4 * np.finfo(float).eps,
        )
        ref.append(sol.q1max * (1.0 - u) * (1.0 + u))
    q1 = reconstruct(sol, n).q1[samples]
    return float(np.max(np.abs(q1 - ref)))


@pytest.mark.parametrize("mu", [1.02, 2.0, "mu*", 100.0, 1e6])
def test_reconstruct_against_brentq(mu):
    sol = solve_orbit(critical_mu() if mu == "mu*" else mu)
    for n in (16, 64, 4096):
        err = _brentq_error(sol, n)
        assert err <= 1e-14 * sol.q1max, f"n_samples={n}: error {err:.3e}"


@pytest.mark.parametrize("u", [-12, -9, -6, -3, 0, 3, 7, 11])
def test_reconstruct_against_brentq_at_512(u):
    # The benchmark's sample count, at charges mu = 1 + 10**u spread over
    # the range the trajectory workload draws from.
    sol = solve_orbit(1.0 + 10.0**u)
    err = _brentq_error(sol, 512)
    assert err <= 1e-14 * sol.q1max, f"error {err:.3e}"


@pytest.mark.parametrize("b", [1e-12, 1e-3, 0.3])
def test_reconstruct_against_brentq_nonphysical_b(sol_mu2, b):
    # Physical orbits have b = -q1antimax/q1max >= 0.517; a smaller b brings
    # the singularity of H' closer to the real axis near p = pi/2.
    sol = dataclasses.replace(sol_mu2, q1antimax=-b * sol_mu2.q1max)
    for n in (16, 64):
        err = _brentq_error(sol, n)
        assert err <= 1e-14 * sol.q1max, f"n_samples={n}: error {err:.3e}"


def test_reconstruct_closed_form_at_zero_a(sol_mu2):
    # With q1antimax = 0 the time map is G(u) = u, so the first half of the
    # period is q1 = q1max * (1 - 4 t**2) exactly.
    sol = dataclasses.replace(sol_mu2, q1antimax=0.0)
    n = 512
    traj = reconstruct(sol, n)
    t = traj.t[: n // 2 + 1]
    expected = sol.q1max * (1.0 - 4.0 * t * t)
    assert np.max(np.abs(traj.q1[: n // 2 + 1] - expected)) <= 1e-14 * sol.q1max


def test_reconstruct_newton_cap_reports_context(sol_mu2, monkeypatch):
    # One Newton step is too few; the error names the orbit and the step,
    # in its message and in its fields.
    monkeypatch.setattr(orbit, "_NEWTON_CAP", 1)
    with pytest.raises(ConvergenceError, match=r"a=-.*n_samples=64, worst step") as info:
        reconstruct(sol_mu2, 64)
    exc = info.value
    assert exc.mu == sol_mu2.mu
    assert exc.a == sol_mu2.q1antimax / sol_mu2.q1max
    assert exc.iterations == 1
    assert 0.0 < exc.last < math.pi / 64
    assert f"worst step {exc.last:.3e}" in str(exc)


def test_reconstruct_time_map_calls(monkeypatch):
    # The grid evaluation is the only time-map call: Newton inverts H inside
    # each sample's grid cell from H' alone.
    time_map = orbit._time_map
    calls = []

    def counted(a, p):
        calls.append(a)
        return time_map(a, p)

    monkeypatch.setattr(orbit, "_time_map", counted)
    for u in np.linspace(-12.0, 11.0, 47):
        sol = solve_orbit(1.0 + 10.0**u)
        for n in (16, 512, 4096):
            calls.clear()
            reconstruct(sol, n)
            assert len(calls) == 1, f"u={u:g}, n_samples={n}: {len(calls)} calls"


def test_gauss_rule_exact_to_degree_15():
    assert orbit._GL_NODES[-1] == 1.0
    x = orbit._GL_NODES[:8]
    w = orbit._GL_WEIGHTS
    for k in range(16):
        assert abs(w @ x**k - 1.0 / (k + 1)) <= 4 * np.finfo(float).eps / (k + 1), k
