"""Tests for trajectory reconstruction and its self-consistency diagnostics."""

import copy
import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

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
from frozenplanet import orbit, quadrature
from frozenplanet.quadrature import _time_map, ratio_integrals
from frozenplanet.solver import OrbitSolution


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
    assert traj_mu2.orbit is sol_mu2


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
        traj_mu2.orbit = None


def test_reconstruct_deterministic(sol_mu2):
    a = reconstruct(sol_mu2, 64)
    b = reconstruct(sol_mu2, 64)
    assert np.array_equal(a.q1, b.q1)


def _same_fields(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(x) is type(y), f.name
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name


def _assert_built_like_its_dataclass(obj):
    """``obj`` behaves as the instance its dataclass constructor builds from its fields.

    ``solve_orbit`` and ``reconstruct`` write each instance's dict once
    instead of calling the generated frozen ``__init__``.
    """
    cls = type(obj)
    assert cls in (OrbitSolution, orbit.Trajectory)
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(cls)}
    assert list(vars(obj)) == list(fields)
    built = cls(**fields)
    # Arrays print summarised: printing 513 samples in full costs 3 ms.
    with np.printoptions(threshold=16):
        assert repr(obj) == repr(built)
    if cls is OrbitSolution:
        assert obj == built and hash(obj) == hash(built)
        assert all(type(v) is float for v in fields.values()), fields
    else:
        # eq=False: equality and hashing are by identity, for both.
        assert obj == obj and obj != built and hash(obj) == object.__hash__(obj)
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), dataclasses.replace(obj)):
        assert type(twin) is cls
        _same_fields(twin, obj)
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)


def test_trajectory_properties():
    # A trajectory holds the solution it was rebuilt from, and the residuals
    # read its solved values: qbar2 / (gamma + 1) is one rounding off the
    # solved mean qbar1 at 18 of these charges, and so would move them.
    # Each solution and trajectory, on both sides of mu*, behaves as the
    # one its dataclass constructor builds.
    assert [f.name for f in dataclasses.fields(orbit.Trajectory)] == ["t", "q1", "orbit"]
    for mu in [1.0 + 10.0**u for u in np.linspace(-12.0, 15.0, 271)] + [critical_mu()]:
        sol = solve_orbit(mu)
        _assert_built_like_its_dataclass(sol)
        for n in (16, 512):
            traj = reconstruct(sol, n)
            _assert_built_like_its_dataclass(traj)
            assert traj.orbit is sol
            assert traj.q1[0] == sol.q1max
            mean = mean_q1(traj)
            assert mean_residual(traj) == mean - sol.qbar1
            g, x = sol.gamma, sol.qbar1
            energy = sol.kappa - mean / (g * g * x * x) - sol.mu / sol.qbar2 + 1.0 / (g * x) + 1.0
            assert energy_residual(traj) == energy, mu


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


def test_residuals_at_largest_charges():
    # q1 reaches about 2.7 mu, so an unscaled sum over the samples would
    # overflow from mu of about 1e305 on.  The period overflows from mu of
    # about 4.95e307, so 4.9e307 is close to the largest charge that solves.
    for mu in (1e300, 1e307, 4.9e307):
        sol = solve_orbit(mu)
        traj = reconstruct(sol, 512)
        assert abs(mean_residual(traj)) <= 1e-6 * sol.qbar1
        assert abs(energy_residual(traj)) <= 1e-6


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
        rhs = -(sol_mu2.eta**2) * (
            sol_mu2.mu / q[j] ** 2 + 1.0 / (sol_mu2.gamma**2 * sol_mu2.qbar1**2)
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
            v * v / (2.0 * sol.eta**2)
            - sol.mu / q[j]
            + q[j] / (sol.gamma**2 * sol.qbar1**2)
        )
        drift = np.max(np.abs(kappa_t - sol.kappa)) / abs(sol.kappa)
        assert drift <= 1e-4


def test_reconstruct_above_threshold_amplitude():
    # Above the threshold charge the swing passes the outer electron's rest
    # position; reconstruction itself is unaffected by the crossing.
    sol = solve_orbit(20.0)
    traj = reconstruct(sol, 64)
    assert traj.q1[0] > sol.qbar2


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
    # The grid's summation error grows with n; mu = 1.02 also runs n = 16384.
    for n in (16, 64, 4096) + ((16384,) if mu == 1.02 else ()):
        err = _brentq_error(sol, n)
        assert err <= 1e-14 * sol.q1max, f"n_samples={n}: error {err:.3e}"


@pytest.mark.parametrize("u", [-12, -9, -6, -3, 0, 3, 7, 11])
def test_reconstruct_against_brentq_at_512(u):
    # The benchmark's sample count, at charges mu = 1 + 10**u spread over
    # the range the trajectory workload draws from.
    sol = solve_orbit(1.0 + 10.0**u)
    err = _brentq_error(sol, 512)
    assert err <= 1e-14 * sol.q1max, f"error {err:.3e}"


@pytest.mark.parametrize("b", [1e-12, 1e-6, 1e-3, 0.3])
def test_reconstruct_against_brentq_nonphysical_b(sol_mu2, b):
    # Physical orbits have b = -q1antimax/q1max >= 0.517; a smaller b brings
    # the singularity of H' closer to the real axis near p = pi/2.  Below
    # n = 512 the rebuild runs the grid of n = 512.
    sol = dataclasses.replace(sol_mu2, q1antimax=-b * sol_mu2.q1max)
    for n in (16, 64, 512, 4096):
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


def test_reconstruct_unsettled_reports_context(sol_mu2, unsettled_rebuild):
    # One Newton step from a cell's midpoint fails the settle bound; the
    # error names the orbit, the step and both sides of the bound, in its
    # message and in its fields.
    with pytest.raises(ConvergenceError, match=r"a=-.*n_samples=64, worst step") as info:
        reconstruct(sol_mu2, 64)
    exc = info.value
    assert exc.mu == sol_mu2.mu
    assert exc.a == sol_mu2.q1antimax / sol_mu2.q1max
    assert exc.iterations is None
    assert 0.0 < exc.last < math.pi / 64
    assert f"worst step {exc.last:.3e}" in str(exc)
    sides = re.search(r"\+ 2\) = (\S+) > 6 eps min p = (\S+) ", str(exc))
    left, right = float(sides[1]), float(sides[2])
    assert left > right > 0.0
    # A NumPy scalar charge reaches the message as a plain float.
    with pytest.raises(ConvergenceError, match=r"\(a=-2\.2496000007193842e\+24, n_samples=64,"):
        reconstruct(solve_orbit(np.float64(1.0 + 1e-12)), 64)


def test_settle_bound_dominates_error_coefficient():
    # For q in [0, 1], 10 tan**2 + 2 is at least the error coefficient
    # tan**2 (7 q + 3) + 1 + q: the difference is (1 - q) (7 tan**2 + 1),
    # checked in exact rationals.
    tan2s = [Fraction(0), Fraction(1, 10**12), Fraction(3, 7), Fraction(1), Fraction(10**15)]
    for q in [Fraction(k, 16) for k in range(17)] + [Fraction(1, 10**9)]:
        for tan2 in tan2s:
            coefficient = tan2 * (7 * q + 3) + 1 + q
            bound = 10 * tan2 + 2
            assert bound - coefficient == (1 - q) * (7 * tan2 + 1) >= 0, (q, tan2)


def test_settle_bound_decides_from_hermite_seed(monkeypatch):
    # From the Hermite seed the one corrected Newton step settles every
    # sample over the whole charge range, with the settle bound's left
    # side at most 0.05 of its right: at the benchmark's sample count,
    # at the smaller counts that share its grid, at 4096, and at 2**20
    # at both ends of the range of b.
    ratios = []
    newton = orbit._newton

    def recorded(ends, rest, b):
        worst, left, right = newton(ends, rest, b)
        ratios.append(left / right)
        return worst, left, right

    monkeypatch.setattr(orbit, "_newton", recorded)
    mus = [1.0 + 10.0**u for u in np.linspace(-12.0, 15.0, 55)] + [1e300]
    for mu in mus:
        sol = solve_orbit(mu)
        for n in (16, 64, 256, 512, 4096):
            reconstruct(sol, n)
    for mu in (1.0 + 1e-12, 1e15):
        reconstruct(solve_orbit(mu), orbit._MAX_SAMPLES)
    assert len(ratios) == 5 * len(mus) + 2
    assert max(ratios) <= 0.05, max(ratios)
    for u in (-12.0, -0.5, 11.0):
        sol = solve_orbit(1.0 + 10.0**u)
        err = _brentq_error(sol, 512)
        assert err <= 1e-14 * sol.q1max, f"mu={sol.mu!r}: error {err:.3e}"


def test_reconstruct_monotonicity_failure_reports_context(monkeypatch, sol_mu2):
    # Swapped target fractions, the times 10/n and 11/n, make q1 rise at
    # sample 11; the error names the sample and the sample count, and
    # carries the orbit.
    layout = orbit._layout(64)
    t = layout.t.copy()
    t[[10, 11]] = t[[11, 10]]
    monkeypatch.setattr(orbit, "_layout", lambda n: layout._replace(t=t))
    with pytest.raises(
        ConvergenceError, match=r"q1 does not fall at sample 11 .*n_samples=64\)"
    ) as info:
        reconstruct(sol_mu2, 64)
    exc = info.value
    assert exc.mu == sol_mu2.mu
    assert exc.a == sol_mu2.q1antimax / sol_mu2.q1max
    assert exc.iterations is None


def test_reconstruct_layout_cache(sol_mu2):
    # Rebuilds with the arrays that depend on n alone taken from the cache
    # equal rebuilds that build them afresh, whatever n came before.  A
    # layout holds 32 bytes per sample, and the times also give the
    # targets' fractions k / n.
    n = orbit._CACHED_SAMPLES
    layout = orbit._layout(n)
    assert sum(arr.nbytes for arr in layout) <= 32 * n + 64
    assert np.array_equal(layout.t[1 : n // 2], np.arange(1, n // 2) / n)
    for n in (16, 512, 4096, 16):
        traj = reconstruct(sol_mu2, n)
        for arr in orbit._layout(n):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            traj.t.setflags(write=True)
        orbit._cached_layout.cache_clear()
        fresh = reconstruct(sol_mu2, n)
        assert np.array_equal(traj.q1, fresh.q1)
        assert np.array_equal(traj.t, fresh.t)

    # The layout of the largest sample count (about 38 MB) is not kept.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reconstruct(sol_mu2, orbit._MAX_SAMPLES)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20, f"{held} bytes held after the rebuild returned"


def test_reconstruct_imports_no_numpy_polynomial():
    # The Gauss tables are hard-coded: numpy.polynomial would cost a rebuild
    # about 2 MB of memory on import alone.
    code = (
        "import sys; import frozenplanet as fp; "
        "fp.reconstruct(fp.solve_orbit(2.0), 512); "
        "sys.exit('numpy.polynomial' in sys.modules)"
    )
    paths = (str(Path(orbit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "numpy.polynomial was imported"


def test_reconstruct_makes_no_time_map_call(monkeypatch):
    # The grid comes from the Gauss rule on H' and G(1) from the moments,
    # so the closed-form time map is never evaluated on the way.  Its one
    # formula, shared by _time_map and time_integral, is refused.
    def refuse(b, s, cc):
        raise AssertionError("reconstruct evaluated the time map")

    monkeypatch.setattr(quadrature, "_h", refuse)
    # Also refused under its own name in orbit, should orbit import it again.
    monkeypatch.setattr(orbit, "_h", refuse, raising=False)
    for u in np.linspace(-12.0, 11.0, 47):
        sol = solve_orbit(1.0 + 10.0**u)
        for n in (16, 512, 4096):
            reconstruct(sol, n)


@pytest.mark.parametrize("n", [16, 512, 4096, 2**16])
def test_time_grid_against_time_map(n):
    # Physical orbits have b from about 0.5175 (mu -> 1) to 2.25e24.  The
    # compensated sum of the cells' Gauss rules matches the closed-form
    # time map at every grid angle, and its end matches G(1) = I_{1/2} / 2.
    # The grid pass's slopes are H' at the cell starts.
    eps = np.finfo(float).eps
    layout = orbit._layout(n)
    grid = layout.grid
    cc_start = np.cos(grid[:-1]) ** 2
    for b in np.geomspace(0.5175, 2.25e24, 25):
        h_grid, slope = orbit._grid_values(-b, layout.cc, layout.weights)
        ref = _time_map(-b, grid)
        g_full = 0.5 * ratio_integrals(-b)[0]
        assert grid[-1] == 0.5 * math.pi
        assert np.max(np.abs(h_grid - ref)) <= 8 * eps * g_full, b
        assert abs(h_grid[-1] - g_full) <= 4 * eps * g_full, b
        h_prime = cc_start / np.sqrt(cc_start + b)
        assert np.max(np.abs(slope - h_prime) / h_prime) <= 4 * eps, b


@pytest.mark.parametrize("n", [16, 4096, 2**16])
def test_grid_sum_error_terms_match_two_sum(n):
    # The grid pass takes each addition's rounding error by Fast2Sum, which
    # is exact because every running sum is at least the increment added
    # to it.  The grid values then equal those of TwoSum, bit for bit.
    layout = orbit._layout(n)
    for b in (1e-12, 0.3, 0.5175, 2.0, 1e6, 2.25e24):
        h_grid, _ = orbit._grid_values(-b, layout.cc, layout.weights)
        cc = layout.cc[:-1]
        cells = layout.weights @ (cc / np.sqrt(cc + b))
        run = np.cumsum(cells)
        prev = np.r_[0.0, run[:-1]]
        back = run - prev
        err = (prev - (run - back)) + (cells - back)
        two_sum = np.r_[0.0, run + np.cumsum(err)]
        assert np.array_equal(h_grid, two_sum), b


def test_gauss_tables_exact_to_their_degree():
    # The 4-point table integrates the monomials up to degree 7 on [0, 1];
    # its node list ends with the end point 1, where Newton needs H'.
    eps = np.finfo(float).eps
    nodes, w = orbit._GL_NODES, orbit._GL_WEIGHTS
    assert w.size == 4
    assert nodes.size == 5 and nodes[-1] == 1.0
    assert not nodes.flags.writeable and not w.flags.writeable
    for k in range(8):
        assert abs(w @ nodes[:4] ** k - 1.0 / (k + 1)) <= 4 * eps / (k + 1), k


def test_gauss_rule_meets_strip_bound():
    # The grid has max(n/2, 256) cells, so no cell is wider than pi/512.
    # On those cells the 4-point rule's strip bound (w / (4 y))**8, with
    # y = 0.665 below asinh(sqrt(b)) on physical orbits, is at most 1e-18
    # for every sample count reconstruct accepts.
    assert math.asinh(math.sqrt(0.5175)) > 0.665
    for n in range(16, orbit._MAX_SAMPLES + 1, 2):
        w = 0.5 * math.pi / max(n // 2, 256)
        assert (w / (4 * 0.665)) ** 8 <= 1e-18, n
    eps = np.finfo(float).eps
    for n in (16, 210, 512, 2**20):
        layout = orbit._layout(n)
        cells = max(n // 2, 256)
        grid, w = layout.grid, 0.5 * math.pi / cells
        assert layout.cc.shape == (5, cells)
        assert grid.size == cells + 1 and grid[-1] == 0.5 * math.pi
        # Rows 0 to 3: cos**2 at each cell's Gauss nodes; row 4: at its start.
        nodes = grid[:-1] + w * orbit._GL_NODES[:4, None]
        assert np.max(np.abs(layout.cc[:4] - np.cos(nodes) ** 2)) <= 2 * eps
        assert np.array_equal(layout.cc[4], np.cos(grid[:-1]) ** 2)
        assert np.array_equal(layout.weights, orbit._GL_WEIGHTS * w)
