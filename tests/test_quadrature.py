"""Tests for the moment integrals I_k(a), the ratio map, the period and the time map.

The package evaluates all of them in closed form (Carlson's R_F and R_D, or
a power series for large |a|).  Oracles used here, in decreasing order of
independence:

* closed Beta-function forms at a = -1 and elementary values at a = 0,
  evaluated with ``math.gamma`` (the package ships its own gamma);
* 40-digit ``mpmath`` quadrature of the angle forms of the integrals;
* Gauss-Jacobi quadrature with the (1-r)^(-1/2) endpoint weight built in,
  applied to the raw integrand r^k / sqrt(r - a) with no substitution at all;
* Gauss-Legendre quadrature of the time map's analytic angle integrand;
* a midpoint rule with 10^6 panels on the desingularized angle form.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi, roots_legendre

from frozenplanet import (
    DomainError,
    big_f,
    lemniscate_constant,
    period,
    ratio_integrals,
    time_integral,
)
from frozenplanet.quadrature import _time_map
from frozenplanet.specialfn import carlson_rf_rd

# Frozen regression values (current double-precision build; independently
# cross-checked against 30-digit arbitrary-precision evaluations).
I_HALF_AT_MINUS_ONE = 1.1981402347355912
I_THREE_HALF_AT_MINUS_ONE = 0.8740191847640437
RATIO_AT_MINUS_1E6 = 0.7499999687500214
BIG_F_AT_1_2 = 2.9179194869686507

EPS = float(np.finfo(float).eps)
# b = -a from the subnormal range to 1e25, on both sides of the series
# switch at b = 4; every physical orbit has b >= 0.517.
B_VALUES = (
    5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-12, 1e-8, 1e-4, 1e-2, 0.517,
    1.0, 2.0, 3.99, 4.0, 4.01, 6.48, 1e2, 1e4, 1e8, 1e12, 1e16, 1e25,
)


def _jacobi_oracle(a, k, n_nodes=400):
    """I_k(a) by Gauss-Jacobi with weight r^k (1-r)^(-1/2) built into the
    nodes; the leftover factor 1/sqrt(r - a) is analytic on [0, 1] for a < 0.
    No substitution is involved."""
    x, w = roots_jacobi(n_nodes, -0.5, k)
    r = 0.5 * (x + 1.0)
    return float(w @ (1.0 / np.sqrt(r - a))) * 2.0 ** -(k + 0.5)


def _mp_moment(b, k):
    """2 int_0^(pi/2) sin^(2k+1) / sqrt(sin^2 + b) at 40 digits, split where
    sin^2 = b so that the bend of the integrand falls on a node boundary."""
    with mpmath.workdps(40):
        b = mpmath.mpf(b)
        e = 2 * mpmath.mpf(k) + 1
        pts = [0, mpmath.pi / 2]
        if b < 1:
            pts.insert(1, mpmath.asin(mpmath.sqrt(b)))

        def integrand(t):
            s = mpmath.sin(t)
            return s**e / mpmath.sqrt(s * s + b)

        return 2 * mpmath.quad(integrand, pts)


def _mp_time_map(b, p):
    """int_0^p cos^2 / sqrt(cos^2 + b) at 40 digits."""
    with mpmath.workdps(40):
        b = mpmath.mpf(b)

        def integrand(s):
            cc = mpmath.cos(s) ** 2
            return cc / mpmath.sqrt(cc + b)

        return mpmath.quad(integrand, [0, p])


def _rel_mp(value, ref):
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))


def test_ratio_integrals_against_mpmath():
    r = ratio_integrals(0.0)
    assert (r.i_half, r.i_three_half) == (2.0, 4.0 / 3.0)
    for b in B_VALUES:
        r = ratio_integrals(-b)
        assert _rel_mp(r.i_half, _mp_moment(b, 0.5)) <= 8 * EPS, b
        assert _rel_mp(r.i_three_half, _mp_moment(b, 1.5)) <= 8 * EPS, b


def test_time_map_against_mpmath():
    p = np.array([0.0, 1e-8, 0.3, 1.0, 1.5, 1.5707963, 0.5 * math.pi])
    assert np.array_equal(_time_map(0.0, p), np.sin(p))
    for b in B_VALUES:
        h = _time_map(-b, p)
        assert h[0] == 0.0
        for h_i, p_i in zip(h[1:], p[1:]):
            assert _rel_mp(h_i, _mp_time_map(b, p_i)) <= 32 * EPS, (b, p_i)


def test_time_map_matches_twelve_step_kernel():
    # The time map runs six duplication steps (the bound is in its
    # docstring); the general twelve-step kernel agrees to rounding over
    # b from 1e-300 to 1e300, p = pi/2 included.
    p = np.linspace(0.0, 0.5 * math.pi, 257)
    b = np.geomspace(1e-300, 1e300, 1201)[:, None]
    s, c = np.sin(p), np.cos(p)
    cc = c * c
    m = 1.0 / (1.0 + b)
    rd = carlson_rf_rd(cc, 1.0, m * (cc + b))[1]
    ref = s * c / np.sqrt(cc + b) + (b * m * np.sqrt(m) / 3.0) * s**3 * rd
    h = np.array([_time_map(-b_i, p) for b_i in b[:, 0]])
    assert_allclose(h, ref, rtol=4 * EPS, atol=0.0)


def test_time_map_huge_b():
    # G(1) = H(pi/2) tends to (pi/4) / sqrt(b) with a relative correction
    # of order 1/b; b m**(3/2) would underflow from about b = 1e205 on.
    for b in (1e210, 1e250, 1e300):
        g_full = _time_map(-b, np.array([0.5 * math.pi]))[0]
        assert_allclose(g_full * math.sqrt(b), 0.25 * math.pi, rtol=4 * EPS, atol=0.0)


def test_time_map_against_gauss_legendre():
    # H(p) = p int_0^1 cos(p t)^2 / sqrt(cos(p t)^2 + b) dt, analytic in t;
    # 200 nodes resolve it to rounding for b >= 1e-3.
    x, w = roots_legendre(200)
    t = 0.5 * (x + 1.0)
    p = np.linspace(0.05, 0.5 * math.pi, 9)
    for b in (1e-3, 0.517, 6.48, 1e4):
        cc = np.cos(np.outer(p, t)) ** 2
        ref = 0.5 * p * ((cc / np.sqrt(cc + b)) @ w)
        assert_allclose(_time_map(-b, p), ref, rtol=32 * EPS, atol=0.0)


def test_ratio_integrals_at_zero():
    # a = 0 collapses to int r^(k-1/2) / sqrt(1-r): exactly 2 and 4/3.
    r = ratio_integrals(0.0)
    assert_allclose(r.i_half, 2.0, rtol=1e-12)
    assert_allclose(r.i_three_half, 4.0 / 3.0, rtol=1e-12)
    assert r.a == 0.0


def test_ratio_integrals_beta_closed_forms():
    # a = -1: I_k(-1) = (1/2) B(k/2 + 1/4, 1/2) via r -> r^2.
    r = ratio_integrals(-1.0)
    b34 = math.gamma(0.75) * math.gamma(0.5) / math.gamma(1.25)
    b54 = math.gamma(1.25) * math.gamma(0.5) / math.gamma(1.75)
    assert abs(r.i_half - 0.5 * b34) <= 1e-10
    assert abs(r.i_three_half - 0.5 * b54) <= 1e-10
    assert_allclose(r.i_half, I_HALF_AT_MINUS_ONE, rtol=1e-12)
    assert_allclose(r.i_three_half, I_THREE_HALF_AT_MINUS_ONE, rtol=1e-12)


def test_ratio_integrals_deep_well_limit():
    # a -> -inf: ratio -> (4/3) / 2 = 3/4 like 3/4 + O(1/|a|).
    r = ratio_integrals(-1e6)
    ratio = r.i_three_half / r.i_half
    assert_allclose(ratio, RATIO_AT_MINUS_1E6, rtol=1e-11)
    assert abs(ratio - 0.75) < 1e-6


def test_ratio_integrals_rejects_positive_a():
    for a in (1e-9, math.nan, -math.inf):
        with pytest.raises(DomainError):
            ratio_integrals(a)


def test_ratio_monotone_in_k():
    # r^(3/2) < r^(1/2) on (0, 1), so the two integrals are ordered.
    for a in (0.0, -1e-3, -1.0, -20.0, -1e4):
        r = ratio_integrals(a)
        assert 0.0 < r.i_three_half < r.i_half


def test_ratio_integrals_against_jacobi_oracle():
    # Fully independent rule: endpoint weight handled by the node family.
    rng = np.random.default_rng(1849)
    a_values = -(10.0 ** rng.uniform(-3.0, 3.0, size=20))
    for a in a_values:
        r = ratio_integrals(float(a))
        assert_allclose(r.i_half, _jacobi_oracle(a, 0.5), rtol=1e-11)
        assert_allclose(r.i_three_half, _jacobi_oracle(a, 1.5), rtol=1e-11)


def test_ratio_integrals_against_midpoint_oracle():
    # Midpoint rule, 10^6 panels, on the angle form of the same integrals.
    panels = 1_000_000
    theta = (np.arange(panels) + 0.5) * (0.5 * math.pi / panels)
    s2 = np.sin(theta) ** 2
    h = 0.5 * math.pi / panels
    rng = np.random.default_rng(271828)
    a_values = -(10.0 ** rng.uniform(-3.0, 3.0, size=20))
    for a in a_values:
        # I_k(a) = 2 * int_0^(pi/2) sin(theta)^(2k+1) / sqrt(sin^2 theta - a)
        f = 1.0 / np.sqrt(s2 - a)
        i_half_ref = 2.0 * h * float(s2 @ f)
        i_three_half_ref = 2.0 * h * float((s2 * s2) @ f)
        r = ratio_integrals(float(a))
        assert abs(r.i_half - i_half_ref) <= 1e-8 * abs(i_half_ref)
        assert abs(r.i_three_half - i_three_half_ref) <= 1e-8 * abs(i_three_half_ref)


def test_ratio_integrals_deterministic():
    r1 = ratio_integrals(-0.5)
    r2 = ratio_integrals(-0.5)
    assert r1 == r2


def test_big_f_anchor_value():
    # Degenerate corner (gamma, x) = (-1, 0): exactly 8/3.
    assert abs(big_f(-1.0, 0.0) - 8.0 / 3.0) <= 1e-10


def test_big_f_lemniscate_identity():
    # big_f(1, 2) = 4 * varpi^2 / (3 pi).
    v = lemniscate_constant()
    assert_allclose(big_f(1.0, 2.0), 4.0 * v * v / (3.0 * math.pi), rtol=1e-12)
    assert_allclose(big_f(1.0, 2.0), BIG_F_AT_1_2, rtol=1e-12)


def test_big_f_positive_on_domain():
    rng = np.random.default_rng(55)
    for _ in range(100):
        gamma = rng.uniform(0.05, 4.0)
        x = rng.uniform(0.0, 50.0)
        assert big_f(gamma, x) > 0.0


def test_big_f_degenerate_amplitude_raises():
    # gamma = -1, x >= 2 collapses the swing amplitude to zero.
    with pytest.raises(DomainError):
        big_f(-1.0, 2.0)
    with pytest.raises(DomainError):
        big_f(-1.0, 3.0)


def test_big_f_decreasing_in_x():
    xs = np.linspace(0.1, 20.0, 20)
    vals = [big_f(1.0, float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_period_positive_and_scales():
    rng = np.random.default_rng(66)
    for _ in range(20):
        gamma = rng.uniform(0.1, 3.0)
        qbar1 = rng.uniform(0.2, 5.0)
        assert period(gamma, qbar1) > 0.0


def test_period_rejects_bad_qbar1():
    with pytest.raises(DomainError):
        period(1.0, 0.0)
    with pytest.raises(DomainError):
        period(1.0, -1.0)


def test_time_integral_endpoints():
    assert time_integral(-1.0, 0.0) == 0.0
    # G(1) is the half period of the normalized motion: I_{1/2}(a) / 2.
    for a in (0.0, -1e-3, -1.0, -250.0):
        g1 = time_integral(a, 1.0)
        assert_allclose(g1, 0.5 * ratio_integrals(a).i_half, rtol=1e-11)


def test_time_integral_monotone_in_upper():
    uppers = np.linspace(0.0, 1.0, 21)
    vals = [time_integral(-2.5, float(u)) for u in uppers]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_time_integral_domain_errors():
    with pytest.raises(DomainError):
        time_integral(0.5, 0.5)  # a must be <= 0
    with pytest.raises(DomainError):
        time_integral(math.nan, 0.5)
    with pytest.raises(DomainError):
        time_integral(-math.inf, 0.5)
    with pytest.raises(DomainError):
        time_integral(-1.0, 1.5)
    with pytest.raises(DomainError):
        time_integral(-1.0, -0.1)


def test_quadrature_thread_safety():
    # Concurrent evaluations share the module's series coefficients.
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: ratio_integrals(-3.0), range(32)))
    assert all(r == results[0] for r in results)
