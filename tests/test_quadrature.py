"""Tests for the moment integrals I_k(a), the ratio map, the period and the time map.

The package evaluates all of them in closed form (Carlson's R_F and R_D, or
a series about r = 1/2 for large |a|).  Oracles used here, in decreasing order of
independence:

* closed Beta-function forms at a = -1 and elementary values at a = 0,
  evaluated with ``math.gamma``;
* 40-digit ``mpmath`` quadrature of the angle forms of the integrals;
* Gauss-Jacobi quadrature with the (1-r)^(-1/2) endpoint weight built in,
  applied to the raw integrand r^k / sqrt(r - a) with no substitution at all;
* Gauss-Legendre quadrature of the time map's analytic angle integrand;
* a midpoint rule with 10^6 panels on the desingularized angle form.
"""

import math
import re
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi, roots_legendre

from frozenplanet import (
    DomainError,
    big_f,
    fixpoint_residual,
    lemniscate_constant,
    period,
    ratio_integrals,
    sigma_pair,
    time_integral,
)
from frozenplanet import quadrature
from frozenplanet.quadrature import _time_map

# B(3/4, 1/2) / 2 and B(5/4, 1/2) / 2, correctly rounded from 40-digit
# mpmath: the moments I_1/2 and I_3/2 at a = -1.
I_HALF_AT_MINUS_ONE = 1.1981402347355923
I_THREE_HALF_AT_MINUS_ONE = 0.87401918476404
# Frozen regression values (current double-precision build; independently
# cross-checked against 30-digit arbitrary-precision evaluations).
RATIO_AT_MINUS_1E6 = 0.7499999687500214
BIG_F_AT_1_2 = 2.9179194869686507

EPS = float(np.finfo(float).eps)
# b = -a from the subnormal range to 1e25, on both sides of the series
# switch at b = 1; every physical orbit has b >= 0.517.
B_VALUES = (
    5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-12, 1e-8, 1e-4, 1e-2, 0.517,
    0.999, 1.0, 1.001, 2.0, 3.99, 4.0, 4.01, 6.48, 1e2, 1e4, 1e8, 1e12, 1e16, 1e25,
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
    """int_0^p cos^2 / sqrt(cos^2 + b) at 40 digits.

    The integrand is scaled by sqrt(1 + b) so that it stays of order one,
    since mpmath's quadrature judges its error in absolute terms."""
    with mpmath.workdps(40):
        b = mpmath.mpf(b)
        scale = mpmath.sqrt(1 + b)

        def integrand(s):
            cc = mpmath.cos(s) ** 2
            return cc * scale / mpmath.sqrt(cc + b)

        return mpmath.quad(integrand, [0, p]) / scale


def _mp_time_integral(b, u):
    """G(u) at 40 digits: the time map at p = asin(u)."""
    with mpmath.workdps(40):
        return _mp_time_map(b, mpmath.asin(mpmath.mpf(u)))


def _rel_mp(value, ref):
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))


def test_ratio_integrals_against_mpmath():
    assert ratio_integrals(0.0) == (2.0, 4.0 / 3.0)
    for b in B_VALUES:
        i_half, i_three_half = ratio_integrals(-b)
        assert _rel_mp(i_half, _mp_moment(b, 0.5)) <= 8 * EPS, b
        assert _rel_mp(i_three_half, _mp_moment(b, 1.5)) <= 8 * EPS, b


def _mp_moment_2f1(b, k):
    """I_k at 40 digits from Euler's integral for 2F1:
    B(k + 1, 1/2) b**(-1/2) 2F1(1/2, k + 1; k + 3/2; -1/b).  Unlike the
    R_D identity, nothing cancels as b grows."""
    with mpmath.workdps(40):
        b = mpmath.mpf(b)
        k = mpmath.mpf(k)
        half = mpmath.mpf(1) / 2
        hyp = mpmath.hyp2f1(half, k + 1, k + 1 + half, -1 / b)
        return mpmath.beta(k + 1, half) / mpmath.sqrt(b) * hyp


def _ulps(value, ref):
    """|value - ref| in units in the last place of the double nearest ref."""
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(value) - ref) / math.ulp(float(ref)))


def test_series_branch_against_mpmath_densely():
    # The b >= 1 branch at 121 evenly spaced b on [1, 4], where its ratio
    # reaches 1/3, at each power of two up to 2**60, where a binade's term
    # count is at its bound, and at 240 log-spaced b from 4 to 1.7e308,
    # next to the largest double; plus the double above 1, and 4.4e307 and
    # 1e308, where T = 1 / (b + 1/2) reaches the subnormal range.
    above = math.nextafter(1.0, math.inf)
    b_values = [float(b) for b in np.linspace(1.0, 4.0, 121)]
    b_values += [2.0**i for i in range(61)]
    b_values += [float(b) for b in np.geomspace(4.0, 1.7e308, 240)]
    b_values += [above, 4.4e307, 1e308]
    for b in b_values:
        for k, moment in zip((0.5, 1.5), ratio_integrals(-b)):
            assert _ulps(moment, _mp_moment_2f1(b, k)) <= 4.0, (b, k)
    # Across the switch the series adds at most one unit to the jump from
    # the R_D branch just below 1, whose own error there sets it.
    below = math.nextafter(1.0, 0.0)
    for k, lower, at, upper in zip(
        (0.5, 1.5), ratio_integrals(-below), ratio_integrals(-1.0), ratio_integrals(-above)
    ):
        assert abs(lower - at) <= (_ulps(lower, _mp_moment_2f1(below, k)) + 1.0) * math.ulp(at)
        assert abs(upper - at) <= 4 * math.ulp(at)


def _mp_series_coefficient(k, j):
    """(1/2)_j / j! * M_j, M_j = int_0^1 r**k (r - 1/2)**j (1 - r)**(-1/2) dr,
    from the binomial sum over B(k + i + 1, 1/2).  That sum cancels by up
    to 3**j, so it runs at 80 digits to leave more than 40."""
    with mpmath.workdps(80):
        half = mpmath.mpf(1) / 2
        moment = mpmath.fsum(
            mpmath.binomial(j, i) * (-half) ** (j - i) * mpmath.beta(k + i + 1, half)
            for i in range(j + 1)
        )
        return mpmath.binomial(2 * j, j) / mpmath.mpf(4) ** j * moment


def test_series_coefficients_and_term_table():
    # Every coefficient the series reads, j <= 34, is within 4 units of
    # its 80-digit value.
    coefficients = [[_mp_series_coefficient(k, j) for j in range(35)] for k in (0.5, 1.5)]
    for k, column, reference in zip((0.5, 1.5), zip(*quadrature._SERIES), coefficients):
        assert len(column) == 35
        for j, (value, ref) in enumerate(zip(column, reference)):
            assert _ulps(value, ref) <= 4.0, (k, j)
    # Binade i, b in [2**i, 2**(i + 1)), sums the first n pairs by Horner,
    # highest j first.  Its n is the least whose first omitted term, j = n,
    # is below 0.02 of 2**-53 of the sum at b = 2**i, for both moments; the
    # terms only fall as b grows, so that n serves the whole binade.  The
    # counts never grow with b, from all 34 terms at b = 1 to one term.
    table = quadrature._SERIES_BY_BINADE
    counts = [len(rest) + 1 for _, rest in table]
    assert len(table) == 1024
    assert counts[0] == 34 and counts[-1] == 1
    assert all(n >= m for n, m in zip(counts, counts[1:]))
    for (top, rest), n in zip(table, counts):
        assert (top,) + rest == quadrature._SERIES[n - 1 :: -1]
    with mpmath.workdps(40):
        cut = mpmath.mpf(0.02) * mpmath.mpf(2) ** -53
        for i, n in enumerate(counts):
            t = 1 / (mpmath.mpf(2) ** i + mpmath.mpf(0.5))
            totals = [
                mpmath.fsum(c * (-t) ** j for j, c in enumerate(reference))
                for reference in coefficients
            ]
            before, at = (
                max(ref[m] * t**m / total for ref, total in zip(coefficients, totals))
                for m in (n - 1, n)
            )
            assert at < cut <= before, (i, n)


def test_time_map_against_mpmath():
    p = np.array([0.0, 1e-8, 0.3, 1.0, 1.5, 1.5707963, 0.5 * math.pi])
    assert np.array_equal(_time_map(0.0, p), np.sin(p))
    for b in B_VALUES:
        h = _time_map(-b, p)
        assert h[0] == 0.0
        for h_i, p_i in zip(h[1:], p[1:]):
            assert _rel_mp(h_i, _mp_time_map(b, p_i)) <= 32 * EPS, (b, p_i)


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
    # The result is a plain pair of Python floats, not NumPy scalars.
    for a in (0.0, -1e-3, -1.0, -6.48):
        pair = ratio_integrals(a)
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(v) is float for v in pair)
    i_half, i_three_half = ratio_integrals(0.0)
    assert_allclose(i_half, 2.0, rtol=1e-12)
    assert_allclose(i_three_half, 4.0 / 3.0, rtol=1e-12)


def test_ratio_integrals_beta_closed_forms():
    # a = -1: I_k(-1) = (1/2) B(k/2 + 1/4, 1/2) via r -> r^2.
    i_half, i_three_half = ratio_integrals(-1.0)
    b34 = math.gamma(0.75) * math.gamma(0.5) / math.gamma(1.25)
    b54 = math.gamma(1.25) * math.gamma(0.5) / math.gamma(1.75)
    assert abs(i_half - 0.5 * b34) <= 1e-10
    assert abs(i_three_half - 0.5 * b54) <= 1e-10
    assert abs(i_half - I_HALF_AT_MINUS_ONE) <= np.spacing(I_HALF_AT_MINUS_ONE)
    assert abs(i_three_half - I_THREE_HALF_AT_MINUS_ONE) <= np.spacing(
        I_THREE_HALF_AT_MINUS_ONE
    )


def test_ratio_integrals_deep_well_limit():
    # a -> -inf: ratio -> (4/3) / 2 = 3/4 like 3/4 + O(1/|a|).
    i_half, i_three_half = ratio_integrals(-1e6)
    ratio = i_three_half / i_half
    assert_allclose(ratio, RATIO_AT_MINUS_1E6, rtol=1e-11)
    assert abs(ratio - 0.75) < 1e-6


def test_ratio_integrals_rejects_positive_a():
    # An int beyond the double range is refused as such, not with the
    # OverflowError of its conversion.
    for a in (1e-9, math.nan, -math.inf, -(10**400)):
        with pytest.raises(DomainError):
            ratio_integrals(a)


def test_ratio_monotone_in_k():
    # r^(3/2) < r^(1/2) on (0, 1), so the two integrals are ordered.
    for a in (0.0, -1e-3, -1.0, -20.0, -1e4):
        i_half, i_three_half = ratio_integrals(a)
        assert 0.0 < i_three_half < i_half


def test_ratio_integrals_against_jacobi_oracle():
    # Fully independent rule: endpoint weight handled by the node family.
    rng = np.random.default_rng(1849)
    a_values = -(10.0 ** rng.uniform(-3.0, 3.0, size=20))
    for a in a_values:
        i_half, i_three_half = ratio_integrals(float(a))
        assert_allclose(i_half, _jacobi_oracle(a, 0.5), rtol=1e-11)
        assert_allclose(i_three_half, _jacobi_oracle(a, 1.5), rtol=1e-11)


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
        i_half, i_three_half = ratio_integrals(float(a))
        assert abs(i_half - i_half_ref) <= 1e-8 * abs(i_half_ref)
        assert abs(i_three_half - i_three_half_ref) <= 1e-8 * abs(i_three_half_ref)


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


def test_big_f_rejects_nonfinite_arguments():
    # The error names the non-finite argument given, not the moment
    # argument a = nan that a NaN would otherwise reach.
    for gamma, x in ((1.0, math.nan), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(DomainError, match=f"finite gamma and x, got gamma={gamma!r}, x={x!r}"):
            big_f(gamma, x)
    for gamma, x in ((1.0, 10**400), (-(10**400), 1.0)):
        with pytest.raises(DomainError, match="beyond the double range"):
            big_f(gamma, x)


def test_big_f_rejects_negative_x():
    # The error names the x the caller passed.
    for x in (-1.0, -1e-300, -math.inf):
        with pytest.raises(DomainError, match=f"x={x!r}"):
            big_f(1.0, x)
    # x = 0 is in the domain: the certificates evaluate F there.
    assert big_f(1.0, 0.0) >= 8.0 / 3.0


def test_big_f_and_period_where_the_moment_argument_overflows():
    # At x = 1e300, b = -sigma_minus / sigma_plus overflows although F and
    # the period are finite.  There the series' leading terms are exact:
    # F = 3/4 sigma_plus, and with gamma = 1 the period tends to
    # 2 sqrt(2) pi.  Both meet their values at x = 1e150, where b = 2.5e299
    # is still a double and the moments run their series branch.
    for x in (1e150, 1e300):
        plus = sigma_pair(1.0, x)[0]
        assert abs(big_f(1.0, x) / (0.75 * plus) - 1.0) <= 2 * EPS, x
        assert abs(period(1.0, x) / (2.0 * math.sqrt(2.0) * math.pi) - 1.0) <= 8 * EPS, x
    assert big_f(1.0, 1e300) == 0.75 * sigma_pair(1.0, 1e300)[0]


def test_big_f_and_period_where_the_sigma_pair_overflows():
    # At gamma = 1e200, gamma**2 x and (gamma + 1)**2 overflow although the
    # pair (2, -2e400) has a finite sigma_plus: F = 3/4 sigma_plus = 1.5 and
    # the period pi / sqrt(2) meet their values at gamma = 1e150, where the
    # direct form still holds.  At x = 1e308, gamma = 2, sigma_plus is about
    # 4.5e-308, positive, so F is defined there, and so is the residual at
    # mu = 2 (gamma = 1 + sqrt(2)), where F is about 3e-308.
    assert big_f(1e150, 1.0) == 1.5
    assert abs(big_f(1e200, 1.0) / big_f(1e150, 1.0) - 1.0) <= 2 * EPS
    assert abs(period(1e150, 1.0) / (math.pi / math.sqrt(2.0)) - 1.0) <= 4 * EPS
    assert abs(period(1e200, 1.0) / period(1e150, 1.0) - 1.0) <= 4 * EPS
    plus = sigma_pair(2.0, 1e308)[0]
    assert abs(plus / 4.5e-308 - 1.0) <= 4 * EPS
    assert big_f(2.0, 1e308) == 0.75 * plus
    assert fixpoint_residual(2.0, 1e308) == -2.0


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
    # The error names the qbar1 the caller passed, NaN included.
    for qbar1 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match=f"finite qbar1 > 0, got qbar1={qbar1!r}"):
            period(1.0, qbar1)


def test_period_rejects_nonfinite_gamma():
    for gamma in (math.nan, math.inf):
        with pytest.raises(DomainError, match=f"finite gamma, got gamma={gamma!r}"):
            period(gamma, 1.0)
    for gamma, qbar1 in ((10**400, 1.0), (1.0, 10**400)):
        with pytest.raises(DomainError, match="beyond the double range"):
            period(gamma, qbar1)


def test_period_rejects_nonpositive_sigma_plus():
    # sigma_plus vanishes at gamma = -1, x >= 2, and underflows to 0 where
    # (gamma + 1)**2 / (gamma**2 qbar1) lies far below the subnormals; the
    # error names sigma_plus, not the moment argument a that such a point
    # would reach.
    for gamma, qbar1 in ((-1.0, 2.0), (-1.0, 3.0), (-1.0 + 2.0**-52, 1e308)):
        message = f"period undefined where sigma_plus <= 0 (gamma={gamma!r})"
        with pytest.raises(DomainError, match=re.escape(message)):
            period(gamma, qbar1)


def test_time_integral_against_time_map_and_mpmath():
    # time_integral runs the float form of the time map (sin p = u,
    # cos(p)**2 = (1 - u)(1 + u)) and returns a Python float.  It agrees
    # with the array form at p = asin(u) and with 40-digit mpmath, from the
    # subnormal range to b = 1e300.
    for b in B_VALUES + (1e300,):
        for u in (0.0, 1e-8, 0.5, 0.99999, 1.0):
            g = time_integral(-b, u)
            assert type(g) is float
            h = float(_time_map(-b, np.array([math.asin(u)]))[0])
            assert abs(g - h) <= 4 * EPS * h, (b, u)
            if u == 0.0:
                assert g == 0.0
            else:
                assert _rel_mp(g, _mp_time_integral(b, u)) <= 32 * EPS, (b, u)


def test_time_integral_endpoints():
    assert time_integral(-1.0, 0.0) == 0.0
    # G(1) is the half period of the normalized motion: I_{1/2}(a) / 2.
    for a in (0.0, -1e-3, -1.0, -250.0):
        g1 = time_integral(a, 1.0)
        assert_allclose(g1, 0.5 * ratio_integrals(a)[0], rtol=1e-11)


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
