"""Tests for the special functions (gamma, beta, Carlson R_F/R_D, lemniscate constant).

``gamma_fn`` is ``math.gamma`` behind a domain check, so Gamma is checked
against 40-digit ``mpmath``.  Other expected values come from closed forms,
from SciPy's ``elliprf``/``elliprd`` and from a 30-digit arbitrary-precision
evaluation of the defining integrals, frozen below.
"""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import elliprd, elliprf

from frozenplanet import (
    ConvergenceError,
    DomainError,
    beta_fn,
    gamma_fn,
    lemniscate_constant,
)
from frozenplanet.specialfn import _varpi_gamma, _varpi_integral, carlson_rf_rd

# 2.62205755429211981046... frozen from mpmath.
VARPI_REF = 2.6220575542921198
EPS = float(np.finfo(float).eps)


def test_gamma_half_is_sqrt_pi():
    assert_allclose(gamma_fn(0.5), math.sqrt(math.pi), rtol=1e-14)


def test_gamma_one_is_one():
    assert_allclose(gamma_fn(1.0), 1.0, rtol=1e-14)


def test_gamma_recurrence_at_7_4():
    assert_allclose(gamma_fn(7 / 4), 0.75 * gamma_fn(0.75), rtol=1e-14)


def _gamma_error(x):
    """|gamma_fn(x) / Gamma(x) - 1| in units of eps, Gamma at 40 digits."""
    with mpmath.workdps(40):
        ref = mpmath.gamma(mpmath.mpf(x))
        return float(abs(mpmath.mpf(gamma_fn(x)) - ref) / ref) / EPS


def test_gamma_against_mpmath():
    # Quarter-integers up to 4, where the lemniscatic constant and the Beta
    # reductions of the moments take Gamma; then x from 1e-300 up to 171,
    # where Gamma(171) = 7.257e306 is still below the largest double.
    for x in np.arange(1, 17) / 4.0:
        assert _gamma_error(float(x)) <= 4.0, x
    xs = np.concatenate((np.geomspace(1e-300, 1.0, 60), np.linspace(0.01, 171.0, 300)))
    for x in xs:
        assert _gamma_error(float(x)) <= 8.0, x
    assert type(gamma_fn(171.0)) is float


def test_gamma_recurrence_random():
    rng = np.random.default_rng(20260815)
    for x in rng.uniform(0.25, 4.0, size=100):
        assert_allclose(gamma_fn(x + 1.0), x * gamma_fn(x), rtol=1e-12)


def test_gamma_duplication_identity():
    # Gamma(3/4) * Gamma(5/4) = pi / (2 sqrt(2))
    lhs = gamma_fn(0.75) * gamma_fn(1.25)
    assert abs(lhs - math.pi / (2.0 * math.sqrt(2.0))) <= 1e-12


def test_gamma_rejects_nonpositive():
    for x in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            gamma_fn(x)


def test_gamma_rejects_nonfinite_and_overflow():
    # NaN and inf are outside the domain; Gamma overflows a double above
    # x = 171.62 and below x = 5.6e-309.
    for x in (math.nan, math.inf, 171.7, 1e10, 5e-309, 5e-324):
        with pytest.raises(DomainError):
            gamma_fn(x)


def test_beta_one_one():
    assert_allclose(beta_fn(1.0, 1.0), 1.0, rtol=1e-14)


def test_beta_symmetry():
    rng = np.random.default_rng(7)
    for a, b in rng.uniform(0.3, 3.0, size=(50, 2)):
        assert_allclose(beta_fn(a, b), beta_fn(b, a), rtol=1e-13)


def test_beta_against_stdlib_gamma():
    a, b = 1.25, 0.5
    ref = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    assert_allclose(beta_fn(a, b), ref, rtol=1e-13)


def test_beta_rejects_nonpositive():
    with pytest.raises(DomainError):
        beta_fn(0.0, 1.0)
    with pytest.raises(DomainError):
        beta_fn(1.0, -2.0)


def test_beta_rejects_nonfinite_and_overflow():
    # Gamma(a + b) overflows at a + b = 200.5 even though B(200, 1/2) is finite.
    for a, b in ((math.inf, 1.0), (1.0, math.nan), (math.nan, math.nan), (200.0, 0.5)):
        with pytest.raises(DomainError):
            beta_fn(a, b)
    # B(1e-308, 1e-308) is about 2e308, past the largest double.
    with pytest.raises(DomainError, match="overflows"):
        beta_fn(1e-308, 1e-308)


def test_beta_finite_where_gamma_product_overflows():
    # Gamma(1e-300) * Gamma(171) is about 7e606, but B(1e-300, 171) is
    # about 1e300: dividing before the product keeps it finite.  Gamma(6e-309)
    # / Gamma(1.5) overflows, but B(6e-309, 1.5) is about 1.67e308: there the
    # smaller Gamma value is divided instead.
    for pair in ((1e-300, 171.0), (6e-309, 1.5)):
        with mpmath.workdps(30):
            expected = float(mpmath.beta(mpmath.mpf(pair[0]), mpmath.mpf(pair[1])))
        for a, b in (pair, pair[::-1]):
            assert_allclose(beta_fn(a, b), expected, rtol=1e-14)


def _assert_carlson_matches_scipy(x, y, z):
    rf, rd = carlson_rf_rd(x, y, z)
    eps = np.finfo(float).eps
    assert_allclose(rf, elliprf(x, y, z), rtol=8 * eps, atol=0.0)
    assert_allclose(rd, elliprd(x, y, z), rtol=8 * eps, atol=0.0)


def test_carlson_random_triples_against_scipy():
    # Arguments spread over 25 decades; a quarter of the triples have x = 0.
    rng = np.random.default_rng(19)
    x, y, z = 10.0 ** rng.uniform(-20.0, 5.0, size=(3, 2000))
    x[:500] = 0.0
    _assert_carlson_matches_scipy(x, y, z)


def test_carlson_at_the_arguments_of_the_moments_and_time_map():
    # Moments: (0, 1 + b, b) for 0 < b < 4, down to b = 1e-300, where
    # R_F(0, 1, b) needs every duplication step.
    b = np.geomspace(1e-300, 4.0, 400)
    _assert_carlson_matches_scipy(np.zeros_like(b), 1.0 + b, b)
    # Time map: (cos^2 p, 1, m (cos^2 p + b)) with m = 1 / (1 + b), for p in
    # [0, pi/2] (p = pi/2 included) and b from 1e-300 to 1e25.
    p = np.linspace(0.0, 0.5 * math.pi, 65)
    for b in 10.0 ** np.arange(-300.0, 26.0, 5.0):
        cc = np.cos(p) ** 2
        _assert_carlson_matches_scipy(cc, np.ones_like(p), (cc + b) / (1.0 + b))


def test_carlson_scalar_and_array_agree():
    # Python floats in, Python floats out; an array holds the same values.
    triples = [(0.0, 1.0, 2.0), (0.5, 2.0, 3e-7), (1e-12, 4.0, 1.0)]
    arrays = carlson_rf_rd(*(np.array(col) for col in zip(*triples)))
    scalars = [carlson_rf_rd(*triple) for triple in triples]
    assert all(type(v) is float for pair in scalars for v in pair)
    # ``** 0.5`` is libm's pow on a float and sqrt on an array.
    assert_allclose(np.array(scalars).T, arrays, rtol=4 * np.finfo(float).eps)
    assert carlson_rf_rd(1.0, 1.0, 1.0) == (1.0, 1.0)


def test_lemniscate_value():
    assert_allclose(lemniscate_constant(), VARPI_REF, rtol=1e-12)


def test_lemniscate_returns_the_closer_route():
    # VARPI_REF is the correctly rounded double.  The arc-length route lands
    # one double above it (0.57 units of rounding from the true value), the
    # Gamma route two doubles above it.
    v = lemniscate_constant()
    assert v == _varpi_integral()
    assert abs(v - VARPI_REF) <= math.ulp(VARPI_REF)
    assert abs(v - VARPI_REF) <= abs(_varpi_gamma() - VARPI_REF)


def test_lemniscate_routes_agree():
    v_int = _varpi_integral()
    v_gam = _varpi_gamma()
    assert abs(v_int - v_gam) <= 1e-10 * abs(v_gam)
    assert_allclose(v_int, VARPI_REF, rtol=1e-10)
    assert_allclose(v_gam, VARPI_REF, rtol=1e-12)


def test_lemniscate_routes_disagreeing_raise_convergence_error(broken_varpi):
    with pytest.raises(ConvergenceError, match="routes disagree"):
        lemniscate_constant()


def test_lemniscate_beta_form():
    assert_allclose(lemniscate_constant(), 0.5 * beta_fn(0.25, 0.5), rtol=1e-13)


def test_lemniscate_adaptive_quadrature_oracle():
    # Independent oracle: adaptive quadrature on the desingularized integrand.
    def integrand(u):
        r = 1.0 - u * u
        return 4.0 / math.sqrt((2.0 - u * u) * (1.0 + r * r))

    ref, err = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    assert_allclose(lemniscate_constant(), ref, rtol=1e-10)


def test_varpi_squared_over_three_pi_in_unit_interval():
    ratio = lemniscate_constant() ** 2 / (3.0 * math.pi)
    assert 0.0 < ratio < 1.0
    assert_allclose(ratio, 0.7294798717421598, rtol=1e-12)

