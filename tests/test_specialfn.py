"""Tests for the scalar special functions (gamma, beta, lemniscate constant).

Expected values come from closed forms evaluated with ``math.gamma`` (which
the package deliberately does not use internally) and from a 30-digit
arbitrary-precision evaluation of the defining integrals, frozen below.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from frozenplanet import (
    ConvergenceError,
    DomainError,
    beta_fn,
    constants,
    gamma_fn,
    lemniscate_constant,
)
from frozenplanet.specialfn import _varpi_gamma, _varpi_integral

# 2.62205755429211981046... frozen from mpmath.
VARPI_REF = 2.6220575542921198


def test_gamma_half_is_sqrt_pi():
    assert_allclose(gamma_fn(0.5), math.sqrt(math.pi), rtol=1e-14)


def test_gamma_one_is_one():
    assert_allclose(gamma_fn(1.0), 1.0, rtol=1e-14)


def test_gamma_recurrence_at_7_4():
    assert_allclose(gamma_fn(7 / 4), 0.75 * gamma_fn(0.75), rtol=1e-14)


def test_gamma_matches_stdlib_on_unit_window():
    xs = np.linspace(0.25, 2.0, 801)
    ours = np.array([gamma_fn(x) for x in xs])
    ref = np.array([math.gamma(x) for x in xs])
    assert_allclose(ours, ref, rtol=1e-13)


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


def test_lemniscate_value():
    assert_allclose(lemniscate_constant(), VARPI_REF, rtol=1e-12)


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


def test_constants_bundle():
    c = constants()
    assert c.pi == math.pi
    assert c.varpi == lemniscate_constant()
    with pytest.raises(AttributeError):
        c.varpi = 1.0  # frozen
