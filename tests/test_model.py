"""Tests for the charge/coupling parameter algebra and turning-point formulas."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frozenplanet import (
    DomainError,
    classify,
    fixpoint_residual,
    gamma_of_mu,
    kappa_of,
    mu_of_gamma,
    q1_extrema,
    q1max_of_kappa,
    qbar2_of,
    sigma_pair,
    solve_orbit,
)


def test_gamma_of_mu_at_four():
    # mu = 4: gamma = (1 + 2) / 3 = 1 exactly.
    assert gamma_of_mu(4.0) == pytest.approx(1.0, abs=1e-15)


def test_gamma_of_mu_at_two():
    assert_allclose(gamma_of_mu(2.0), 1.0 + math.sqrt(2.0), rtol=1e-15)


def test_gamma_of_mu_rejects_unbound_charge():
    for mu in (1.0, 0.5, -3.0):
        with pytest.raises(DomainError, match="ioniz"):
            gamma_of_mu(mu)


def test_gamma_of_mu_rejects_non_finite_charge():
    for mu in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            gamma_of_mu(mu)


def test_mu_of_gamma_at_one():
    assert mu_of_gamma(1.0) == pytest.approx(4.0, abs=1e-15)


def test_mu_of_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        mu_of_gamma(0.0)
    with pytest.raises(DomainError):
        mu_of_gamma(-1.0)


def test_mu_of_gamma_rejects_nonfinite():
    for gamma in (math.nan, math.inf):
        with pytest.raises(DomainError):
            mu_of_gamma(gamma)


def test_values_beyond_double_range_raise_domain_error():
    # An int too large for a double is a domain error in both maps and in
    # everything that starts from gamma_of_mu, not an OverflowError.
    for call in (
        gamma_of_mu,
        mu_of_gamma,
        solve_orbit,
        classify,
        lambda mu: fixpoint_residual(mu, 1.0),
    ):
        for big in (10**400, -(10**400)):
            with pytest.raises(DomainError, match="beyond the double range"):
                call(big)
    # Ints in range, floats and NumPy scalars keep their values and types;
    # strings are still refused with TypeError.
    assert gamma_of_mu(4) == gamma_of_mu(4.0) and mu_of_gamma(1) == 4.0
    assert type(gamma_of_mu(np.float64(2.0))) is np.float64
    assert gamma_of_mu(np.float64(2.0)) == gamma_of_mu(2.0)
    for call in (gamma_of_mu, mu_of_gamma):
        with pytest.raises(TypeError):
            call("2")


def test_mu_gamma_roundtrip_on_log_grid():
    mus = np.geomspace(1.001, 1e3, 200)
    for mu in mus:
        g = gamma_of_mu(mu)
        assert_allclose(mu_of_gamma(g), mu, rtol=1e-11)
        # sqrt(mu) * gamma = gamma + 1 is the defining relation.
        assert_allclose(math.sqrt(mu) * g, g + 1.0, rtol=1e-12)


def test_gamma_decreases_with_mu():
    mus = np.geomspace(1.01, 100.0, 50)
    gs = np.array([gamma_of_mu(m) for m in mus])
    assert np.all(np.diff(gs) < 0.0)


def test_qbar2_of():
    assert_allclose(qbar2_of(1.0 + math.sqrt(2.0), 1.0), 2.0 + math.sqrt(2.0), rtol=1e-15)
    with pytest.raises(DomainError):
        qbar2_of(1.0, 0.0)


def test_qbar2_of_rejects_nonfinite_qbar1():
    for qbar1 in (math.nan, math.inf):
        with pytest.raises(DomainError):
            qbar2_of(1.0, qbar1)


def test_kappa_of_examples():
    # kappa = 2 / (gamma^2 qbar1) - 1; at gamma = 1, qbar1 = 2 it vanishes.
    assert kappa_of(1.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert kappa_of(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        kappa_of(0.0, 1.0)
    with pytest.raises(DomainError):
        kappa_of(1.0, -1.0)


def test_kappa_of_rejects_nonfinite():
    for gamma, qbar1 in ((1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(DomainError):
            kappa_of(gamma, qbar1)


def test_sigma_pair_product_identity():
    # sigma_plus * sigma_minus = -4 (gamma + 1)^2 exactly, by construction.
    rng = np.random.default_rng(101)
    for _ in range(100):
        gamma = rng.uniform(-2.0, 5.0)
        x = rng.uniform(0.0, 10.0)
        pair = sigma_pair(gamma, x)
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(v) is float for v in pair)
        plus, minus = pair
        target = -4.0 * (gamma + 1.0) ** 2
        assert_allclose(plus * minus, target, rtol=1e-13)
        assert plus >= 0.0 >= minus


def test_sigma_pair_at_anchor():
    # gamma = -1: discriminant collapses, sigma = 2 - gamma^2 x +- |2 - gamma^2 x|.
    plus, minus = sigma_pair(-1.0, 0.0)
    assert plus == pytest.approx(4.0, abs=1e-15)
    assert minus == pytest.approx(0.0, abs=1e-15)


def test_q1_extrema_factorization():
    # (q1max - q)(q - q1antimax) must reproduce the defining quadratic.
    rng = np.random.default_rng(42)
    for _ in range(20):
        gamma = rng.uniform(0.1, 3.0)
        qbar1 = rng.uniform(0.2, 5.0)
        q = rng.uniform(0.0, 8.0)
        q1max, q1anti = q1_extrema(gamma, qbar1)
        lhs = (q1max - q) * (q - q1anti)
        rhs = (
            2.0 * qbar1 * q
            - gamma * gamma * qbar1 * qbar1 * q
            + (gamma + 1.0) ** 2 * qbar1 * qbar1
            - q * q
        )
        scale = (gamma + 1.0) ** 2 * qbar1 * qbar1 + q * q + 1.0
        assert abs(lhs - rhs) <= 1e-11 * scale


def test_q1_extrema_ordering():
    # For gamma > -1 the roots straddle zero (their product is negative);
    # q1max > qbar1 additionally holds on solved orbits, where qbar1 really
    # is the mean, but not for arbitrary parameter pairs like these.
    rng = np.random.default_rng(9)
    for _ in range(50):
        gamma = rng.uniform(0.05, 4.0)
        qbar1 = rng.uniform(0.05, 10.0)
        q1max, q1anti = q1_extrema(gamma, qbar1)
        assert q1anti < 0.0 < q1max


def test_q1max_of_kappa_matches_extrema():
    rng = np.random.default_rng(77)
    for _ in range(50):
        gamma = rng.uniform(0.1, 3.0)
        qbar1 = rng.uniform(0.1, 5.0)
        q1max, _ = q1_extrema(gamma, qbar1)
        kappa = kappa_of(gamma, qbar1)
        assert_allclose(q1max_of_kappa(kappa, gamma, qbar1), q1max, rtol=1e-12)


def test_q1max_sign_of_kappa_vs_qbar2():
    # sign(q1max - qbar2) = sign(kappa): the crossing criterion.
    rng = np.random.default_rng(314)
    for _ in range(100):
        gamma = rng.uniform(0.05, 3.0)
        qbar1 = rng.uniform(0.1, 10.0)
        kappa = rng.uniform(-0.9, 2.0)
        if abs(kappa) < 1e-6:
            continue
        q1max = q1max_of_kappa(kappa, gamma, qbar1)
        assert math.copysign(1.0, q1max - qbar2_of(gamma, qbar1)) == math.copysign(1.0, kappa)


def test_q1max_of_kappa_zero_touches_qbar2():
    g, qb = 0.7, 1.3
    assert_allclose(q1max_of_kappa(0.0, g, qb), qbar2_of(g, qb), rtol=1e-14)


def test_q1_extrema_rejects_nonfinite_qbar1():
    for qbar1 in (math.nan, math.inf):
        with pytest.raises(DomainError):
            q1_extrema(1.0, qbar1)


def test_q1max_of_kappa_rejects_nonfinite_qbar1():
    for qbar1 in (math.nan, math.inf):
        with pytest.raises(DomainError):
            q1max_of_kappa(0.5, 1.0, qbar1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_helpers_reject_nonfinite_gamma_and_kappa(bad):
    # Each error names the argument, as kappa_of and period do.
    with pytest.raises(DomainError, match=f"qbar2_of requires a finite gamma, got {bad!r}"):
        qbar2_of(bad, 1.0)
    with pytest.raises(DomainError, match=f"q1_extrema requires a finite gamma, got {bad!r}"):
        q1_extrema(bad, 1.0)
    with pytest.raises(DomainError, match=f"q1max_of_kappa requires a finite gamma, got {bad!r}"):
        q1max_of_kappa(0.5, bad, 1.0)
    with pytest.raises(DomainError, match=f"q1max_of_kappa requires a finite kappa, got {bad!r}"):
        q1max_of_kappa(bad, 1.0, 1.0)
