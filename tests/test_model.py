"""Tests for the charge/coupling parameter algebra and turning-point formulas."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from frozenplanet import model
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
    time_integral,
)

EPS = float(np.finfo(float).eps)


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
    # Ints in range, floats and NumPy scalars keep their values and compute
    # as Python floats, in double precision; strings are still refused with
    # TypeError.
    assert gamma_of_mu(4) == gamma_of_mu(4.0) and mu_of_gamma(1) == 4.0
    for narrow in (np.float64(2.0), np.float32(1.7), np.float16(3.3)):
        assert type(gamma_of_mu(narrow)) is float
        assert gamma_of_mu(narrow) == gamma_of_mu(float(narrow))
        assert mu_of_gamma(narrow) == mu_of_gamma(float(narrow))
    for call in (gamma_of_mu, mu_of_gamma):
        with pytest.raises(TypeError):
            call("2")


@pytest.mark.filterwarnings("error")
def test_narrow_float_arguments_compute_in_double():
    # A float32 or float16 argument of the closed-form entries and of the
    # time integral is taken as its value in double precision: each result
    # is the float one at float(value), with no warning, rather than a
    # narrow scalar or a value computed in the narrow type (in float32,
    # time_integral(-0.6, 0.5) came out as 0.38834065198898315, against
    # 0.3883406578927609).  An int beyond the double range is a domain
    # error there, not an OverflowError.
    calls = [
        (sigma_pair, 2.0, 1.5), (sigma_pair, 0.4, 13.7), (q1_extrema, 2.0, 1.5),
        (kappa_of, 2.0, 1.5), (kappa_of, 0.4, 3.3), (qbar2_of, 2.0, 1.5),
        (q1max_of_kappa, -0.5, 2.0, 1.5), (q1max_of_kappa, 0.3, 0.4, 3.3),
        (time_integral, -0.6, 0.5), (time_integral, -6.48, 1.0),
    ]
    for narrow in (np.float32, np.float16):
        for fn, *args in calls:
            for i in range(len(args)):
                narrowed = [narrow(v) if j == i else v for j, v in enumerate(args)]
                value, expected = fn(*narrowed), fn(*[float(v) for v in narrowed])
                assert value == expected, (fn, narrowed)
                values = value if isinstance(value, tuple) else (value,)
                assert all(type(v) is float for v in values), (fn, narrowed, value)
    assert time_integral(np.float32(-0.6), np.float32(0.5)) == time_integral(
        float(np.float32(-0.6)), 0.5
    )
    for fn, *args in calls:
        with pytest.raises(DomainError, match="beyond the double range"):
            fn(10**400, *args[1:])


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


def test_kappa_of_infinite_where_its_denominator_vanishes():
    # gamma**2 * qbar1 underflows to 0 at gamma = 1e-200, and at qbar1 =
    # 1e-320 it is so small that 2 over it overflows: kappa is inf at both,
    # as qbar2_of and mu_of_gamma give inf where their values overflow.
    for gamma, qbar1 in ((1e-200, 1.0), (-1e-200, 1.0), (5e-324, 5e-324), (1.0, 1e-320)):
        assert kappa_of(gamma, qbar1) == math.inf, (gamma, qbar1)
    assert qbar2_of(1e308, 10.0) == math.inf
    assert mu_of_gamma(5e-324) == math.inf


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


def test_sigma_pair_signs_at_every_magnitude():
    # quadrature._shape divides sigma_minus by sigma_plus with no clamp of
    # the quotient to a <= 0: sigma_pair gives sigma_minus <= 0 <=
    # sigma_plus by sign rules alone, at every finite (gamma, x).  Random
    # magnitudes from the subnormals to 1e308 with random signs, and every
    # pair of edge values.  No value is NaN, which has no sign: where
    # gamma**2 x or (gamma + 1)**2 overflows, the scaled form gives the pair.
    rng = np.random.default_rng(29)
    size = 100_000
    values = 10.0 ** rng.uniform(-323.5, 308.2, size=(2, size))
    values *= rng.choice([-1.0, 1.0], size=(2, size))
    cases = list(zip(values[0].tolist(), values[1].tolist()))
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300]
    edges += [1.0, -1.0, 2.0, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]
    cases += [(gamma, x) for gamma in edges for x in edges]
    for gamma, x in cases:
        plus, minus = sigma_pair(gamma, x)
        assert plus >= 0.0 >= minus, (gamma, x, plus, minus)


def test_scaled_sigma_pair_matches_40_digits_at_every_magnitude():
    # The scaled form that sigma_pair takes where its direct form overflows
    # gives both roots of the quadratic, rounded to doubles, within 8 units
    # of rounding of a 40-digit evaluation wherever the root is a normal
    # double, inf beyond the double range and 0 or a subnormal within two
    # subnormal steps below it.
    rng = np.random.default_rng(30)
    size = 4000
    values = 10.0 ** rng.uniform(-323.5, 308.2, size=(2, size))
    values *= rng.choice([-1.0, 1.0], size=(2, size))
    for gamma, x in zip(values[0].tolist(), values[1].tolist()):
        with mpmath.workdps(40):
            s = 2 - mpmath.mpf(gamma) ** 2 * x
            u = 2 * (mpmath.mpf(gamma) + 1)
            root = s + mpmath.sign(s) * mpmath.sqrt(s * s + u * u)
            exact = (root, -u * u / root) if s >= 0 else (-u * u / root, root)
        for value, reference in zip(model._scaled_pair(gamma, x), exact):
            ref = float(reference)
            if math.isinf(ref) or abs(ref) < 2.2250738585072014e-308:
                assert abs(value - ref) <= 1e-323 or value == ref, (gamma, x, value, ref)
            else:
                assert abs(value - ref) <= 8 * EPS * abs(ref), (gamma, x, value, ref)


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
