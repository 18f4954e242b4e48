"""Tests for the intersection classification against the threshold charge."""

import math

import pytest
from numpy.testing import assert_allclose

from frozenplanet import (
    DomainError,
    IntersectionClass,
    classify,
    classify_kappa,
    critical_gamma,
    critical_mu,
    lemniscate_constant,
    mu_of_gamma,
)

# gamma* = (3 pi - varpi^2) / varpi^2 and mu* = ((gamma* + 1) / gamma*)^2,
# frozen from the current build (agrees with 30-digit evaluation to ~7e-15).
GAMMA_STAR = 0.37083974313338913
MU_STAR = 13.664722944101994


def test_critical_gamma_formula():
    v = lemniscate_constant()
    expected = (3.0 * math.pi - v * v) / (v * v)
    assert_allclose(critical_gamma(), expected, rtol=1e-12)
    assert_allclose(critical_gamma(), GAMMA_STAR, rtol=1e-12)


def test_critical_mu_formula_two_routes():
    v = lemniscate_constant()
    direct = (3.0 * math.pi / (3.0 * math.pi - v * v)) ** 2
    assert_allclose(critical_mu(), direct, rtol=1e-12)
    assert_allclose(critical_mu(), mu_of_gamma(critical_gamma()), rtol=1e-12)
    assert_allclose(critical_mu(), MU_STAR, rtol=1e-12)


def test_critical_mu_near_printed_value():
    # The commonly quoted two-decimal value 13.69 is a rounding artifact;
    # the exact constant is within half a percent of it.
    assert abs(critical_mu() - 13.69) / 13.69 <= 5e-3


def test_classify_kappa_cases():
    assert classify_kappa(-0.5) is IntersectionClass.DISJOINT
    assert classify_kappa(0.5) is IntersectionClass.INTERSECTS
    assert classify_kappa(0.0) is IntersectionClass.TOUCHES
    assert classify_kappa(5e-10) is IntersectionClass.TOUCHES
    assert classify_kappa(-5e-10) is IntersectionClass.TOUCHES
    assert classify_kappa(2e-9) is IntersectionClass.INTERSECTS
    assert classify_kappa(-2e-9) is IntersectionClass.DISJOINT


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_classify_kappa_rejects_non_finite(kappa):
    with pytest.raises(DomainError, match="kappa must be finite"):
        classify_kappa(kappa)


def test_classify_below_threshold():
    assert classify(2.0) is IntersectionClass.DISJOINT


def test_classify_above_threshold():
    assert classify(20.0) is IntersectionClass.INTERSECTS


def test_classify_at_threshold():
    assert classify(critical_mu()) is IntersectionClass.TOUCHES


def test_classify_rejects_unbound_charge():
    with pytest.raises(DomainError):
        classify(1.0)


def test_enum_render_names():
    assert IntersectionClass.DISJOINT.value == "Disjoint"
    assert IntersectionClass.TOUCHES.value == "Touches"
    assert IntersectionClass.INTERSECTS.value == "Intersects"
