"""Tests for the turning-point quadratures I_k(a), the ratio map, and the period.

Oracles used here, in decreasing order of independence:

* closed Beta-function forms at a = -1 and elementary values at a = 0,
  evaluated with ``math.gamma`` (the package ships its own gamma);
* Gauss-Jacobi quadrature with the (1-r)^(-1/2) endpoint weight built in,
  applied to the raw integrand r^k / sqrt(r - a) with no substitution at all;
* a midpoint rule with 10^6 panels on the desingularized angle form
  (same substitution as the implementation, different quadrature rule).
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi, roots_legendre

from frozenplanet import (
    ConvergenceError,
    DomainError,
    QuadratureConfig,
    big_f,
    lemniscate_constant,
    period,
    ratio_integrals,
    time_integral,
)
from frozenplanet import _gauss

# Frozen regression values (current double-precision build; independently
# cross-checked against 30-digit arbitrary-precision evaluations).
I_HALF_AT_MINUS_ONE = 1.1981402347355912
I_THREE_HALF_AT_MINUS_ONE = 0.8740191847640437
RATIO_AT_MINUS_1E6 = 0.7499999687500214
BIG_F_AT_1_2 = 2.9179194869686507


def _jacobi_oracle(a, k, n_nodes=400):
    """I_k(a) by Gauss-Jacobi with weight r^k (1-r)^(-1/2) built into the
    nodes; the leftover factor 1/sqrt(r - a) is analytic on [0, 1] for a < 0.
    No substitution is involved."""
    x, w = roots_jacobi(n_nodes, -0.5, k)
    r = 0.5 * (x + 1.0)
    return float(w @ (1.0 / np.sqrt(r - a))) * 2.0 ** -(k + 0.5)


def test_config_validation():
    QuadratureConfig()  # defaults are legal
    with pytest.raises(DomainError):
        QuadratureConfig(base_nodes=1)
    with pytest.raises(DomainError):
        QuadratureConfig(max_doublings=0)
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=1e-15)
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=1e-5)
    # --quad-nodes 128 with six doublings reaches 128 * 2**6 = 8192 nodes,
    # and a generous doubling budget is legal as long as it is not used up.
    assert _gauss.MAX_NODES >= 8192
    QuadratureConfig(base_nodes=_gauss.MAX_NODES)
    QuadratureConfig(base_nodes=128, max_doublings=6)
    r = ratio_integrals(-1.0, QuadratureConfig(max_doublings=40))
    assert r.i_half == ratio_integrals(-1.0).i_half
    with pytest.raises(DomainError):
        QuadratureConfig(base_nodes=_gauss.MAX_NODES + 1)


def test_converge_levels_stops_at_node_bound(monkeypatch):
    # a = -1e-6 needs five levels from 64 nodes; with the bound lowered to
    # 256 the fourth level is refused before it is built.
    monkeypatch.setattr(_gauss, "MAX_NODES", 256)
    monkeypatch.setattr(_gauss, "_CACHE", {})
    with pytest.raises(ConvergenceError, match="MAX_NODES=256"):
        ratio_integrals(-1e-6)
    assert max(n * 2 ** (levels - 1) for n, levels in _gauss._CACHE) == 256
    with pytest.raises(ConvergenceError, match="MAX_NODES=256"):
        _gauss.converge_levels(lambda table: [0.0], 512, 6, 1e-12)


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


def test_ratio_integrals_nonconvergence():
    # One doubling can never produce two consecutive agreements.
    cfg = QuadratureConfig(base_nodes=2, max_doublings=1, rel_tol=1e-12)
    with pytest.raises(ConvergenceError):
        ratio_integrals(-1.0, cfg)


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


def _one_level_at_a_time(a, config):
    """Reference node-doubling loop: one Gauss level per step, built here.

    Returns the accepted (I_1/2, I_3/2) or None where the rule never
    accepts.
    """

    def estimate(n):
        x, w = roots_legendre(n)
        s2 = np.sin(0.25 * math.pi * (x + 1.0)) ** 2
        f = 1.0 / np.sqrt(s2 - a)
        return [0.5 * math.pi * float((w * s2) @ f), 0.5 * math.pi * float((w * s2 * s2) @ f)]

    n = config.base_nodes
    prev = estimate(n)
    agreed_once = False
    for _ in range(config.max_doublings):
        n *= 2
        curr = estimate(n)
        agreed = all(
            abs(c - p) <= config.rel_tol * max(abs(c), 1e-300) for c, p in zip(curr, prev)
        )
        if agreed and agreed_once:
            return curr
        agreed_once = agreed
        prev = curr
    return None


def test_stacked_levels_match_one_level_at_a_time():
    # Summing the leading levels in one product changes only the rounding,
    # never which level is accepted; a = -1e-6 needs five levels.
    rtol = 64 * np.finfo(float).eps
    configs = (
        QuadratureConfig(),
        QuadratureConfig(base_nodes=96, max_doublings=2),
        QuadratureConfig(base_nodes=2, max_doublings=1),
        QuadratureConfig(base_nodes=8, max_doublings=3),
    )
    for cfg in configs:
        for a in (0.0, -1e-6, -1.0, -1e8):
            ref = _one_level_at_a_time(a, cfg)
            if ref is None:
                with pytest.raises(ConvergenceError):
                    ratio_integrals(a, cfg)
            else:
                r = ratio_integrals(a, cfg)
                assert_allclose([r.i_half, r.i_three_half], ref, rtol=rtol, atol=0.0)


# Every Gauss-Legendre level the default and test configs reach, up to 4096
# nodes (base counts 2, 8, 32, 64, 96 and 128), plus a few odd counts.
_NODE_COUNTS = sorted(
    {n * 2**k for n in (2, 8, 32, 64, 96, 128) for k in range(7) if n * 2**k <= 4096}
    | {3, 5, 65}
)


def test_gauss_legendre_against_scipy():
    eps = np.finfo(float).eps
    for n in _NODE_COUNTS:
        x, w = _gauss._gauss_legendre(n)
        x_ref, _ = roots_legendre(n)
        assert np.max(np.abs(x - x_ref)) <= 4 * eps, n
        assert abs(w.sum() - 2.0) <= 8 * eps, n
        # The n-point rule integrates x**(2k) exactly for 2k < 2n.
        for k in range(1, min(n, 10)):
            exact = 2.0 / (2 * k + 1)
            assert abs(w @ x ** (2 * k) - exact) <= 64 * eps * exact, (n, k)


def test_quadrature_thread_safety():
    # Concurrent evaluations share the cached node tables.
    cfg = QuadratureConfig(base_nodes=96, max_doublings=4, rel_tol=1e-12)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: ratio_integrals(-3.0, cfg), range(32)))
    assert all(r == results[0] for r in results)
