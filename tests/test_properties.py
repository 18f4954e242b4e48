"""Property tests of the moment integrals and the solver (Hypothesis).

Examples are derandomized and bounded, so every run checks the same inputs
in a fixed, short time.  ``b = -a`` and ``mu - 1`` are drawn log-uniformly.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frozenplanet import (
    big_f,
    critical_mu,
    ratio_integrals,
    solve_orbit,
    time_integral,
)

EPS = float(np.finfo(float).eps)
# Each moment is within a few units of rounding of its exact value, so two
# evaluations can invert the true order by at most this relative amount.
ROUNDING = 4 * EPS

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)
SOLVER = settings(derandomize=True, database=None, deadline=None, max_examples=40)

log_b = st.floats(min_value=-300.0, max_value=25.0)


@PROPERTY
@given(log_b)
def test_moments_positive_and_ordered(u):
    i_half, i_three_half = ratio_integrals(-(10.0**u))
    assert 0.0 < i_three_half < i_half


@PROPERTY
@given(log_b, log_b)
def test_moments_non_increasing_in_b(u, v):
    lo, hi = sorted((10.0**u, 10.0**v))
    half_lo, three_half_lo = ratio_integrals(-lo)
    half_hi, three_half_hi = ratio_integrals(-hi)
    assert half_hi <= half_lo * (1.0 + ROUNDING)
    assert three_half_hi <= three_half_lo * (1.0 + ROUNDING)


@PROPERTY
@given(log_b)
def test_full_time_map_is_half_the_moment(u):
    a = -(10.0**u)
    expected = 0.5 * ratio_integrals(a)[0]
    assert abs(time_integral(a, 1.0) - expected) <= 8 * EPS * expected


@SOLVER
@given(st.floats(min_value=-12.0, max_value=11.0))
def test_solver_residual_and_kappa_sign(u):
    mu = 1.0 + 10.0**u
    sol = solve_orbit(mu)
    assert abs(big_f(sol.gamma, sol.qbar1) - 2.0) <= 1e-10
    mu_star = critical_mu()
    if mu < mu_star * (1.0 - 1e-6):
        assert sol.kappa < 0.0
    elif mu > mu_star * (1.0 + 1e-6):
        assert sol.kappa > 0.0
    assert math.isfinite(sol.eta) and sol.eta > 0.0
