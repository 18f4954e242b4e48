"""Acceptance gate: the nine primary criteria, one verdict line each.

Run with ``pytest -v`` (the suite prints a ``[ACCEPTANCE n]`` line per
criterion); every criterion also asserts, so a regression fails the suite.
"""

import json
import math
import re
import time

import pytest

from frozenplanet import (
    beta_fn,
    big_f,
    classify,
    critical_gamma,
    critical_mu,
    gamma_fn,
    lemniscate_constant,
    mu_of_gamma,
    ratio_integrals,
    solve_orbit,
    IntersectionClass,
)
from frozenplanet.certify import (
    check_classification_grid,
    check_monotone_unique_grid,
    check_trajectory_residuals,
)
from frozenplanet.cli import main
from frozenplanet.specialfn import _varpi_gamma, _varpi_integral


@pytest.fixture
def verdict(capsys):
    """One visible PASS/FAIL line per criterion, bypassing output capture."""

    def _verdict(number, name, ok, detail):
        with capsys.disabled():
            print(f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"acceptance {number} — {name}: {detail}"

    return _verdict


def test_acceptance_1_closed_form_anchor(verdict):
    start = time.perf_counter()
    value = big_f(-1.0, 0.0)
    elapsed = time.perf_counter() - start
    defect = abs(value - 8.0 / 3.0)
    ok = defect <= 1e-10 and elapsed < 0.1
    verdict(1, "closed-form anchor F(-1,0)=8/3", ok, f"|defect|={defect:.2e}, {elapsed:.3f}s")


def test_acceptance_2_lemniscate_two_routes(verdict):
    start = time.perf_counter()
    v_int = _varpi_integral()
    v_gam = _varpi_gamma()
    elapsed = time.perf_counter() - start
    rel = abs(v_int - v_gam) / abs(v_gam)
    near_printed = abs(lemniscate_constant() - 2.62) <= 0.01
    ok = rel <= 1e-10 and near_printed and elapsed < 0.1
    verdict(
        2,
        "lemniscate constant, two routes",
        ok,
        f"routes rel diff={rel:.2e}, value={lemniscate_constant():.6f}, {elapsed:.3f}s",
    )


def test_acceptance_3_threshold_formula(verdict):
    v = lemniscate_constant()
    direct = (3.0 * math.pi / (3.0 * math.pi - v * v)) ** 2
    via_gamma = mu_of_gamma(critical_gamma())
    rel_direct = abs(critical_mu() - direct) / direct
    rel_route = abs(critical_mu() - via_gamma) / via_gamma
    band = abs(critical_mu() - 13.69) / 13.69
    ok = rel_direct <= 1e-12 and rel_route <= 1e-12 and band <= 5e-3
    verdict(
        3,
        "critical charge formula",
        ok,
        f"mu*={critical_mu():.12f}, formula rel={rel_direct:.2e}, "
        f"route rel={rel_route:.2e}, offset from 13.69={band:.2%}",
    )


def test_acceptance_4_touch_point(verdict):
    start = time.perf_counter()
    sol = solve_orbit(critical_mu())
    elapsed = time.perf_counter() - start
    target = 2.0 / critical_gamma() ** 2
    rel_qbar1 = abs(sol.qbar1 - target) / target
    ok = rel_qbar1 <= 1e-8 and abs(sol.kappa) <= 1e-8 and elapsed < 1.0
    verdict(
        4,
        "touch-point consistency",
        ok,
        f"qbar1 rel={rel_qbar1:.2e}, |kappa|={abs(sol.kappa):.2e}, {elapsed:.3f}s",
    )


def test_acceptance_5_existence_uniqueness_grid(verdict):
    start = time.perf_counter()
    result = check_monotone_unique_grid()
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 10.0
    verdict(5, "25-charge existence/uniqueness grid", ok, f"{result.detail}, {elapsed:.2f}s")


def test_acceptance_6_classification(verdict):
    helium_disjoint = classify(2.0) is IntersectionClass.DISJOINT
    result = check_classification_grid()
    ok = helium_disjoint and result.passed
    verdict(
        6,
        "classification and threshold flip",
        ok,
        f"classify(2)={classify(2.0).value}, {result.detail}",
    )


def test_acceptance_7_trajectory_self_consistency(verdict):
    result = check_trajectory_residuals()
    verdict(7, "trajectory self-consistency", result.passed, result.detail)


def test_acceptance_8_special_function_identities(verdict):
    dup = abs(gamma_fn(0.75) * gamma_fn(1.25) - math.pi / (2.0 * math.sqrt(2.0)))
    i_half, i_three_half = ratio_integrals(-1.0)
    d_half = abs(i_half - 0.5 * beta_fn(0.75, 0.5))
    d_three = abs(i_three_half - 0.5 * beta_fn(1.25, 0.5))
    ok = dup <= 1e-12 and d_half <= 1e-10 and d_three <= 1e-10
    verdict(
        8,
        "gamma/beta identities",
        ok,
        f"duplication={dup:.2e}, I_half defect={d_half:.2e}, I_3half defect={d_three:.2e}",
    )


def test_acceptance_9_cli_determinism(verdict, capsys):
    wall = re.compile(r'"wall_time": [^,}\n]+')
    argv = ["solve", "--mu", "2", "--samples", "64"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    out2 = capsys.readouterr().out
    identical = wall.sub("", out1) == wall.sub("", out2)
    # Guard against comparing two identically broken payloads.
    parses = json.loads(out1)["solution"]["mu"] == 2.0

    assert main(["scan", "--mu-min", "2", "--mu-max", "4", "--steps", "2"]) == 0
    captured = capsys.readouterr()
    header_ok = (
        captured.out.splitlines()[0]
        == "mu,gamma,qbar1,qbar2,kappa,q1max,q1antimax,eta,class"
    )
    ok = identical and parses and header_ok
    verdict(
        9,
        "CLI determinism and scan schema",
        ok,
        f"byte-identical={identical}, payload parses={parses}, schema ok={header_ok}",
    )
