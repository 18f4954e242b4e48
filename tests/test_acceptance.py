"""Acceptance gate: the nine primary criteria, one verdict line each.

Run with ``pytest -v`` (the suite prints a ``[ACCEPTANCE n]`` line per
criterion); every criterion also asserts, so a regression fails the suite.
Criteria 1-8 run the certificates of :mod:`frozenplanet.certify` that
state them, here only under their time bounds; criterion 9 is the CLI.
"""

import json
import math
import re
import time

import pytest

from frozenplanet import certify
from frozenplanet.cli import main


@pytest.fixture
def verdict(capsys):
    """One visible PASS/FAIL line per criterion, bypassing output capture."""

    def _verdict(number, name, ok, detail):
        with capsys.disabled():
            print(f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"acceptance {number} — {name}: {detail}"

    return _verdict


@pytest.fixture
def certified(verdict):
    """A criterion met when its certificates all pass within ``seconds``."""

    def _certified(number, name, *checks, seconds=math.inf):
        start = time.perf_counter()
        results = [check() for check in checks]
        elapsed = time.perf_counter() - start
        ok = all(r.passed for r in results) and elapsed < seconds
        details = "; ".join(f"{r.name}: {r.detail}" for r in results)
        verdict(number, name, ok, f"{details}, {elapsed:.3f}s")

    return _certified


def test_acceptance_1_closed_form_anchor(certified):
    certified(1, "closed-form anchor F(-1,0)=8/3", certify.check_anchor_f_value, seconds=0.1)


def test_acceptance_2_lemniscate_two_routes(certified):
    certified(2, "lemniscate constant, two routes", certify.check_lemniscate_routes, seconds=0.1)


def test_acceptance_3_threshold_formula(certified):
    certified(3, "critical charge formula", certify.check_threshold_value)


def test_acceptance_4_touch_point(certified):
    certified(4, "touch-point consistency", certify.check_touch_point, seconds=1.0)


def test_acceptance_5_existence_uniqueness_grid(certified):
    certified(
        5, "25-charge existence/uniqueness grid", certify.check_monotone_unique_grid, seconds=10.0
    )


def test_acceptance_6_classification(certified):
    certified(
        6,
        "classification and threshold flip",
        certify.check_classification_grid,
        certify.check_reference_orbit,
    )


def test_acceptance_7_trajectory_self_consistency(certified):
    certified(7, "trajectory self-consistency", certify.check_trajectory_residuals)


def test_acceptance_8_special_function_identities(certified):
    certified(
        8,
        "gamma/beta identities",
        certify.check_gamma_beta_identities,
        certify.check_quadrature_anchors,
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
