"""Tests for the self-certification suites."""

import pytest

from frozenplanet.certify import CheckResult, check_trajectory_residuals, run_suite


def test_fast_suite_all_pass():
    results = run_suite("fast")
    assert results, "fast suite must not be empty"
    failures = [r for r in results if not r.passed]
    assert not failures, "\n".join(f"{r.name}: {r.detail}" for r in failures)


def test_check_names_unique_and_described():
    results = run_suite("fast")
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.name and r.detail


def test_full_suite_extends_fast():
    # Don't run the heavy grid checks here (the acceptance tests do);
    # just confirm the suite layering.
    import frozenplanet.certify as certify

    assert len(certify._FULL_CHECKS) > 0
    assert set(certify._FAST_CHECKS).isdisjoint(set(certify._FULL_CHECKS))


def test_run_suite_rejects_unknown_level():
    with pytest.raises(ValueError):
        run_suite("paranoid")


def test_trajectory_residuals_reach_top_of_workload_range():
    # The trajectory check also runs at mu = 1e11, the top of the charge
    # range the benchmark's trajectory workload draws from.
    result = check_trajectory_residuals()
    assert result.passed, result.detail
    assert "mu=1e+11:" in result.detail
