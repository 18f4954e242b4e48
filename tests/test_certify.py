"""Tests for the self-certification suites."""

import pytest

import frozenplanet.certify as certify
from frozenplanet.certify import CheckResult, check_trajectory_residuals, run_suite
from frozenplanet.errors import DomainError


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


def test_each_check_names_its_result_after_itself():
    # run_suite names the failed result of a check that raises after the
    # check's function, check_<name> -> <name>, so each check's own result
    # must carry that name too.  The grid runs at a small size here.
    checks = certify._FAST_CHECKS + certify._FULL_CHECKS
    assert len(checks) == 11
    for check in checks:
        if check is certify.check_monotone_unique_grid:
            result = check(n_mu=2, n_grid=50)
        else:
            result = check()
        assert check.__name__ == f"check_{result.name}"


def test_run_suite_reports_a_raising_check_and_runs_the_rest(monkeypatch):
    def check_domain():
        raise DomainError("outside the domain")

    def check_after():
        return CheckResult("after", True, "ran")

    monkeypatch.setattr(certify, "_FAST_CHECKS", (check_domain, check_after))
    assert run_suite("fast") == [
        CheckResult("domain", False, "DomainError: outside the domain"),
        CheckResult("after", True, "ran"),
    ]


def test_run_suite_propagates_other_exceptions(monkeypatch):
    # Only the package's own error types become failed results; anything
    # else is a fault in the check itself and propagates.
    def check_broken():
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(certify, "_FAST_CHECKS", (check_broken,))
    with pytest.raises(ZeroDivisionError):
        run_suite("fast")
