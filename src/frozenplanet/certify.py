"""Self-certification suites behind ``frozen-planet verify`` and the tests.

Each check re-derives a property the rest of the package relies on (closed
form anchors, identity cross-checks, monotonicity and uniqueness grids,
trajectory residuals) and reports a pass/fail verdict with a one-line
numeric summary.  The ``fast`` suite is identity- and anchor-based; the
``full`` suite adds the grid certificates and trajectory residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import specialfn
from .errors import ConvergenceError, DomainError
from .intersect import (
    _TOUCH_TOL,
    IntersectionClass,
    classify,
    classify_kappa,
    critical_gamma,
    critical_mu,
)
from .model import gamma_of_mu, mu_of_gamma
from .orbit import Trajectory, energy_residual, mean_residual, reconstruct
from .quadrature import big_f, ratio_integrals, time_integral
from .solver import solve_orbit
from .specialfn import beta_fn, gamma_fn, lemniscate_constant

# Reference values, frozen from a 30-digit arbitrary-precision evaluation
# of the defining formulas (two independent routes each).
_VARPI_REF = 2.6220575542921198
_GAMMA_STAR_REF = 0.3708397431333909
_MU_STAR_REF = 13.664722944101899
_MU_STAR_PRINTED = 13.69
_QBAR1_MU2_REF = 1.6041328017664948
_ETA_MU2_REF = 4.695443068509868
_ETA_TOUCH_REF = 40.802656956606687
# Charges the classification grid checks, from 1.02 to 40.
_CLASSIFICATION_CHARGES = 50
# Sample count of the rebuilds whose residuals are checked.
_TRAJECTORY_SAMPLES = 1024


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one certification check."""

    name: str
    passed: bool
    detail: str


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-14)


def check_anchor_f_value() -> CheckResult:
    """F(-1, 0) = 8/3: the one point where the functional is closed-form."""
    value = big_f(-1.0, 0.0)
    err = abs(value - 8.0 / 3.0)
    return CheckResult(
        "anchor_f_value", err <= 1e-10, f"F(-1,0)={value!r}, |defect|={err:.2e}"
    )


def check_lemniscate_routes() -> CheckResult:
    """Defining integral vs Gamma closed form, the frozen reference, and the
    coarse printed value.  The reference is compared with the integral
    route, the value ``lemniscate_constant`` returns, so a broken route
    fails here with the routes' own numbers rather than its error.  The
    routes are read from ``specialfn`` at each call, as
    ``lemniscate_constant`` reads them."""
    by_gamma = specialfn._varpi_gamma()
    by_integral = specialfn._varpi_integral()
    route_err = _rel(by_integral, by_gamma)
    ref_err = _rel(by_integral, _VARPI_REF)
    ok = route_err <= 1e-10 and ref_err <= 1e-12 and abs(by_integral - 2.62) <= 0.01
    return CheckResult(
        "lemniscate_routes",
        ok,
        f"varpi={by_integral!r}, route agreement={route_err:.2e}",
    )


def check_gamma_beta_identities() -> CheckResult:
    """Gamma recurrence/duplication and the Beta form of the lemniscatic constant."""
    dup = abs(gamma_fn(0.75) * gamma_fn(1.25) - math.pi / (2.0 * math.sqrt(2.0)))
    rec = _rel(gamma_fn(1.75), 0.75 * gamma_fn(0.75))
    half = _rel(gamma_fn(0.5), math.sqrt(math.pi))
    beta = _rel(lemniscate_constant(), 0.5 * beta_fn(0.25, 0.5))
    ok = dup <= 1e-12 and rec <= 1e-12 and half <= 1e-13 and beta <= 1e-12
    return CheckResult(
        "gamma_beta_identities",
        ok,
        f"duplication defect={dup:.2e}, varpi Beta-form rel err={beta:.2e}",
    )


def check_quadrature_anchors() -> CheckResult:
    """Beta reductions at a = -1, the a = 0 closed ratio, and the F(1,2) value."""
    i_half, i_three_half = ratio_integrals(-1.0)
    e_half = _rel(i_half, 0.5 * beta_fn(0.75, 0.5))
    e_three = _rel(i_three_half, 0.5 * beta_fn(1.25, 0.5))
    i_half_0, i_three_half_0 = ratio_integrals(0.0)
    e_zero = max(_rel(i_half_0, 2.0), _rel(i_three_half_0, 4.0 / 3.0))
    varpi = lemniscate_constant()
    e_f12 = _rel(big_f(1.0, 2.0), 4.0 * varpi * varpi / (3.0 * math.pi))
    half_identity = max(
        _rel(time_integral(a, 1.0), 0.5 * ratio_integrals(a)[0])
        for a in (0.0, -1e-3, -1.0, -1e3)
    )
    ok = (
        e_half <= 1e-12
        and e_three <= 1e-12
        and e_zero <= 1e-12
        and e_f12 <= 1e-10
        and half_identity <= 1e-11
    )
    return CheckResult(
        "quadrature_anchors",
        ok,
        f"Beta reductions rel err<= {max(e_half, e_three):.2e}, "
        f"F(1,2) rel err={e_f12:.2e}, half-period identity={half_identity:.2e}",
    )


def check_threshold_value() -> CheckResult:
    """Critical charge by direct formula vs the gamma route, the frozen
    references of mu* and gamma*, and the magnitude of mu*."""
    varpi = lemniscate_constant()
    v2 = varpi * varpi
    direct = (3.0 * math.pi / (3.0 * math.pi - v2)) ** 2
    routed = critical_mu()
    gstar = critical_gamma()
    e_route = _rel(routed, direct)
    e_inv = _rel(1.0 / (gstar + 1.0), v2 / (3.0 * math.pi))
    e_print = _rel(routed, _MU_STAR_PRINTED)
    e_gold = max(_rel(routed, _MU_STAR_REF), _rel(gstar, _GAMMA_STAR_REF))
    ok = e_route <= 1e-12 and e_inv <= 1e-12 and e_print <= 5e-3 and e_gold <= 1e-12
    return CheckResult(
        "threshold_value",
        ok,
        f"mu*={routed!r}, route err={e_route:.2e}, "
        f"offset from printed 13.69={e_print:.2%}",
    )


def check_touch_point() -> CheckResult:
    """At mu = mu* the solved orbit must touch: qbar1 = 2/gamma*^2, kappa = 0."""
    gstar = critical_gamma()
    sol = solve_orbit(critical_mu())
    e_qbar1 = _rel(sol.qbar1, 2.0 / (gstar * gstar))
    e_eta = _rel(sol.eta, _ETA_TOUCH_REF)
    e_f = abs(big_f(gstar, 2.0 / (gstar * gstar)) - 2.0)
    ok = e_qbar1 <= 1e-8 and abs(sol.kappa) <= 1e-8 and e_eta <= 1e-9 and e_f <= 1e-9
    return CheckResult(
        "touch_point",
        ok,
        f"qbar1 rel err={e_qbar1:.2e}, kappa={sol.kappa:.2e}, eta rel err={e_eta:.2e}",
    )


def check_reference_orbit() -> CheckResult:
    """The mu = 2 orbit against frozen reference values, plus its classification."""
    sol = solve_orbit(2.0)
    e_q = _rel(sol.qbar1, _QBAR1_MU2_REF)
    e_eta = _rel(sol.eta, _ETA_MU2_REF)
    ordered = 0.0 < sol.qbar1 < sol.q1max < sol.qbar2
    verdict = classify(2.0)
    ok = (
        e_q <= 1e-9
        and e_eta <= 1e-9
        and ordered
        and verdict is IntersectionClass.DISJOINT
    )
    return CheckResult(
        "reference_orbit",
        ok,
        f"qbar1 rel err={e_q:.2e}, eta rel err={e_eta:.2e}, class={verdict.value}",
    )


def check_monotone_unique_grid(n_mu: int = 25, n_grid: int = 10_000) -> CheckResult:
    """Solver convergence plus grid uniqueness/monotonicity of F for each mu."""
    worst_res = 0.0
    for mu in np.geomspace(1.02, 100.0, n_mu):
        gamma = gamma_of_mu(float(mu))
        sol = solve_orbit(float(mu), tol=1e-10)
        worst_res = max(worst_res, sol.fixpoint_residual)
        hi = 1.0
        while big_f(gamma, hi) >= 2.0:
            hi *= 2.0
        xs = np.linspace(1e-6, hi, n_grid)
        fs = np.array([big_f(gamma, float(x)) for x in xs])
        if not np.all(np.diff(fs) < 0.0):
            return CheckResult(
                "monotone_unique_grid", False, f"F not strictly decreasing at mu={mu}"
            )
        signs = fs - 2.0 > 0.0
        crossings = int(np.count_nonzero(np.diff(signs)))
        if crossings != 1 or not signs[0] or signs[-1]:
            return CheckResult(
                "monotone_unique_grid",
                False,
                f"expected exactly one crossing of 2 at mu={mu}, got {crossings}",
            )
    return CheckResult(
        "monotone_unique_grid",
        True,
        f"{n_mu} charges, {n_grid}-point scans, worst |F-2|={worst_res:.2e}",
    )


def check_classification_grid() -> CheckResult:
    """One Disjoint -> Intersects flip, bracketing mu*, with kappa/q1max agreement."""
    mus = np.geomspace(1.02, 40.0, _CLASSIFICATION_CHARGES)
    verdicts = []
    for mu in mus:
        sol = solve_orbit(float(mu), tol=1e-10)
        if abs(sol.kappa) > _TOUCH_TOL and (sol.kappa > 0.0) != (sol.q1max > sol.qbar2):
            return CheckResult(
                "classification_grid",
                False,
                f"sign(kappa) disagrees with sign(q1max - qbar2) at mu={mu}",
            )
        verdicts.append(classify_kappa(sol.kappa))
    flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a is not b)
    first_int = next(
        (i for i, v in enumerate(verdicts) if v is IntersectionClass.INTERSECTS), None
    )
    if first_int is None or first_int == 0:
        return CheckResult(
            "classification_grid",
            False,
            f"{_CLASSIFICATION_CHARGES} charges: no Disjoint -> Intersects flip found",
        )
    mu_star = critical_mu()
    ok = (
        flips == 1
        and verdicts[0] is IntersectionClass.DISJOINT
        and verdicts[-1] is IntersectionClass.INTERSECTS
        and mus[first_int - 1] < mu_star < mus[first_int]
    )
    return CheckResult(
        "classification_grid",
        ok,
        f"{_CLASSIFICATION_CHARGES} charges, {flips} flip(s), bracket "
        f"[{mus[first_int - 1]:.4f}, {mus[first_int]:.4f}] around mu*={mu_star:.4f}",
    )


def _fd_second_derivative_defect(traj: Trajectory, lo: float, hi: float) -> float:
    """Max relative defect of the centered-difference q1'' against the motion law."""
    n = traj.t.shape[0] - 1
    j = np.arange(1, n)
    mask = (traj.t[j] >= lo) & (traj.t[j] <= hi)
    j = j[mask]
    q, orbit = traj.q1, traj.orbit
    fd = (q[j + 1] - 2.0 * q[j] + q[j - 1]) * float(n) ** 2
    rhs = -(orbit.eta**2) * (
        orbit.mu / q[j] ** 2 + 1.0 / (orbit.gamma**2 * orbit.qbar1**2)
    )
    return float(np.max(np.abs(fd / rhs - 1.0)))


def check_trajectory_residuals() -> CheckResult:
    """Mean/energy residuals, time-reversal symmetry, and the FD motion law
    with second-order convergence, at mu in {2, 4, mu*, 1e11}.  The last
    is the top of the charge range the benchmark's trajectory workload
    draws from."""
    details = []
    for mu in (2.0, 4.0, critical_mu(), 1e11):
        sol = solve_orbit(mu)
        traj = reconstruct(sol, _TRAJECTORY_SAMPLES)
        mean_rel = abs(mean_residual(traj)) / sol.qbar1
        energy = abs(energy_residual(traj))
        symmetry = float(np.max(np.abs(traj.q1 - traj.q1[::-1])))
        defect_coarse = _fd_second_derivative_defect(
            reconstruct(sol, 256), 0.1, 0.4
        )
        defect_fine = _fd_second_derivative_defect(
            reconstruct(sol, 512), 0.1, 0.4
        )
        order = math.log2(defect_coarse / defect_fine)
        if not (
            mean_rel <= 1e-6
            and energy <= 1e-6
            and symmetry <= 1e-9
            and 1.5 <= order <= 2.6
        ):
            return CheckResult(
                "trajectory_residuals",
                False,
                f"mu={mu}: mean rel={mean_rel:.2e}, energy={energy:.2e}, "
                f"symmetry={symmetry:.2e}, FD order={order:.2f}",
            )
        details.append(f"mu={mu:.4g}: mean={mean_rel:.1e}, FD order={order:.2f}")
    return CheckResult("trajectory_residuals", True, "; ".join(details))


def check_f_extension_monotone() -> CheckResult:
    """F(gamma, 0) is strictly increasing in gamma on [-1, 5]."""
    gammas = np.linspace(-1.0, 5.0, 50)
    fs = np.array([big_f(float(g), 0.0) for g in gammas])
    ok = bool(np.all(np.diff(fs) > 0.0))
    return CheckResult(
        "f_extension_monotone",
        ok,
        f"F(.,0) spans [{fs[0]:.6f}, {fs[-1]:.6f}] over 50 points",
    )


_FAST_CHECKS: tuple[Callable[..., CheckResult], ...] = (
    check_anchor_f_value,
    check_lemniscate_routes,
    check_gamma_beta_identities,
    check_quadrature_anchors,
    check_threshold_value,
    check_touch_point,
    check_reference_orbit,
)

_FULL_CHECKS: tuple[Callable[..., CheckResult], ...] = (
    check_monotone_unique_grid,
    check_classification_grid,
    check_trajectory_residuals,
    check_f_extension_monotone,
)


def run_suite(level: str = "fast") -> list[CheckResult]:
    """Run every check of the ``fast`` or ``full`` suite; ``check_<name>`` raising
    DomainError or ConvergenceError fails as ``<name>``, its detail naming the error."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    results = []
    for check in _FAST_CHECKS + (_FULL_CHECKS if level == "full" else ()):
        try:
            results.append(check())
        except (DomainError, ConvergenceError) as exc:
            name = check.__name__.removeprefix("check_")
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
