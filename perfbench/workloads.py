"""Charges, operations and correctness gates of the benchmark's workloads.

Every workload draws its charges from one generator and differs only in
what one operation does with a charge.  An operation is timed on its own;
its result is checked afterwards, outside the timed span, and a result
that fails a check counts as a failed operation.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import frozenplanet as fp
from frozenplanet import certify

CHILD = Path(__file__).with_name("child.py")

# Rotation step of the charge sequence: the golden ratio's fractional part.
_STEP = (math.sqrt(5.0) - 1.0) / 2.0
# Timed charges stop at mu = 1 + 1e11, below the solver's bracket cap
# (solve_orbit raises ConvergenceError from about mu = 4.5e11 on), so that no
# timed operation fails.  The cap itself is measured by full_range_probe over
# the whole physical range, up to mu = 1 + 1e15.
_LOG_LO, _LOG_HI = -12.0, 11.0
_FULL_LOG_HI = 15.0
_FULL_RANGE_POINTS = 28

_CHILD_TIMEOUT_S = 120


def charges(seed: int):
    """Endless charges mu = 1 + 10**u with u uniform on [-12, 11].

    The seed draws the first exponent; each next one is rotated by the
    golden ratio.  Every exponent is uniform on the range, and any run of
    consecutive charges covers it evenly, so each run spends the same share
    of its operations on each part of the range whatever its length.
    """
    u = random.Random(seed).random()
    while True:
        yield 1.0 + 10.0 ** (_LOG_LO + (_LOG_HI - _LOG_LO) * u)
        u = (u + _STEP) % 1.0


def charge_list(seed: int, n: int) -> list[float]:
    gen = charges(seed)
    return [next(gen) for _ in range(n)]


def full_range_probe() -> tuple[float, list[float]]:
    """Share of evenly spaced charges on u in [-12, 15] that solve_orbit solves.

    Returns the share and the charges it refused with a documented error.
    Below 1 while the solver's bracket cap stands.
    """
    refused = []
    for u in np.linspace(_LOG_LO, _FULL_LOG_HI, _FULL_RANGE_POINTS):
        mu = 1.0 + 10.0 ** float(u)
        try:
            fp.solve_orbit(mu)
        except (fp.DomainError, fp.ConvergenceError):
            refused.append(mu)
    return 1.0 - len(refused) / _FULL_RANGE_POINTS, refused


def rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def golden_sentinels() -> list[str]:
    """Problems with the certified golden values (empty when all hold)."""
    sol = fp.solve_orbit(2.0)
    problems = []
    if rel(sol.qbar1, certify._QBAR1_MU2_REF) > 1e-9:
        problems.append(f"sentinel qbar1(2)={sol.qbar1!r}")
    if rel(sol.eta, certify._ETA_MU2_REF) > 1e-9:
        problems.append(f"sentinel eta(2)={sol.eta!r}")
    if rel(fp.critical_mu(), certify._MU_STAR_REF) > 1e-12:
        problems.append(f"sentinel mu*={fp.critical_mu()!r}")
    return problems


@dataclass
class Context:
    """Where and with which environment child interpreters run."""

    root: Path
    env: dict

    def python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=_CHILD_TIMEOUT_S,
        )


@dataclass
class Orbits:
    """solve_orbit(mu) then classify_kappa(kappa)."""

    # Every charge solved and its qbar1, kept compact: the benchmark's own
    # memory per op must not weigh in peak_rss_mb.
    mus: array = field(default_factory=lambda: array("d"))
    qbar1s: array = field(default_factory=lambda: array("d"))
    setup_code = "import frozenplanet as fp; fp.classify_kappa(fp.solve_orbit(2.0).kappa)"

    def op(self, mu):
        sol = fp.solve_orbit(mu)
        return sol, fp.classify_kappa(sol.kappa)

    def check(self, mu, out):
        sol, verdict = out
        defect = abs(fp.big_f(sol.gamma, sol.qbar1) - 2.0)
        if not defect <= 1e-10:
            return f"mu={mu!r}: |F(gamma, qbar1) - 2| = {defect:.3e}"
        mu_star = fp.critical_mu()
        if abs(mu / mu_star - 1.0) > 1e-6:
            above = mu > mu_star
            expected = fp.IntersectionClass.INTERSECTS if above else fp.IntersectionClass.DISJOINT
            if (sol.kappa > 0.0) != above or verdict is not expected:
                return f"mu={mu!r}: kappa={sol.kappa!r} gives {verdict.value}"
        self.mus.append(mu)
        self.qbar1s.append(sol.qbar1)
        return None

    def finish(self) -> list[str]:
        """qbar1 must not decrease as mu grows, over every charge solved."""
        order = np.argsort(self.mus, kind="stable")
        mus, qbar1s = np.array(self.mus)[order], np.array(self.qbar1s)[order]
        return [
            f"qbar1 decreases from mu={mus[i]!r} to mu={mus[i + 1]!r}"
            for i in np.flatnonzero(np.diff(qbar1s) < 0.0)
        ]


@dataclass
class Trajectory:
    """solve_orbit(mu) then reconstruct(sol, 512)."""
    setup_code = "import frozenplanet as fp; fp.reconstruct(fp.solve_orbit(2.0), 512)"

    def op(self, mu):
        sol = fp.solve_orbit(mu)
        return sol, fp.reconstruct(sol, 512)

    def check(self, mu, out):
        sol, traj = out
        mean = abs(fp.mean_residual(traj)) / sol.qbar1
        energy = abs(fp.energy_residual(traj))
        symmetry = float(np.max(np.abs(traj.q1 - traj.q1[::-1])))
        if not (mean <= 1e-6 and energy <= 1e-6 and symmetry <= 1e-9):
            return (
                f"mu={mu!r}: mean={mean:.2e}, energy={energy:.2e}, "
                f"symmetry={symmetry:.2e}"
            )
        return None

    def finish(self) -> list[str]:
        return []


def cli_payload_problem(mu: float, text: str) -> str | None:
    """A CLI ``solve`` payload must parse and match an in-process solve."""
    try:
        qbar1 = json.loads(text)["solution"]["qbar1"]
    except (TypeError, ValueError, KeyError) as exc:
        return f"mu={mu!r}: unreadable cli payload ({exc})"
    expected = fp.solve_orbit(mu).qbar1
    if qbar1 != expected:
        return f"mu={mu!r}: cli qbar1={qbar1!r}, in-process {expected!r}"
    return None


WORKLOADS = {"orbits": Orbits, "trajectory": Trajectory}
