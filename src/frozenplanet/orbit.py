"""Trajectory reconstruction and residual diagnostics for a solved orbit.

The regularized inner-electron motion satisfies, in scaled time s = t/eta,

    q1(s) = q1max * (1 - U(s)**2),

where U solves G(U) = 2 * G(1) * s with the monotone time-of-flight kernel
G from :mod:`frozenplanet.quadrature`.  One period runs from the swing
maximum at s = 0 through the collision q1 = 0 at s = 1/2 and back; the
second half is the time-reflected mirror of the first.

In the angle p with U = sin(p) the kernel becomes H(p) = G(sin p), an
incomplete elliptic integral, with

    H'(p) = cos(p)**2 / sqrt(cos(p)**2 - a),

which decreases on [0, pi/2], so H is concave and its inverse convex.
The rebuild never evaluates the closed form of H (the quadrature
module's time map, which serves time_integral).  On a uniform grid of
n/2 + 1 angles, spaced pi/n, each cell's increment of H is the 8-point
Gauss-Legendre rule on H', all cells in one array pass, and the grid
values are the running sum of the increments.  A plain running sum of
n/2 terms gathers rounding that grows with n: against bracketed root
solves it moved samples by up to 3.7e-14 q1max at n = 4096 and 9.5e-14
at n = 16384.  So the sum is compensated: TwoSum gives the exact rounding
error of each addition, and the running sum of those errors is added
back, which leaves every grid value within a few units of rounding of
G(1).  The last value is set to G(1) = I_{1/2}(a) / 2 (substitute
r = 1 - u**2 in the moment), which keeps the targets exact where the
last cell's rule is poor, at tiny non-physical b.  Linear interpolation
of the inverse on the grid seeds every sample at or right of its root,
and a sample whose target lies in the grid cell [p0, p0 + pi/n] solves

    R(p) = int_{p0}^{p} H'(s) ds - (target - H(p0)) = 0,    R' = H',

with the integral taken by the same rule on [p0, p].  With b = -a, H' is
analytic in the strip |Im s| < y = asinh(sqrt(b)): its nearest
singularities sit at s = pi/2 +- i y, where cos(s)**2 = -b.  On physical
orbits b runs from about 0.517 to 2.25e24, so y >= 0.66, while a cell is
at most w = pi/16 wide.  The rule's relative error falls like
(w / (4 y))**16, below 1e-18, far under rounding, on the grid cells and
on Newton's intervals alike.
The tangent of a concave H lies above it, so the first Newton step lands
left of the root and the following steps approach it monotonically.
Each step runs on the whole array of samples.  A step d leaves an error
of about K * d**2 with

    K = |H''| / (2 H') = sin(p) * (c**2 + 2 b) / (2 c * (c**2 + b)),

where c = cos(p), so a sample has settled once that predicted error falls
below a unit of rounding of p, and the loop ends when every sample has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import ratio_integrals
from .solver import OrbitSolution

_EPS = float(np.finfo(float).eps)
# Whole-array Newton steps allowed per rebuild.  From the interpolated
# seed, Newton on the in-cell equation took at most 4 steps at 16 samples,
# 3 at 64 and 512, and 2 at 4096 and 16384 (mean 3.55, 3.0, 2.06, 2.0 and
# 2.0) over 47 charges mu = 1 + 10**u, u in [-12, 11], with and without
# a = 0.
_NEWTON_CAP = 60
# Largest n_samples accepted: the inversion holds 9 floats per sample.
_MAX_SAMPLES = 2**20
# 8-point Gauss-Legendre rule on [0, 1], exact for polynomials of degree
# 15, followed by the end point 1 at which Newton also needs H'.
_GL_NODES = np.array(
    [
        0.019855071751231884,
        0.10166676129318664,
        0.2372337950418355,
        0.4082826787521751,
        0.591717321247825,
        0.7627662049581645,
        0.8983332387068134,
        0.9801449282487681,
        1.0,
    ]
)
_GL_WEIGHTS = np.array(
    [
        0.05061426814518813,
        0.11119051722668724,
        0.15685332293894363,
        0.181341891689181,
        0.181341891689181,
        0.15685332293894363,
        0.11119051722668724,
        0.05061426814518813,
    ]
)


def _time_grid(a: float, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform angles k * pi / (2 half), k = 0..half, and H at each of them.

    Each cell's increment of H is its 8-point Gauss rule on H' (see the
    module docstring), and the increments are added up with the rounding
    error of every addition carried along: a running sum over half cells
    alone gathers an error that grows with half.  The last value is the
    sum over every cell, an approximation of G(1).
    """
    w = 0.5 * math.pi / half
    grid = np.arange(half + 1) * w
    grid[-1] = 0.5 * math.pi
    c = np.cos(grid[:-1, None] + w * _GL_NODES[:-1])
    cc = c * c
    cells = w * ((cc / np.sqrt(cc - a)) @ _GL_WEIGHTS)
    # TwoSum: err is the exact rounding error of run[k] = prev[k] + cells[k].
    run = np.cumsum(cells)
    prev = np.concatenate(([0.0], run[:-1]))
    back = run - prev
    err = (prev - (run - back)) + (cells - back)
    h_grid = np.zeros(half + 1)
    h_grid[1:] = run + np.cumsum(err)
    return grid, h_grid


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled period of the regularized orbit on a uniform scaled-time grid.

    ``t`` holds the scaled times j / n_samples in [0, 1] and ``q1`` the inner
    electron positions; the outer electron is constant at ``q2_const``.
    Physical time is ``t * eta``.
    """

    t: np.ndarray
    q1: np.ndarray
    q2_const: float
    eta: float
    mu: float
    gamma: float

    @property
    def qbar1(self) -> float:
        """Mean inner position the orbit was solved for."""
        return self.q2_const / (self.gamma + 1.0)

    @property
    def q1max(self) -> float:
        """Swing amplitude (first grid sample, by construction)."""
        return float(self.q1[0])


def reconstruct(sol: OrbitSolution, n_samples: int = 512) -> Trajectory:
    """Sample one period of the orbit at n_samples + 1 uniform scaled times.

    ``n_samples`` must be an even integer (the collision then falls exactly
    on a grid point) from 16 to 2**20.  The first-half samples invert the
    time map by Newton's method in the angle p, one whole-array step at a
    time, seeded from a uniform angle grid and anchored in its cells.
    The grid values are compensated running sums of each cell's 8-point
    Gauss rule on H', and Newton takes H inside a cell by the same rule
    (see the module docstring); the last grid value is
    G(1) = I_{1/2}(a) / 2 from the moment.  The second half is mirrored,
    so the collision is crossed rather than integrated through.  A sample
    has settled once the error its last step predicts falls below
    eps * p, or its step falls below 4 eps * p or stops shrinking, which
    marks the rounding floor; the loop stops when every sample has
    settled at the same step.
    """
    if (
        not isinstance(n_samples, (int, np.integer))
        or not 16 <= n_samples <= _MAX_SAMPLES
        or n_samples % 2 != 0
    ):
        raise DomainError(
            f"n_samples must be an even integer in [16, {_MAX_SAMPLES}], got {n_samples!r}"
        )
    a = sol.q1antimax / sol.q1max
    if not -math.inf < a <= 0.0:
        raise DomainError(f"invalid orbit: q1antimax/q1max = {a!r} is not finite and <= 0")
    half = n_samples // 2
    grid, h_grid = _time_grid(a, half)
    # G(1) = I_{1/2}(a) / 2 (substitute r = 1 - u**2) keeps the targets
    # exact where the last cell's Gauss rule is poor, at tiny b.
    h_grid[-1] = 0.5 * ratio_integrals(a)[0]
    target = 2.0 * h_grid[-1] * (np.arange(1, half) / n_samples)

    # Each sample inverts H only inside its grid cell [p0, p0 + pi/n]:
    # H(p) = h_grid[j] + int_{p0}^{p} H'(s) ds, so Newton needs H' alone.
    j = np.minimum(np.searchsorted(h_grid, target, "right") - 1, half - 1)
    p0 = grid[j]
    rest = target - h_grid[j]
    b = -a
    p = np.interp(target, h_grid, grid)
    last = np.full(p.size, math.inf)
    for _ in range(_NEWTON_CAP):
        width = p - p0
        # All columns but the last are the Gauss nodes on [p0, p]; the last is p.
        c = np.cos(p0[:, None] + width[:, None] * _GL_NODES)
        cc = c * c
        dh = cc / np.sqrt(cc + b)
        residual = width * (dh[:, :-1] @ _GL_WEIGHTS) - rest
        step = -residual / dh[:, -1]
        size = np.abs(step)
        # The next error is about K * step**2 with K = |H''| / (2 H').
        c, cc = c[:, -1], cc[:, -1]
        k = np.sin(p) * (cc + 2.0 * b) / (2.0 * c * (cc + b))
        settled = (
            (k * size * size <= _EPS * p)
            | (size <= 4.0 * _EPS * p)
            | (size >= last)
        )
        p += step
        last = size
        if settled.all():
            break
    else:
        worst = float(np.max(last[~settled]))
        raise ConvergenceError(
            f"time-map inversion did not settle in {_NEWTON_CAP} Newton steps "
            f"(a={a!r}, n_samples={n_samples}, worst step {worst:.3e})",
            mu=sol.mu,
            a=a,
            iterations=_NEWTON_CAP,
            last=worst,
        )

    q1 = np.empty(n_samples + 1)
    q1[0] = sol.q1max
    q1[1:half] = sol.q1max * np.cos(p) ** 2
    q1[half] = 0.0
    q1[half + 1 :] = q1[half - 1 :: -1]

    if not np.all(np.diff(q1[: half + 1]) < 0.0):
        raise ConvergenceError(
            "time-map inversion produced a non-monotone first half period"
        )

    t = np.arange(n_samples + 1) / n_samples
    t.setflags(write=False)
    q1.setflags(write=False)
    return Trajectory(
        t=t, q1=q1, q2_const=sol.qbar2, eta=sol.eta, mu=sol.mu, gamma=sol.gamma
    )


def mean_q1(traj: Trajectory) -> float:
    """Cusp-corrected trapezoidal mean of q1 over one period.

    Near the collision q1 grows like |t - 1/2|**(2/3), so the plain
    composite trapezoid rule carries an O(h**(5/3)) error term with a known
    exponent.  Combining the full grid with its every-other-point subgrid,

        m = m_h + (m_h - m_2h) / (2**(5/3) - 1),

    cancels that term and leaves O(h**(7/3)).  The sums run on q1 scaled
    by a power of two near 1 / qbar1, which is exact and keeps them finite
    up to the largest charges.
    """
    scale = math.ldexp(1.0, -math.frexp(traj.qbar1)[1])
    q = traj.q1 * scale
    m_h = float(np.trapezoid(q, dx=1.0))
    m_2h = float(np.trapezoid(q[::2], dx=2.0))
    n = q.shape[0] - 1
    return (m_h + (m_h - m_2h) / (2.0 ** (5.0 / 3.0) - 1.0)) / n / scale


def mean_residual(traj: Trajectory) -> float:
    """Signed defect (time mean of q1) - qbar1; near 0 for a valid orbit."""
    return mean_q1(traj) - traj.qbar1


def energy_residual(traj: Trajectory) -> float:
    """Signed defect of the orbit's total energy from -1 (its exact value).

    The kinetic part of the time average is eliminated through the
    conserved swing relation

        q1'(t)**2 / (2 * eta**2) - mu / q1 = kappa - q1 / (gamma**2 * qbar1**2),

    which holds pointwise along the orbit, so only the mean of q1 itself
    enters and the collision costs no accuracy.
    """
    gamma = traj.gamma
    qbar1 = traj.qbar1
    kappa = 2.0 / (gamma * gamma * qbar1) - 1.0
    mean = mean_q1(traj)
    return (
        kappa
        - mean / (gamma * gamma * qbar1 * qbar1)
        - traj.mu / traj.q2_const
        + 1.0 / (gamma * qbar1)
        + 1.0
    )
