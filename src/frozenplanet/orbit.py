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
N + 1 angles, N = max(n/2, 256) cells of width pi/(2N) <= pi/n, each
cell's increment of H is the 4-point Gauss-Legendre rule on H', all
cells in one array pass, and the grid values are the running sum of the
increments.  A plain running sum of N terms gathers rounding that grows
with N: against bracketed root solves it moved samples by up to
3.7e-14 q1max at n = 4096 and 9.5e-14 at n = 16384.  So the sum is
compensated: TwoSum gives the exact rounding error of each addition, and
the running sum of those errors is added back, which leaves every grid
value within a few units of rounding of G(1).  The last value is set to
G(1) = I_{1/2}(a) / 2 (substitute r = 1 - u**2 in the moment), which
keeps the targets exact where the last cell's rule is poor, at tiny
non-physical b.  A sample whose target lies in the grid cell
[p0, p0 + pi/(2N)] solves

    R(p) = int_{p0}^{p} H'(s) ds - (target - H(p0)) = 0,    R' = H',

with the integral taken by the same rule on [p0, p].  With b = -a, H' is
analytic in the strip |Im s| < y = asinh(sqrt(b)): its nearest
singularities sit at s = pi/2 +- i y, where cos(s)**2 = -b.  On physical
orbits b runs from about 0.5175 to 2.25e24, so y >= 0.668.  On an
interval of width w the m-point rule's relative error falls like
(w / (4 y))**(2 m), the Bernstein-ellipse bound (Trefethen, "Is Gauss
quadrature better than Clenshaw-Curtis?", SIAM Review 50, 2008).  With
y = 0.665, m = 4 and cells at most pi/512 wide, the floor of 256 cells,
that bound is 8.0e-22, far under rounding, and smaller still on
Newton's shorter intervals.

The seed is the cubic Hermite interpolant of the inverse p(H) on the
sample's cell: it matches p at both cell ends and the slopes 1 / H'
there.  H'(pi/2) = 0, so the last cell's slope would be infinite, but no
target reaches that cell.  The concave H lies above its chord from
(0, 0) to (pi/2, G(1)), and at the last inner grid angle pi/2 - pi/(2N)
the chord is G(1) * (1 - 1/N), at least the largest target
G(1) * (1 - 2/n).  Over b in [1e-12, 2.25e24] and n up to 2**20, H at
pi/2 - pi/n exceeds the largest target by at least 0.85 * 2 G(1) / n,
far above rounding, and H at the last inner grid angle, no further
left, exceeds it by more.

Each Newton step runs on the whole array of samples.  From p, with
d = -R / H' the Newton step, the root lies at p + delta, where

    -d + delta - K delta**2 + (H''' / (6 H')) delta**3 + ... = 0,
    K = |H''| / (2 H')   (H'' <= 0 on [0, pi/2]).

Solving for delta by repeated substitution gives

    delta = d + K d**2 + (2 K**2 - H''' / (6 H')) d**3 + O(d**4),

so the step p += d + K d**2 leaves an error of about
|H''' / (6 H') - 2 K**2| * |d|**3, and a sample has settled once that
falls below eps * p, or once d falls below 4 eps * p or stops shrinking,
which marks the rounding floor.  With c = cos(p), s = sin(p) and
q = b / (c**2 + b) in [0, 1],

    K = tan(p) * (1 + q) / 2,
    H''' / H' = tan(p)**2 * q * (3 q - 1) - (1 + q),

that is -(c**2 + 2 b) / (c**2 + b) + s**2 b (2 b - c**2) / (c**2 (c**2 + b)**2),
in ratios that stay finite for every b.  The error's coefficient then
simplifies to

    |H''' / (6 H') - 2 K**2| = (tan(p)**2 * (7 q + 3) + 1 + q) / 6,

where tan(p)**2 = (1 - c**2) / c**2 and q come from c**2, which the
Newton block holds at p beside the Gauss nodes.  The loop ends when
every sample has settled.  From the Hermite seed one step settles every
sample at every n (figures at _NEWTON_CAP).

The arrays that depend on n alone (the grid angles, cos**2 at the
grid's Gauss nodes and at the grid angles, the target
fractions k/n and the times) are built once per sample count and kept,
read-only, for the last few counts up to 2**14 samples; a larger count
builds them afresh and drops them when it returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import ratio_integrals
from .solver import OrbitSolution

_EPS = float(np.finfo(float).eps)
# Whole-array Newton steps allowed per rebuild.  From the Hermite seed,
# the corrected step on the in-cell equation took 1 step at 16, 64, 128,
# 256, 512, 4096, 16384 and 2**20 samples, at each of 47 charges
# mu = 1 + 10**u, u in [-12, 11], and with a = 0.
_NEWTON_CAP = 60
# Largest n_samples accepted: a rebuild peaks at about 15 floats per sample
# (123 MB at 2**20), of which its layout holds 4.5 (36 bytes per sample).
_MAX_SAMPLES = 2**20
# Layouts are cached for up to this many samples, four at a time: at most
# 4 * 36 * 2**14 bytes, about 2.4 MB.
_CACHED_SAMPLES = 2**14
# Fewest cells of the angle grid, so that no cell is wider than pi/512.
# There the 4-point rule's strip bound (w / (4 y))**8, with y = 0.665 below
# asinh(sqrt(b)) on physical orbits, is 8.0e-22 (module docstring).
_MIN_CELLS = 256

# The 4-point Gauss-Legendre rule on [0, 1], exact for polynomials of
# degree 7.  The node table ends with the end point 1, at which Newton
# also needs H'.
_GL_NODES = np.array(
    [0.06943184420297371, 0.33000947820757187, 0.6699905217924281, 0.9305681557970263, 1.0]
)
_GL_WEIGHTS = np.array(
    [0.17392742256872692, 0.32607257743127305, 0.32607257743127305, 0.17392742256872692]
)
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)


class _Layout(NamedTuple):
    """Read-only arrays of a rebuild that depend on the sample count alone."""

    grid: np.ndarray  # the cells + 1 cell ends; the last is pi / 2
    cc_nodes: np.ndarray  # cos**2 at each cell's Gauss nodes, (cells, 4)
    cc_grid: np.ndarray  # cos**2 at the cell ends
    frac: np.ndarray  # target fractions k / n, k = 1 .. half - 1
    t: np.ndarray  # scaled times j / n, j = 0 .. n


def _build_layout(n_samples: int) -> _Layout:
    half = n_samples // 2
    cells = max(half, _MIN_CELLS)
    w = 0.5 * math.pi / cells
    grid = np.arange(cells + 1) * w
    grid[-1] = 0.5 * math.pi
    cc_nodes = grid[:-1, None] + w * _GL_NODES[:-1]
    np.cos(cc_nodes, out=cc_nodes)
    cc_nodes *= cc_nodes
    cc_grid = np.cos(grid)
    cc_grid *= cc_grid
    layout = _Layout(
        grid=grid,
        cc_nodes=cc_nodes,
        cc_grid=cc_grid,
        frac=np.arange(1, half) / n_samples,
        t=np.arange(n_samples + 1) / n_samples,
    )
    for arr in layout:
        arr.setflags(write=False)
    return layout


_cached_layout = functools.lru_cache(maxsize=4)(_build_layout)


def _layout(n_samples: int) -> _Layout:
    """The layout of n_samples, cached up to _CACHED_SAMPLES samples."""
    if n_samples <= _CACHED_SAMPLES:
        return _cached_layout(n_samples)
    return _build_layout(n_samples)


def _grid_values(a: float, cc_nodes: np.ndarray) -> np.ndarray:
    """H at the cell ends from cos**2 at the cells' Gauss nodes.

    Each cell's increment of H is its Gauss rule on H' (see the module
    docstring), and the increments are added up with the rounding error of
    every addition carried along: a plain running sum over the cells
    gathers an error that grows with their count.  The last value is the
    sum over every cell, an approximation of G(1).
    """
    n_cells = cc_nodes.shape[0]
    dh = cc_nodes - a
    np.sqrt(dh, out=dh)
    np.divide(cc_nodes, dh, out=dh)
    cells = dh @ _GL_WEIGHTS
    cells *= 0.5 * math.pi / n_cells
    h_grid = np.zeros(n_cells + 1)
    run, prev = h_grid[1:], h_grid[:-1]
    np.cumsum(cells, out=run)
    # TwoSum: err is the exact rounding error of run[k] = prev[k] + cells[k].
    back = run - prev
    err = run - back
    np.subtract(prev, err, out=err)
    cells -= back
    err += cells
    run += np.cumsum(err, out=err)
    return h_grid


def _hermite_seed(
    b: float, grid: np.ndarray, cc_grid: np.ndarray, h_grid: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p0, rest, p): each target's cell start, target - H(p0), and Newton's seed.

    Each sample inverts H only inside its grid cell [p0, p0 + w]:
    H(p) = H(p0) + int_{p0}^{p} H'(s) ds, so Newton needs H' alone.  No
    target reaches the last cell (module docstring), so j + 1 < N.  The
    seed is the cubic Hermite interpolant of the inverse on the cell, with
    slopes 1 / H' at its ends:

        p = p0 + tau (w + (1 - tau) (d0 (1 - tau) - d1 tau)),

    where tau = rest / cell, cell is the cell's increment of H, and
    d = cell / H' - w at either end.
    """
    w = float(grid[1])  # the cell width: grid[k] = k w
    j1 = np.searchsorted(h_grid, target, "right")
    j = j1 - 1
    h0 = h_grid[j]
    rest = target - h0
    cell = h_grid[j1]
    cell -= h0
    slope = cc_grid + b
    np.sqrt(slope, out=slope)
    slope /= cc_grid
    tau = rest / cell
    d0 = slope[j]
    d0 *= cell
    d0 -= w
    d1 = slope[j1]
    d1 *= cell
    d1 -= w
    d1 *= tau
    tau_c = 1.0 - tau
    d0 *= tau_c
    d0 -= d1
    d0 *= tau_c
    d0 += w
    d0 *= tau
    p0 = grid[j]
    d0 += p0
    return p0, rest, d0


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
    time, anchored in the cells of a uniform angle grid and seeded by
    cubic Hermite interpolation of the inverse on each cell.  The grid has
    max(n_samples / 2, 256) cells, and its values are compensated running
    sums of each cell's 4-point Gauss rule on H'; Newton takes H inside a
    cell by the same rule (see the module docstring).  The last grid
    value is G(1) = I_{1/2}(a) / 2 from the moment.  Each Newton step d is
    corrected by its second-order term K d**2.  The second half is
    mirrored, so the collision is crossed rather than integrated through.  A sample has settled once the
    third-order error its last step predicts falls below eps * p, or its
    step falls below 4 eps * p or stops shrinking, which marks the
    rounding floor; the loop stops when every sample has settled at the
    same step.
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
    grid, cc_nodes, cc_grid, frac, t = _layout(n_samples)
    h_grid = _grid_values(a, cc_nodes)
    # Frees an uncached layout's node table (2 floats per sample) before Newton.
    del cc_nodes
    # G(1) = I_{1/2}(a) / 2 (substitute r = 1 - u**2) keeps the targets
    # exact where the last cell's Gauss rule is poor, at tiny b.
    g_full = 0.5 * ratio_integrals(a)[0]
    h_grid[-1] = g_full
    target = frac * (2.0 * g_full)
    b = -a
    p0, rest, p = _hermite_seed(b, grid, cc_grid, h_grid, target)

    # The Newton block: all columns but the last hold the Gauss nodes on
    # [p0, p], the last holds p.  It takes cos**2, then H'.
    blk = np.empty((p.size, _GL_NODES.size))
    den = np.empty_like(blk)
    last = None
    for _ in range(_NEWTON_CAP):
        width = p - p0
        np.multiply(width[:, None], _GL_NODES, out=blk)
        blk += p0[:, None]
        np.cos(blk, out=blk)
        blk *= blk
        tan2 = 1.0 - blk[:, -1]
        tan2 /= blk[:, -1]
        np.add(blk, b, out=den)
        q = b / den[:, -1]
        np.sqrt(den, out=den)
        blk /= den
        step = blk[:, :-1] @ _GL_WEIGHTS
        step *= width
        np.subtract(rest, step, out=step)
        step /= blk[:, -1]
        size = np.abs(step)
        # Six times the error the corrected step leaves (module docstring).
        one_q = q + 1.0
        err6 = q * 7.0
        err6 += 3.0
        err6 *= tan2
        err6 += one_q
        err6 *= size
        err6 *= size
        err6 *= size
        settled = err6 <= (6.0 * _EPS) * p
        settled |= size <= (4.0 * _EPS) * p
        if last is not None:
            settled |= size >= last
        # p += step (1 + K step), with K = tan(p) (1 + q) / 2.
        k_step = np.sqrt(tan2, out=tan2)
        k_step *= one_q
        k_step *= 0.5
        k_step *= step
        k_step += 1.0
        k_step *= step
        p += k_step
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
    inner = q1[1:half]
    np.cos(p, out=inner)
    inner *= inner
    inner *= sol.q1max
    q1[half] = 0.0
    q1[half + 1 :] = q1[half - 1 :: -1]

    if not (q1[1 : half + 1] < q1[:half]).all():
        raise ConvergenceError(
            "time-map inversion produced a non-monotone first half period"
        )

    q1.setflags(write=False)
    # A view of the cached times: its write flag cannot be set again.
    return Trajectory(
        t=t.view(), q1=q1, q2_const=sol.qbar2, eta=sol.eta, mu=sol.mu, gamma=sol.gamma
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
