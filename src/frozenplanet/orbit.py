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
increments.  The layout holds cos**2 as one (5, N) table: its first four
rows at each cell's Gauss nodes, its fifth at the cell starts, so the
same add, sqrt and divide give H' at the cell starts for the seed below.
A plain running sum of N terms gathers rounding that grows with N:
against bracketed root solves it moved samples by up to 3.7e-14 q1max at
n = 4096 and 9.5e-14 at n = 16384.  So the sum is compensated: the
rounding error of every addition is taken exactly and the running sum of
those errors is added back, which leaves every grid value within a few
units of rounding of G(1).  The increments decrease (H' does), so each
running sum is at least as large as the increment added to it, and
Fast2Sum, e = cell - (run - prev), gives that error exactly (Dekker
1971), the same error as TwoSum in half its operations.  The last value
is set to G(1) = I_{1/2}(a) / 2 (substitute r = 1 - u**2 in the moment),
which keeps the targets exact where the last cell's rule is poor, at
tiny non-physical b.  A sample whose target lies in the grid cell
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
left, exceeds it by more.  So both ends of every sample's cell are cell
starts, whose slopes the grid pass gave.

The rebuild takes one Newton step, on the whole array of m samples, as
one block of rows by samples: every pass below is one NumPy call over a
few contiguous rows, not a broadcast over a short inner axis.  One
matrix product with the (2, m) rows of cell starts p0 and seeds p fills
the width p - p0 and the (5, m) angles (1 - x_k) p0 + x_k p at the four
Gauss nodes x_k and at x = 1, which is p itself.  H' there comes from
cos**2 = 1 / (1 + tan**2): one tan pass costs less than one cos pass
where NumPy's float64 tan is vectorized and its cos is not (2.3 against
6.9 us for 1,275 angles, NumPy 2.4 on a 2-vCPU x86-64 host), is within
a unit of rounding like cos, and leaves tan(p)**2 in the block for the
step's correction and the settle test.  From p, with
d = -R / H' the Newton step, the root lies at p + delta, where

    -d + delta - K delta**2 + (H''' / (6 H')) delta**3 + ... = 0,
    K = |H''| / (2 H')   (H'' <= 0 on [0, pi/2]).

Solving for delta by repeated substitution gives

    delta = d + K d**2 + (2 K**2 - H''' / (6 H')) d**3 + O(d**4),

so the step p += d + K d**2 leaves an error of about
|H''' / (6 H') - 2 K**2| * |d|**3, and a sample has settled once that
is at most eps * p.  With c = cos(p), s = sin(p) and
q = b / (c**2 + b) in [0, 1],

    K = tan(p) * (1 + q) / 2,
    H''' / H' = tan(p)**2 * q * (3 q - 1) - (1 + q),

that is -(c**2 + 2 b) / (c**2 + b) + s**2 b (2 b - c**2) / (c**2 (c**2 + b)**2),
in ratios that stay finite for every b.  The error's coefficient then
simplifies to

    |H''' / (6 H') - 2 K**2| = (tan(p)**2 * (7 q + 3) + 1 + q) / 6,

where tan(p)**2 and q = b / (c**2 + b) come from the Newton block's row
at p.

The settle test bounds every sample at once.  Since 0 <= q <= 1,

    tan(p)**2 * (7 q + 3) + 1 + q <= 10 tan(p)**2 + 2,

the difference being (1 - q) (7 tan(p)**2 + 1) >= 0.  So if

    max |d|**3 * (10 max tan(p)**2 + 2) <= 6 eps * min p,

every sample's own error term lies below 6 eps times its own p, and all
have settled: one reduction over the block's rows tan(p)**2, |d| and -p
decides.  From the Hermite seed it held with a wide margin at every
charge and n tried: its left side was at most 0.0046 of its right over
278 charges (mu = 1 + 10**u, u in [-12, 15], and up to 4.9e307) at
sample counts from 16 to 2**20, and at most 0.16 of it over synthetic
b in [0, 1e300].  So one step settles every sample, and a rebuild whose
step fails the bound raises ConvergenceError instead of stepping again.

The arrays that depend on n alone (the grid angles, the cos**2 table,
the Gauss weights scaled by the cell width, and the times j/n, whose
entries 1 .. n/2 - 1 are the targets' fractions) are built once per
sample count and kept, read-only, for the last few counts up to 2**14
samples; a larger count builds them afresh and drops them when it
returns.  They hold 4 floats, 32 bytes, per sample: 2.5 in the cos**2
table, 0.5 in the grid, 1 in the times.  A rebuild peaks in its Newton
step at 12.5 floats per sample, 105 MB at 2**20 samples: the block's 19
rows of n/2 samples (9.5), the ends, the rests and the step (2), and the
times (1); the rest of an uncached layout is freed before Newton starts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import ratio_integrals
from .solver import OrbitSolution, _frozen

_EPS = float(np.finfo(float).eps)
# Largest n_samples accepted: a rebuild peaks at 12.5 floats per sample
# (105 MB at 2**20; module docstring), and its layout holds 4 (32 bytes
# per sample).
_MAX_SAMPLES = 2**20
# Layouts are cached for up to this many samples, four at a time: at most
# 4 * 32 * 2**14 bytes, about 2.1 MB.
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
# Maps a sample's interval ends (p0, p) to the first six rows of its
# Newton block: row 0 is the width p - p0, and row 1 + k is
# (1 - x_k) p0 + x_k p at the node x_k, so row 5 (x = 1) is p itself.
_ENDS_TO_BLOCK = np.stack(
    [np.append(-1.0, 1.0 - _GL_NODES), np.append(1.0, _GL_NODES)], axis=1
)
_ENDS_TO_BLOCK.setflags(write=False)


class _Layout(NamedTuple):
    """Read-only arrays of a rebuild that depend on the sample count alone."""

    grid: np.ndarray  # the cells + 1 cell ends; the last is pi / 2
    cc: np.ndarray  # cos**2 at each cell's 4 Gauss nodes and its start, (5, cells)
    weights: np.ndarray  # the Gauss weights times the cell width
    t: np.ndarray  # scaled times j / n, j = 0 .. n


def _build_layout(n_samples: int) -> _Layout:
    half = n_samples // 2
    cells = max(half, _MIN_CELLS)
    w = 0.5 * math.pi / cells
    grid = np.arange(cells + 1) * w
    grid[-1] = 0.5 * math.pi
    # Offsets of the rows in a cell: the Gauss nodes, then the start.
    cc = (w * np.append(_GL_NODES[:-1], 0.0))[:, None] + grid[:-1]
    np.cos(cc, out=cc)
    cc *= cc
    layout = _Layout(
        grid=grid,
        cc=cc,
        weights=_GL_WEIGHTS * w,
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


def _grid_values(
    a: float, cc: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(H at the cell ends, H' at the cell starts) from the layout's cos**2 table.

    Each cell's increment of H is its Gauss rule on H' (see the module
    docstring), and the increments are added up with the rounding error of
    every addition carried along: a plain running sum over the cells
    gathers an error that grows with their count.  The last value is the
    sum over every cell, an approximation of G(1).
    """
    slope = cc - a
    np.sqrt(slope, out=slope)
    np.divide(cc, slope, out=slope)
    cells = weights @ slope[:-1]
    h_grid = np.empty(cells.size + 1)
    h_grid[0] = 0.0
    run, prev = h_grid[1:], h_grid[:-1]
    np.add.accumulate(cells, out=run)
    # Fast2Sum: prev[k] >= cells[k], so cells[k] - (run[k] - prev[k]) is
    # the exact rounding error of run[k] = prev[k] + cells[k].
    cells -= run - prev
    run += np.add.accumulate(cells, out=cells)
    return h_grid, slope[-1]


def _hermite_seed(
    grid: np.ndarray, h_grid: np.ndarray, slope: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(ends, rest): rows p0 and p, each target's cell start and Newton's
    seed, and target - H(p0).

    Each sample inverts H only inside its grid cell [p0, p0 + w]:
    H(p) = H(p0) + int_{p0}^{p} H'(s) ds, so Newton needs H' alone.  No
    target reaches the last cell (module docstring), so both ends of a
    sample's cell are cell starts, with H' in ``slope``.  The seed is the
    cubic Hermite interpolant of the inverse on the cell, with slopes
    1 / H' at its ends:

        p = p0 + tau (w + (1 - tau) (d0 (1 - tau) - d1 tau)),

    where tau = rest / cell, cell is the cell's increment of H, and
    d = cell / H' - w at either end.
    """
    w = float(grid[1])  # the cell width: grid[k] = k w
    # j is the cell of each target: h_grid[j] <= target < h_grid[j + 1].
    j = h_grid[1:].searchsorted(target, "right")
    h0 = h_grid[j]
    rest = target - h0
    cell = h_grid[1:][j]
    cell -= h0
    tau = rest / cell
    d0 = slope[j]
    np.divide(cell, d0, out=d0)
    d0 -= w
    d1 = slope[1:][j]
    np.divide(cell, d1, out=d1)
    d1 -= w
    d1 *= tau
    tau_c = np.subtract(1.0, tau, out=cell)
    d0 *= tau_c
    d0 -= d1
    d0 *= tau_c
    d0 += w
    d0 *= tau
    ends = np.empty((2, target.size))
    p0 = grid.take(j, out=ends[0])
    np.add(d0, p0, out=ends[1])
    return ends, rest


def _newton(ends: np.ndarray, rest: np.ndarray, b: float) -> tuple[float, float, float]:
    """Take one corrected Newton step on every sample, in place in ``ends[1]``.

    Returns the largest step |d| and the two sides of the one-reduction
    settle bound, max |d|**3 (10 max tan(p)**2 + 2) and 6 eps min p: every
    sample has settled if the first is at most the second.
    """
    p = ends[1]
    # The Newton block, nodes by samples.  One product with the ends fills
    # rows 0 to 5: the width, the Gauss nodes on [p0, p], and p.  Rows 1 to
    # 5 then take tan**2, and rows 6 and 7 take |d| and -p, so that rows 5
    # to 7 are what the settle bound reduces.  Rows 8 to 18 are work space:
    # cos**2 and then H' at the nodes and p, cos**2 + b, and (1 + q) / 2.
    blk = np.empty((19, p.size))
    width, at_nodes, bound = blk[0], blk[1:6], blk[5:8]
    tan2, size, neg_p = bound
    den, work, hq = blk[8:13], blk[13:18], blk[18]
    np.matmul(_ENDS_TO_BLOCK, ends, out=blk[:6])
    np.tan(at_nodes, out=at_nodes)
    at_nodes *= at_nodes
    # cos**2 = 1 / (1 + tan**2), then H' = cos**2 / sqrt(cos**2 + b).
    np.add(at_nodes, 1.0, out=den)
    np.divide(1.0, den, out=den)
    np.add(den, b, out=work)
    np.divide(0.5 * b, work[-1], out=hq)
    hq += 0.5
    np.sqrt(work, out=work)
    den /= work
    step = _GL_WEIGHTS @ den[:-1]
    step *= width
    np.subtract(rest, step, out=step)
    step /= den[-1]
    np.abs(step, out=size)
    np.negative(p, out=neg_p)
    # The settle bound (module docstring), with max(-p) = -min(p).
    tan2_max, d_max, neg_p_max = np.maximum.reduce(bound, axis=1).tolist()
    # p += step (1 + K step), with K = tan(p) (1 + q) / 2.
    k_step = np.sqrt(tan2, out=tan2)
    k_step *= hq
    k_step *= step
    k_step += 1.0
    k_step *= step
    p += k_step
    return d_max, d_max**3 * (10.0 * tan2_max + 2.0), 6.0 * _EPS * -neg_p_max


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled period of the regularized orbit on a uniform scaled-time grid.

    ``t`` holds the scaled times j / n_samples in [0, 1] and ``q1`` the inner
    electron positions, starting at ``orbit.q1max``; ``orbit`` is the solved
    orbit they were rebuilt from.  The outer electron is constant at
    ``orbit.qbar2``, and physical time is ``t * orbit.eta``.
    :func:`reconstruct` builds each instance through the private
    constructor ``solver._frozen``, one dict write in place of the
    generated ``__init__``'s ``object.__setattr__`` per field, as for
    :class:`OrbitSolution`; copies, pickles, repr and
    ``dataclasses.replace`` are those of the dataclass, and equality is
    identity, as ``eq=False`` gives.
    """

    t: np.ndarray
    q1: np.ndarray
    orbit: OrbitSolution


def reconstruct(sol: OrbitSolution, n_samples: int = 512) -> Trajectory:
    """Sample one period of the orbit at n_samples + 1 uniform scaled times.

    ``n_samples`` must be an even integer (the collision then falls exactly
    on a grid point) from 16 to 2**20.  The first-half samples invert the
    time map by one whole-array Newton step in the angle p, anchored in
    the cells of a uniform angle grid and seeded by cubic Hermite
    interpolation of the inverse on each cell.  The grid has
    max(n_samples / 2, 256) cells, and its values are compensated running
    sums of each cell's 4-point Gauss rule on H'; Newton takes H inside a
    cell by the same rule (see the module docstring).  The last grid
    value is G(1) = I_{1/2}(a) / 2 from the moment.  The Newton step d is
    corrected by its second-order term K d**2.  The second half is
    mirrored, so the collision is crossed rather than integrated through.
    The step is accepted if one bound over all samples puts the
    third-order error it predicts at most eps * p at every sample.  A step
    that fails the bound, or a first half period whose q1 fails to fall,
    raises ConvergenceError.
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
    grid, cc, weights, t = _layout(n_samples)
    h_grid, slope = _grid_values(a, cc, weights)
    # Frees an uncached layout's cos**2 table (2.5 floats per sample).
    del cc
    # G(1) = I_{1/2}(a) / 2 (substitute r = 1 - u**2) keeps the targets
    # exact where the last cell's Gauss rule is poor, at tiny b.
    g_full = 0.5 * ratio_integrals(a)[0]
    h_grid[-1] = g_full
    # The times 1/n .. (half - 1)/n are the targets' fractions of 2 G(1).
    target = t[1:half] * (2.0 * g_full)
    ends, rest = _hermite_seed(grid, h_grid, slope, target)
    # Newton needs none of these; an uncached layout's grid goes with them.
    del h_grid, slope, target, grid
    worst, left, right = _newton(ends, rest, -a)
    # Written so that a NaN side fails the bound too.
    if not left <= right:
        raise ConvergenceError(
            "time-map inversion did not settle in its Newton step: "
            f"max|d|**3 (10 max tan(p)**2 + 2) = {left:.3e} > 6 eps min p = {right:.3e} "
            f"(a={a!r}, n_samples={n_samples}, worst step {worst:.3e})",
            mu=sol.mu,
            a=a,
            last=worst,
        )

    q1 = np.empty(n_samples + 1)
    q1[0] = sol.q1max
    # q1 = q1max cos(p)**2 = q1max / (1 + tan(p)**2).
    inner = q1[1:half]
    np.tan(ends[1], out=inner)
    inner *= inner
    inner += 1.0
    np.divide(sol.q1max, inner, out=inner)
    q1[half] = 0.0
    q1[half + 1 :] = q1[half - 1 :: -1]

    falls = q1[1 : half + 1] < q1[:half]
    if not falls.all():
        raise ConvergenceError(
            "time-map inversion produced a non-monotone first half period: "
            f"q1 does not fall at sample {int(falls.argmin()) + 1} "
            f"(a={a!r}, n_samples={n_samples})",
            mu=sol.mu,
            a=a,
        )

    q1.setflags(write=False)
    # A view of the cached times: its write flag cannot be set again.
    return _frozen(Trajectory, {"t": t.view(), "q1": q1, "orbit": sol})


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
    scale = math.ldexp(1.0, -math.frexp(traj.orbit.qbar1)[1])
    q = traj.q1 * scale
    m_h = float(np.trapezoid(q, dx=1.0))
    m_2h = float(np.trapezoid(q[::2], dx=2.0))
    n = q.shape[0] - 1
    return (m_h + (m_h - m_2h) / (2.0 ** (5.0 / 3.0) - 1.0)) / n / scale


def mean_residual(traj: Trajectory) -> float:
    """Signed defect (time mean of q1) - qbar1; near 0 for a valid orbit."""
    return mean_q1(traj) - traj.orbit.qbar1


def energy_residual(traj: Trajectory) -> float:
    """Signed defect of the orbit's total energy from -1 (its exact value).

    The kinetic part of the time average is eliminated through the
    conserved swing relation

        q1'(t)**2 / (2 * eta**2) - mu / q1 = kappa - q1 / (gamma**2 * qbar1**2),

    which holds pointwise along the orbit, so only the mean of q1 itself
    enters and the collision costs no accuracy.
    """
    orbit = traj.orbit
    gamma, qbar1 = orbit.gamma, orbit.qbar1
    mean = mean_q1(traj)
    return (
        orbit.kappa
        - mean / (gamma * gamma * qbar1 * qbar1)
        - orbit.mu / orbit.qbar2
        + 1.0 / (gamma * qbar1)
        + 1.0
    )
