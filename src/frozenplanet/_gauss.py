"""Stacked Gauss-Legendre node tables on [0, 1] and the node-doubling loop.

Every quadrature in the package is a weighted sum over Gauss-Legendre
levels whose node counts double from one to the next.  A node table holds
``m`` consecutive levels (n, 2n, ..., 2**(m-1) * n nodes) side by side, so
an integrand is evaluated once on all of their nodes and one matrix-vector
product with a block-row weight matrix returns the rule of every level.
Tables are cached per (n, m) as read-only arrays, safe to share across
threads, because the deepest levels are expensive to generate: the
generator below costs O(n**2), so no level above ``MAX_NODES`` is built.
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError

# The doubling test needs two consecutive agreements, so every call
# evaluates at least three levels; they are computed in one product.
_STACKED_LEVELS = 3

# Largest Gauss-Legendre level ever built: the deepest level of the default
# policy started from 128 nodes (128 * 2**6).  Generating it takes about
# 0.6 s on a 2-vCPU host; each further doubling would take four times as long.
MAX_NODES = 8192

_EPS = float(np.finfo(float).eps)
# Newton reaches the rounding floor within four steps from the initial guess
# below for every n from 2 to 699 and at the doubling levels up to MAX_NODES.
_NEWTON_CAP = 10


class NodeTable(NamedTuple):
    """Consecutive Gauss-Legendre levels on [0, 1], concatenated.

    ``u`` holds the nodes of all levels, level after level.  Each weight
    matrix has one row per level (two for ``wk``), zero outside that
    level's block of nodes.  The ratio integrals are evaluated in the
    angle variable theta on [0, pi/2] (node theta_i = (pi/2) * u_i), so the
    table also carries

        s2 = sin(theta_i)**2
        wk = rows pi * w * s2     (weight for the k = 1/2 moment)
             and pi * w * s2**2   (weight for the k = 3/2 moment),
             interleaved level by level.
    """

    u: np.ndarray
    s2: np.ndarray
    w: np.ndarray
    wk: np.ndarray


_CACHE: dict[tuple[int, int], NodeTable] = {}
_LOCK = threading.Lock()


def _legendre_dtheta(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(cos theta) and its theta-derivative, by the three-term recurrence."""
    x = np.cos(theta)
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, n * (x * p - p_prev) / np.sin(theta)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n(cos theta) = 0 in the angle theta refines the
    non-negative roots from Tricomi's initial guess; the negative roots are
    their mirror images.  Newton stops once no step moves a node
    x = cos(theta) by more than a few units of rounding.  The weights are
    2 / (dP_n/dtheta)**2, evaluated at the final angles.
    """
    half = (n + 1) // 2
    k = np.arange(half, 0, -1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    theta += (n - 1) / (8.0 * n**3) / np.tan(theta)
    for _ in range(_NEWTON_CAP):
        p, dp = _legendre_dtheta(n, theta)
        step = p / dp
        theta -= step
        if np.max(np.abs(step) * np.sin(theta)) <= 4.0 * _EPS:
            break
    else:
        raise ConvergenceError(
            f"Gauss-Legendre nodes for n={n} did not settle in {_NEWTON_CAP} Newton steps"
        )
    x = np.cos(theta)
    w = 2.0 / _legendre_dtheta(n, theta)[1] ** 2
    # For odd n the first non-negative root is the middle one, x = 0, which
    # has no mirror image.
    odd = n % 2
    return (
        np.concatenate([-x[odd:][::-1], x]),
        np.concatenate([w[odd:][::-1], w]),
    )


def _build(n: int, levels: int) -> NodeTable:
    counts = [n * 2**i for i in range(levels)]
    u = np.empty(sum(counts))
    w = np.zeros((levels, u.size))
    start = 0
    for row, count in enumerate(counts):
        x, wx = _gauss_legendre(count)
        u[start : start + count] = 0.5 * (x + 1.0)
        w[row, start : start + count] = 0.5 * wx
        start += count
    s = np.sin(0.5 * np.pi * u)
    s2 = s * s
    ws = np.pi * w * s2
    wk = np.empty((2 * levels, u.size))
    wk[0::2] = ws
    wk[1::2] = ws * s2
    table = NodeTable(u, s2, w, wk)
    for arr in table:
        arr.setflags(write=False)
    return table


def node_table(n: int, levels: int = 1) -> NodeTable:
    """Return the cached table of ``levels`` levels starting at ``n`` nodes."""
    key = (n, levels)
    table = _CACHE.get(key)
    if table is not None:
        return table
    with _LOCK:
        table = _CACHE.get(key)
        if table is None:
            table = _build(n, levels)
            _CACHE[key] = table
    return table


def _agree(curr: Sequence[float], prev: Sequence[float], rel_tol: float) -> bool:
    for c, p in zip(curr, prev):
        if not abs(c - p) <= rel_tol * max(abs(c), 1e-300):
            return False
    return True


def converge_levels(
    estimate: Callable[[NodeTable], list[float]],
    base_nodes: int,
    max_doublings: int,
    rel_tol: float,
) -> tuple[float, ...]:
    """Double the node count until two consecutive estimates agree twice.

    ``estimate(table)`` returns, as a flat list of Python floats, the same
    number of values for each of the table's levels in order.  Every
    component must satisfy the relative tolerance on two successive
    doublings before the last estimate is accepted.  The leading levels
    (at most three) are requested in one call, then one level per doubling.
    A level above ``MAX_NODES`` is never built: reaching it raises
    ``ConvergenceError``, as running out of doublings does.
    """
    # Levels base_nodes * 2**k with k < depth stay within MAX_NODES.
    depth = (MAX_NODES // base_nodes).bit_length()
    if depth == 0:
        raise ConvergenceError(
            f"{base_nodes} quadrature nodes exceed MAX_NODES={MAX_NODES}"
        )
    first = min(_STACKED_LEVELS, max_doublings + 1, depth)
    values = estimate(node_table(base_nodes, first))
    width = len(values) // first
    prev = values[:width]
    agreed_once = False
    n = base_nodes
    for k in range(1, max_doublings + 1):
        n *= 2
        if k < first:
            curr = values[k * width : (k + 1) * width]
        elif k < depth:
            curr = estimate(node_table(n))
        else:
            raise ConvergenceError(
                f"quadrature did not settle to rel_tol={rel_tol:g} within "
                f"{k - 1} doublings from {base_nodes} nodes; the next level, "
                f"{n} nodes, would exceed MAX_NODES={MAX_NODES}"
            )
        agreed = _agree(curr, prev, rel_tol)
        if agreed and agreed_once:
            return tuple(curr)
        agreed_once = agreed
        prev = curr
    raise ConvergenceError(
        f"quadrature did not settle to rel_tol={rel_tol:g} within "
        f"{max_doublings} doublings from {base_nodes} nodes"
    )
