"""Collision-regularized quadratures: ratio integrals, shape functional, period.

The building block is the pair of singular moment integrals

    I_k(a) = int_0^1 r**k / sqrt((1 - r) * (r - a)) dr,   k in {1/2, 3/2},

for a <= 0.  The square-root substitution r = sin(theta)**2 removes the
1/sqrt(1 - r) endpoint singularity and simultaneously straightens the
r**k branch at r = 0, giving

    I_k = 2 * int_0^{pi/2} sin(theta)**(2k+1) / sqrt(sin(theta)**2 - a) dtheta

with an integrand analytic in theta, so Gauss-Legendre under node doubling
converges geometrically uniformly in a.  Each estimate evaluates the
integrand once on the nodes of a stacked node table and sums every level
of it in one matrix-vector product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._gauss import MAX_NODES, converge_levels
from .errors import DomainError
from .model import sigma_pair


@dataclass(frozen=True)
class QuadratureConfig:
    """Node-doubling policy shared by every quadrature in the package.

    Starting from ``base_nodes`` Gauss-Legendre nodes, the node count is
    doubled (at most ``max_doublings`` times) until two consecutive
    doublings each change the result by no more than ``rel_tol`` relative.
    ``base_nodes`` may not exceed ``MAX_NODES`` (8192), and a quadrature
    that would need a level above it raises ``ConvergenceError``.
    """

    base_nodes: int = 64
    max_doublings: int = 6
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 2 <= self.base_nodes <= MAX_NODES:
            raise DomainError(
                f"base_nodes must lie in [2, {MAX_NODES}], got {self.base_nodes!r}"
            )
        if self.max_doublings < 1:
            raise DomainError(f"max_doublings must be >= 1, got {self.max_doublings!r}")
        if not 1e-14 <= self.rel_tol <= 1e-6:
            raise DomainError(
                f"rel_tol must lie in [1e-14, 1e-6], got {self.rel_tol!r}"
            )


DEFAULT_CONFIG = QuadratureConfig()


class RatioIntegrals(NamedTuple):
    """The two moment integrals at a common parameter a <= 0."""

    i_half: float
    i_three_half: float
    a: float


def ratio_integrals(a: float, config: QuadratureConfig = DEFAULT_CONFIG) -> RatioIntegrals:
    """Evaluate I_{1/2}(a) and I_{3/2}(a) together on shared nodes.

    Requires a <= 0 (for a > 0 the integrand changes character and the
    desingularization above is invalid).  Both components must pass the
    doubling test before the pair is accepted.
    """
    if not -math.inf < a <= 0.0:
        raise DomainError(f"ratio integrals require a finite a <= 0, got a={a!r}")

    def estimate(table):
        # Both moments share the factor 1/sqrt(sin(theta)**2 - a).
        return table.wk.dot(1.0 / np.sqrt(table.s2 - a)).tolist()

    i_half, i_three_half = converge_levels(
        estimate, config.base_nodes, config.max_doublings, config.rel_tol
    )
    return RatioIntegrals(i_half=i_half, i_three_half=i_three_half, a=a)


def big_f(gamma: float, x: float, config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Shape functional F(gamma, x) = sigma_plus * I_{3/2}(a) / I_{1/2}(a).

    Here a = sigma_minus / sigma_plus at the point (gamma, x).  For fixed
    gamma > 0 the map x -> F(gamma, x) is strictly decreasing from a value
    >= 8/3 at x = 0 towards 0, and the mean position of the periodic orbit
    is the unique x solving F(gamma, x) = 2.  Rounding can push a to a tiny
    positive value where it vanishes analytically (gamma = -1, x < 2); such
    values are clamped to 0.
    """
    pair = sigma_pair(gamma, x)
    if pair.plus <= 0.0:
        raise DomainError(
            f"shape functional undefined where sigma_plus <= 0 (gamma={gamma!r}, x={x!r})"
        )
    a = pair.minus / pair.plus
    if a > 0.0:
        a = 0.0
    ints = ratio_integrals(a, config)
    return pair.plus * ints.i_three_half / ints.i_half


def period(gamma: float, qbar1: float, config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Orbit period eta = sqrt(2) * gamma * qbar1 * sqrt(q1max) * I_{1/2}(a).

    ``qbar1`` is the orbit mean, q1max / q1antimax are its energy-relation
    roots, and a is their ratio; the kappa value consistent with
    (gamma, qbar1) is built into the sigma roots, so only those two
    arguments are needed.
    """
    if qbar1 <= 0.0:
        raise DomainError(f"period requires qbar1 > 0, got {qbar1!r}")
    pair = sigma_pair(gamma, qbar1)
    if pair.plus <= 0.0:
        raise DomainError(f"period undefined where sigma_plus <= 0 (gamma={gamma!r})")
    q1max = 0.5 * pair.plus * qbar1
    a = min(pair.minus / pair.plus, 0.0)
    ints = ratio_integrals(a, config)
    return math.sqrt(2.0) * gamma * qbar1 * math.sqrt(q1max) * ints.i_half


# Angles per converge_levels call of the time map: bounds its work arrays at
# _TIME_BLOCK * (nodes of the table) values, whatever the number of angles.
_TIME_BLOCK = 32


def _time_map(a: float, p: np.ndarray, config: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """H(p) = G(sin p) = int_0^p cos(s)**2 / sqrt(cos(s)**2 - a) ds, elementwise.

    ``p`` holds angles in [0, pi/2] and ``a`` is finite and <= 0; callers
    check both.  The integrand is analytic in s up to and including the
    swing endpoint p = pi/2.  Angles are evaluated in blocks of
    ``_TIME_BLOCK``, each block on shared nodes, and every angle of a block
    must pass the doubling test before the block is accepted.
    """
    out = np.empty(p.shape)
    for start in range(0, p.size, _TIME_BLOCK):
        block = p[start : start + _TIME_BLOCK]

        def estimate(table):
            # int_0^1 cos(p*t)**2 / sqrt(cos(p*t)**2 - a) dt for each p of the
            # block, level by level; the factor p is applied once below.
            c = np.cos(np.multiply.outer(block, table.u))
            cc = c * c
            return table.w.dot((cc / np.sqrt(cc - a)).T).ravel().tolist()

        out[start : start + block.size] = block * np.array(
            converge_levels(estimate, config.base_nodes, config.max_doublings, config.rel_tol)
        )
    return out


def time_integral(
    a: float, upper: float, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Time-of-flight kernel G(upper) = int_0^upper sqrt(1-u**2)/sqrt(1-u**2-a) du.

    Monotone increasing in ``upper`` on [0, 1]; G(U)/(2*G(1)) is the scaled
    time at which the inner electron passes q1 = q1max * (1 - U**2).
    Evaluated by ``_time_map`` at the single angle p = asin(upper).
    """
    if not -math.inf < a <= 0.0:
        raise DomainError(f"time integral requires a finite a <= 0, got a={a!r}")
    if not 0.0 <= upper <= 1.0:
        raise DomainError(f"time integral requires 0 <= upper <= 1, got {upper!r}")
    return float(_time_map(a, np.array([math.asin(upper)]), config)[0])
