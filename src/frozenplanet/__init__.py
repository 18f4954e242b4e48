"""Periodic orbits of the mean-interaction collinear helium model.

For every nucleus charge mu > 1 the model has a unique simple periodic
orbit: the outer electron freezes at a constant position while the inner
one bounces between its swing maximum and a regularized collision with the
nucleus.  This package solves for that orbit, reconstructs its trajectory
and period, and classifies whether the electron orbits intersect against
the lemniscatic-constant threshold charge.
"""

from .errors import ConvergenceError, DomainError
from .intersect import IntersectionClass, classify, classify_kappa, critical_gamma, critical_mu
from .model import (
    gamma_of_mu,
    kappa_of,
    mu_of_gamma,
    q1_extrema,
    q1max_of_kappa,
    qbar2_of,
    sigma_pair,
)
from .orbit import Trajectory, energy_residual, mean_q1, mean_residual, reconstruct
from .quadrature import big_f, period, ratio_integrals, time_integral
from .solver import OrbitSolution, fixpoint_residual, solve_orbit
from .specialfn import beta_fn, gamma_fn, lemniscate_constant

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "IntersectionClass",
    "OrbitSolution",
    "Trajectory",
    "beta_fn",
    "big_f",
    "classify",
    "classify_kappa",
    "critical_gamma",
    "critical_mu",
    "energy_residual",
    "fixpoint_residual",
    "gamma_fn",
    "gamma_of_mu",
    "kappa_of",
    "lemniscate_constant",
    "mean_q1",
    "mean_residual",
    "mu_of_gamma",
    "period",
    "q1_extrema",
    "q1max_of_kappa",
    "qbar2_of",
    "ratio_integrals",
    "reconstruct",
    "sigma_pair",
    "solve_orbit",
    "time_integral",
    "__version__",
]
