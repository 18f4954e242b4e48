"""Shared fixtures: solved orbits reused across test modules."""

import pytest

import frozenplanet as fp
from frozenplanet import orbit, specialfn

_CACHED_CONSTANTS = (
    fp.lemniscate_constant,
    fp.critical_gamma,
    fp.critical_mu,
)


@pytest.fixture(scope="session")
def sol_mu2():
    return fp.solve_orbit(2.0)


@pytest.fixture(scope="session")
def sol_mu4():
    return fp.solve_orbit(4.0)


@pytest.fixture(scope="session")
def sol_touch():
    return fp.solve_orbit(fp.critical_mu())


@pytest.fixture(scope="session")
def traj_mu2(sol_mu2):
    return fp.reconstruct(sol_mu2, 1024)


@pytest.fixture
def broken_varpi(monkeypatch):
    """Make the arc-length route of the lemniscatic constant disagree.

    The cached constants built on it are cleared before and after, so no
    other test sees a value computed while the route was broken.
    """
    for fn in _CACHED_CONSTANTS:
        fn.cache_clear()
    monkeypatch.setattr(specialfn, "_varpi_integral", lambda: 2.6)
    yield
    monkeypatch.undo()
    for fn in _CACHED_CONSTANTS:
        fn.cache_clear()


@pytest.fixture
def unsettled_rebuild(monkeypatch):
    """Seed every rebuild at its cells' midpoints.

    The one Newton step from the Hermite seed settles every sample at every
    sample count; one step from a midpoint does not, so the rebuild must
    report its failure to converge.
    """
    hermite = orbit._hermite_seed

    def midpoint(grid, h_grid, slope, target):
        ends, rest = hermite(grid, h_grid, slope, target)
        ends[1] = ends[0] + 0.5 * grid[1]
        return ends, rest

    monkeypatch.setattr(orbit, "_hermite_seed", midpoint)
