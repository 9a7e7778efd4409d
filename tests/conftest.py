"""Shared parameter factories for the test suite."""

import math

import numpy as np
import pytest

from atompair import InitialAmplitudes, SystemParams, Trajectory
from atompair.dynamics import _adaptive_run, _balance_residual, _dense_output
from atompair.verification import LEAK_IDENTITY_CONFIG

SQRT3_2 = math.sqrt(3.0) / 2.0
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def fig_params(K: float, R: float = 10.0, r1: float = SQRT3_2) -> SystemParams:
    """Good-cavity regime parameters, in units of lambda: alphas normalized so W equals R."""
    r2 = math.sqrt(1.0 - r1 * r1)
    return SystemParams(W=R, alpha1=r1, alpha2=r2, K=K)


def equal_params(K: float, R: float = 10.0) -> SystemParams:
    return SystemParams(W=R, alpha1=INV_SQRT2, alpha2=INV_SQRT2, K=K)


def random_params(rng: np.random.Generator) -> SystemParams:
    """Draw from the randomized verification box: R in [0.5,20], K in [-20,20]."""
    r1 = rng.uniform(0.05, 0.95)
    return fig_params(
        K=rng.uniform(-20.0, 20.0), R=rng.uniform(0.5, 20.0), r1=r1
    )


def largest_discrepancy(comp) -> float:
    """The largest of a solver comparison's three pairwise discrepancies."""
    return max(comp.closed_vs_ode, comp.closed_vs_volterra, comp.ode_vs_volterra)


def adaptive_trajectory(p, init, t_end, tolerances, times=None) -> Trajectory:
    """The adaptive route's trajectory, as integrate_pseudomode returns it, at
    the (relative, absolute) pair ``tolerances`` instead of the route's own."""
    M, t, y = _adaptive_run(p, init, t_end, tolerances)
    if times is not None:
        t, y = times, _dense_output(M, t, y, times)
    return Trajectory(init=init, t=t, c1=y[0], c2=y[1], b=y[2], solver_tag="pseudomode_ode")


def balance_residual(p, init, t_end) -> float:
    """The population-balance residual that ``verify`` reads: the largest
    defect of the adaptive route's step polynomials, run at LEAK_IDENTITY_CONFIG."""
    return _balance_residual(*_adaptive_run(p, init, t_end, LEAK_IDENTITY_CONFIG))


def random_init(rng: np.random.Generator) -> InitialAmplitudes:
    v = rng.normal(size=4)
    c10 = complex(v[0], v[1])
    c20 = complex(v[2], v[3])
    n = math.sqrt(abs(c10) ** 2 + abs(c20) ** 2)
    return InitialAmplitudes(c10 / n, c20 / n)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
