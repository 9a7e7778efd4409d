"""Shared parameter factories for the test suite."""

import math

import numpy as np
import pytest

from atompair import InitialAmplitudes, SystemParams

SQRT3_2 = math.sqrt(3.0) / 2.0
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def fig_params(K: float, R: float = 10.0, r1: float = SQRT3_2, lam: float = 1.0) -> SystemParams:
    """Good-cavity regime parameters: alphas normalized so W equals R."""
    r2 = math.sqrt(1.0 - r1 * r1)
    return SystemParams(lam=lam, W=R, alpha1=r1, alpha2=r2, K=K)


def equal_params(K: float, R: float = 10.0, lam: float = 1.0) -> SystemParams:
    return SystemParams(lam=lam, W=R, alpha1=INV_SQRT2, alpha2=INV_SQRT2, K=K)


def random_params(rng: np.random.Generator) -> SystemParams:
    """Draw from the randomized verification box: lam=1, R in [0.5,20], K in [-20,20]."""
    r1 = rng.uniform(0.05, 0.95)
    return fig_params(
        K=rng.uniform(-20.0, 20.0), R=rng.uniform(0.5, 20.0), r1=r1
    )


def largest_discrepancy(comp) -> float:
    """The largest of a solver comparison's three pairwise discrepancies."""
    return max(comp.closed_vs_ode, comp.closed_vs_volterra, comp.ode_vs_volterra)


def random_init(rng: np.random.Generator) -> InitialAmplitudes:
    v = rng.normal(size=4)
    c10 = complex(v[0], v[1])
    c20 = complex(v[2], v[3])
    n = math.sqrt(abs(c10) ** 2 + abs(c20) ** 2)
    return InitialAmplitudes(c10 / n, c20 / n)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
