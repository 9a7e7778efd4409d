"""Cross-solver agreement and conservation-law checks.

The three solution routes (residue closed form, adaptive ODE, direct memory
kernel) share no numerics, so their mutual agreement is the strongest
correctness evidence the package can produce.  All three run on every
parameter set, repeated characteristic roots included.  This module packages
those comparisons for both the test suite and the ``verify`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    IntegratorConfig,
    Trajectory,
    _balance_blocks,
    integrate_pseudomode,
    integrate_volterra,
    sample_closed_form,
)
from .model import InitialAmplitudes, SystemParams

__all__ = [
    "COMPARE_POINTS",
    "THREE_SOLVER_TOL",
    "LEAK_IDENTITY_TOL",
    "LEAK_IDENTITY_DT",
    "LEAK_IDENTITY_CONFIG",
    "POPULATION_GROWTH_TOL",
    "PopulationGrowthError",
    "SolverComparison",
    "check_population_decay",
    "compare_solvers",
    "leak_identity_residual",
]

THREE_SOLVER_TOL = 1e-5
LEAK_IDENTITY_TOL = 1e-6

# The balance check's node spacing and the adaptive route's tolerances for
# it: they keep both the O(dt^2) differencing bias and the interpolation
# noise well below LEAK_IDENTITY_TOL at the frequency scales of interest.
LEAK_IDENTITY_DT = 5e-5
LEAK_IDENTITY_CONFIG = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)

# Size of the shared comparison grid; ``n_steps`` must be a multiple of
# ``COMPARE_POINTS - 1``.
COMPARE_POINTS = 2001

# dP/dt = -2 lam |b|^2 <= 0 for the tracked population P, so a memory-kernel
# run whose P exceeds 1 + POPULATION_GROWTH_TOL took steps that outran the
# fastest rate.
POPULATION_GROWTH_TOL = 1e-6


class PopulationGrowthError(Exception):
    """A trajectory's tracked population grew past 1 + POPULATION_GROWTH_TOL, or is NaN."""

    def __init__(self, peak: float) -> None:
        super().__init__(f"the memory-kernel route's tracked population grew to {peak:.3e}")
        self.peak = peak


def check_population_decay(traj: Trajectory) -> None:
    """Raise :class:`PopulationGrowthError` unless ``traj``'s tracked population stays
    at most 1 + POPULATION_GROWTH_TOL."""
    with np.errstate(over="ignore", invalid="ignore"):
        peak = float(traj.tracked_population.max())
    if not peak <= 1.0 + POPULATION_GROWTH_TOL:
        raise PopulationGrowthError(peak)


def _sup_norm(a: Trajectory, b: Trajectory, idx_a=slice(None), idx_b=slice(None)) -> float:
    return max(
        float(np.abs(a.c1[idx_a] - b.c1[idx_b]).max()),
        float(np.abs(a.c2[idx_a] - b.c2[idx_b]).max()),
        float(np.abs(a.b[idx_a] - b.b[idx_b]).max()),
    )


@dataclass(frozen=True)
class SolverComparison:
    """Pairwise sup-norm discrepancies on a shared grid."""

    closed_vs_ode: float
    closed_vs_volterra: float
    ode_vs_volterra: float

    def worst(self) -> float:
        return max(self.closed_vs_ode, self.closed_vs_volterra, self.ode_vs_volterra)


def compare_solvers(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float = 10.0,
    n_steps: int = 20000,
    _kernel_sign: float = 1.0,
) -> SolverComparison:
    """Run all three solvers and report pairwise sup-norm discrepancies.

    The comparison grid has ``COMPARE_POINTS`` uniform points;
    ``COMPARE_POINTS - 1`` must divide ``n_steps`` so the memory-kernel
    solver's own grid contains it exactly.  The adaptive route runs with the
    default :class:`IntegratorConfig`.  The memory-kernel route runs first:
    with the true kernel sign, a tracked population that grows raises
    :class:`PopulationGrowthError` before the adaptive route starts.
    """
    if n_steps % (COMPARE_POINTS - 1) != 0:
        raise ValueError("COMPARE_POINTS - 1 must divide n_steps")
    stride = n_steps // (COMPARE_POINTS - 1)
    grid = np.linspace(0.0, t_end, COMPARE_POINTS)

    vol = integrate_volterra(params, init, t_end, n_steps, _kernel_sign=_kernel_sign)
    if _kernel_sign == 1.0:
        check_population_decay(vol)
    ode = integrate_pseudomode(params, init, t_end, times=grid)
    vol_idx = slice(None, None, stride)
    closed = sample_closed_form(params, init, grid)
    return SolverComparison(
        closed_vs_ode=_sup_norm(closed, ode),
        closed_vs_volterra=_sup_norm(closed, vol, slice(None), vol_idx),
        ode_vs_volterra=_sup_norm(ode, vol, slice(None), vol_idx),
    )


def leak_identity_residual(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float = 10.0,
) -> float:
    """Worst-case residual of the population balance along dense ODE output.

    The tracked population P = |c1|^2 + |c2|^2 + |b|^2 obeys
    dP/dt = -2 lam |b|^2 exactly.  The check runs the adaptive route with
    ``LEAK_IDENTITY_CONFIG``, samples its dense output at spacing
    ``LEAK_IDENTITY_DT / 2``, forms the difference quotient of P between
    consecutive even grid nodes, and compares it with -2 lam |b|^2
    evaluated at the odd nodes between them; the returned value is the
    largest absolute mismatch.  The dense output is the one that
    :func:`integrate_pseudomode` samples on a grid.

    The grid is walked a block at a time, so memory does not grow with it;
    a NaN anywhere makes the result NaN.
    """
    # a horizon below the spacing still gets one pair
    n_pairs = max(1, round(t_end / LEAK_IDENTITY_DT))
    h = 2.0 * (t_end / (2 * n_pairs))  # the pair's width, as linspace spaces the nodes
    worst = np.float64(0.0)
    for y, b in _balance_blocks(params, init, t_end, n_pairs, LEAK_IDENTITY_CONFIG):
        pop = np.abs(y[0]) ** 2 + np.abs(y[1]) ** 2 + np.abs(y[2]) ** 2
        quotient = (pop[1:] - pop[:-1]) / h
        rate_mid = -2.0 * params.lam * np.abs(b) ** 2
        worst = np.maximum(worst, np.abs(quotient - rate_mid).max())
    return float(worst)
