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

from .closedform import residue_coefficients
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    _adaptive_run,
    _balance_residual,
    _dense_output,
    integrate_volterra,
)
from .model import InitialAmplitudes, SystemParams

__all__ = [
    "COMPARE_POINTS",
    "THREE_SOLVER_TOL",
    "LEAK_IDENTITY_TOL",
    "LEAK_IDENTITY_CONFIG",
    "POPULATION_GROWTH_TOL",
    "PopulationGrowthError",
    "SolverComparison",
    "check_population_decay",
    "compare_solvers",
    "leak_identity_residual",
    "sample_volterra",
]

THREE_SOLVER_TOL = 1e-5
LEAK_IDENTITY_TOL = 1e-6

# The adaptive route's tolerances for verification: they keep the
# interpolant's balance defect well below LEAK_IDENTITY_TOL at the frequency
# scales of interest (at most 5e-9 on the verification box, lambda 1 to 10).
LEAK_IDENTITY_CONFIG = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)

# Size of the shared comparison grid; the memory-kernel route's steps are
# rounded up to a multiple of ``COMPARE_POINTS - 1`` (see sample_volterra).
COMPARE_POINTS = 2001

# dP/dt = -2 lam |b|^2 <= 0 for the tracked population P, so a memory-kernel
# run whose P exceeds 1 + POPULATION_GROWTH_TOL took steps that outran the
# fastest rate.
POPULATION_GROWTH_TOL = 1e-6


class PopulationGrowthError(Exception):
    """A trajectory's tracked population grew past 1 + POPULATION_GROWTH_TOL, or is NaN.

    ``steps`` is the number of steps the trajectory took.
    """

    def __init__(self, peak: float, steps: int) -> None:
        super().__init__(f"the memory-kernel route's tracked population grew to {peak:.3e}")
        self.peak = peak
        self.steps = steps


def check_population_decay(traj: Trajectory) -> None:
    """Raise :class:`PopulationGrowthError` unless ``traj``'s tracked population stays
    at most 1 + POPULATION_GROWTH_TOL."""
    with np.errstate(over="ignore", invalid="ignore"):
        peak = float(traj.tracked_population.max())
    if not peak <= 1.0 + POPULATION_GROWTH_TOL:
        raise PopulationGrowthError(peak, len(traj) - 1)


def sample_volterra(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float,
    n_steps: int,
    samples: int,
    _kernel_sign: float = 1.0,
) -> Trajectory:
    """The memory-kernel route on ``samples`` evenly spaced times from 0 to ``t_end``.

    The route takes the fewest steps per sample interval that make at least
    ``n_steps`` in all, so that its own grid contains the sample grid, and
    the result keeps the nodes on that grid.  With the true kernel sign, a
    tracked population that grows raises :class:`PopulationGrowthError`;
    ``_kernel_sign`` is :func:`integrate_volterra`'s verification hook.

    Raises
    ------
    ValueError
        If that makes fewer than the 100 steps :func:`integrate_volterra`
        takes at least.
    """
    stride = -(-n_steps // (samples - 1))
    steps = stride * (samples - 1)
    if steps < 100:
        raise ValueError(
            f"the memory-kernel route takes at least 100 steps, and {steps} on {samples} samples"
        )
    traj = integrate_volterra(params, init, t_end, steps, _kernel_sign=_kernel_sign)
    if _kernel_sign == 1.0:
        check_population_decay(traj)
    idx = slice(None, None, stride)
    return Trajectory(
        params=params, init=traj.init, t=traj.t[idx], c1=traj.c1[idx], c2=traj.c2[idx],
        b=traj.b[idx], solver_tag="volterra",
    )


@dataclass(frozen=True)
class SolverComparison:
    """Pairwise sup-norm discrepancies on a shared grid, and the balance residual."""

    closed_vs_ode: float
    closed_vs_volterra: float
    ode_vs_volterra: float
    balance: float


def compare_solvers(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float = 10.0,
    n_steps: int = 20000,
    _kernel_sign: float = 1.0,
) -> SolverComparison:
    """Run all three solvers and report pairwise sup-norm discrepancies.

    The comparison grid has ``COMPARE_POINTS`` uniform points.  The
    memory-kernel route takes ``n_steps`` rounded up to a multiple of
    ``COMPARE_POINTS - 1`` (:func:`sample_volterra`), so that its own grid
    contains the comparison grid exactly.  The memory-kernel route runs
    first: with the true kernel sign, a tracked population that grows raises
    :class:`PopulationGrowthError` before the adaptive route starts.  The
    adaptive route then runs once, at ``LEAK_IDENTITY_CONFIG``; the grid is
    sampled from its dense output, and the population balance is checked on
    every one of its steps.
    """
    grid = np.linspace(0.0, t_end, COMPARE_POINTS)
    vol = sample_volterra(params, init, t_end, n_steps, COMPARE_POINTS, _kernel_sign)
    M, bounds, ys = _adaptive_run(params, init, t_end, LEAK_IDENTITY_CONFIG)
    ode = _dense_output(M, bounds, ys, grid)
    closed = np.array(residue_coefficients(params, init).evolve(grid))
    vol = np.array([vol.c1, vol.c2, vol.b])
    sup = lambda a, b: float(np.abs(a - b).max())
    return SolverComparison(
        closed_vs_ode=sup(closed, ode),
        closed_vs_volterra=sup(closed, vol),
        ode_vs_volterra=sup(ode, vol),
        balance=_balance_residual(M, bounds, ys, params.lam),
    )


def leak_identity_residual(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float = 10.0,
) -> float:
    """Worst-case residual of the population balance along dense ODE output.

    The tracked population P = |c1|^2 + |c2|^2 + |b|^2 obeys
    dP/dt = -2 lam |b|^2 exactly.  The check runs the adaptive route with
    ``LEAK_IDENTITY_CONFIG`` to ``t_end`` and returns the largest defect
    P' + 2 lam |b|^2 of its interpolant, the one :func:`integrate_pseudomode`
    samples, at 16 midpoints of each step (:func:`_balance_residual`); a NaN
    anywhere makes the result NaN.
    """
    return _balance_residual(*_adaptive_run(params, init, t_end, LEAK_IDENTITY_CONFIG), params.lam)
