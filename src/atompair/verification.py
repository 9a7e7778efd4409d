"""Cross-solver agreement and conservation-law checks.

The three solution routes (residue closed form, adaptive ODE, direct memory
kernel) share no numerics, so their mutual agreement is the strongest
correctness evidence the package can produce.  All three run on every
parameter set, repeated characteristic roots included.  Rates and times are
in units of the reservoir half-width lambda (see :mod:`atompair.model`).  This module packages
those comparisons for both the test suite and the ``verify`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import residue_coefficients
from .dynamics import (
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
    "compare_solvers",
    "sample_volterra",
]

THREE_SOLVER_TOL = 1e-5
LEAK_IDENTITY_TOL = 1e-6

# The adaptive route's (relative, absolute) tolerances for verification:
# they keep the step polynomials' balance defect, per unit time of the
# fastest rate, well below LEAK_IDENTITY_TOL (at most 4e-12 on 20 random
# points of the verification box).
LEAK_IDENTITY_CONFIG = (1e-11, 1e-13)

# Size of the shared comparison grid; the memory-kernel route's steps are
# rounded up to a multiple of ``COMPARE_POINTS - 1`` (see sample_volterra).
COMPARE_POINTS = 2001

# dP/dt = -2 |b|^2 <= 0 for the tracked population P, so a memory-kernel
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
        If that makes a step count :func:`integrate_volterra` refuses.
    """
    stride = -(-n_steps // (samples - 1))
    traj = integrate_volterra(
        params, init, t_end, stride * (samples - 1), _kernel_sign=_kernel_sign
    )
    if _kernel_sign == 1.0:
        with np.errstate(over="ignore", invalid="ignore"):
            peak = float(traj.tracked_population.max())
        if not peak <= 1.0 + POPULATION_GROWTH_TOL:
            raise PopulationGrowthError(peak, len(traj) - 1)
    idx = slice(None, None, stride)
    return Trajectory(init=traj.init, t=traj.t[idx], c1=traj.c1[idx], c2=traj.c2[idx],
                      b=traj.b[idx], solver_tag="volterra")


@dataclass(frozen=True)
class SolverComparison:
    """Pairwise sup-norm discrepancies on a shared grid, and the balance
    residual per unit time of the fastest rate."""

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
    every one of its steps.  The balance defect ``dP/dt + 2 |b|^2``
    grows in proportion to the fastest rate, so it is reported divided by
    the largest entry of ``|M|``: the defect per unit time of that rate.
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
        balance=_balance_residual(M, bounds, ys) / np.abs(M).max(),
    )

