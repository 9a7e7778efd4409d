"""Exact entanglement dynamics of two dipole-coupled atoms in a Lorentzian reservoir.

Three mutually verifying solution routes, observables, asymptotic analysis,
and a CLI for runs, sweeps, and cross-checks.
"""

__version__ = "0.1.0"

from .analysis import (
    SteadyStateVerdict,
    asymptotic_t_end,
    concurrence_array,
    concurrence_series,
    disentanglement_time,
    steady_state_verdict,
)
from .closedform import (
    CharacteristicCubic,
    ResidueSolution,
    char_roots,
    residue_coefficients,
)
from .dynamics import (
    StepBudgetError,
    Trajectory,
    integrate_pseudomode,
    integrate_volterra,
    leak_series,
    sample_closed_form,
)
from .model import InitialAmplitudes, SystemParams, bell_state
from .verification import SolverComparison, compare_solvers

__all__ = [
    "__version__",
    "SystemParams", "InitialAmplitudes", "bell_state",
    "CharacteristicCubic", "ResidueSolution",
    "char_roots", "residue_coefficients",
    "Trajectory", "StepBudgetError",
    "integrate_pseudomode", "integrate_volterra", "sample_closed_form",
    "leak_series",
    "SteadyStateVerdict", "concurrence_array",
    "concurrence_series", "steady_state_verdict", "asymptotic_t_end", "disentanglement_time",
    "SolverComparison", "compare_solvers",
]
