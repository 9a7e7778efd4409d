"""Exact entanglement dynamics of two dipole-coupled atoms in a Lorentzian reservoir.

Three mutually verifying solution routes, observables, asymptotic analysis,
and a CLI for runs, sweeps, and cross-checks.
"""

__version__ = "0.1.0"

from .analysis import (
    SteadyStateVerdict,
    concurrence,
    concurrence_array,
    concurrence_series,
    density_matrix,
    disentanglement_time,
    steady_state_verdict,
)
from .closedform import (
    CharacteristicCubic,
    ResidueSolution,
    char_roots,
    residue_coefficients,
    surviving_pole,
)
from .dynamics import (
    IntegratorConfig,
    StepBudgetError,
    StepUnderflowError,
    Trajectory,
    asymptotic_t_end,
    integrate_pseudomode,
    integrate_volterra,
    leak_series,
    sample_closed_form,
)
from .model import InitialAmplitudes, SystemParams, bell_state, validate_initial
from .verification import SolverComparison, compare_solvers, leak_identity_residual

__all__ = [
    "__version__",
    "SystemParams", "InitialAmplitudes", "bell_state", "validate_initial",
    "CharacteristicCubic", "ResidueSolution",
    "char_roots", "residue_coefficients", "surviving_pole",
    "Trajectory", "IntegratorConfig", "StepUnderflowError", "StepBudgetError",
    "integrate_pseudomode", "integrate_volterra", "sample_closed_form",
    "leak_series", "asymptotic_t_end",
    "SteadyStateVerdict", "density_matrix", "concurrence", "concurrence_array",
    "concurrence_series", "steady_state_verdict", "disentanglement_time",
    "SolverComparison", "compare_solvers", "leak_identity_residual",
]
