"""Exact entanglement dynamics of two dipole-coupled atoms in a Lorentzian reservoir.

Three mutually verifying solution routes, observables, asymptotic analysis,
and a CLI for runs, sweeps, and cross-checks.
"""

__version__ = "0.1.0"

from .analysis import (
    SteadyStateVerdict,
    concurrence,
    concurrence_series,
    density_matrix,
    disentanglement_time,
    steady_state_verdict,
)
from .closedform import (
    CharacteristicCubic,
    CubicRoots,
    ResidueSolution,
    char_roots,
    residue_coefficients,
    surviving_pole,
)
from .dynamics import (
    IntegratorConfig,
    StepUnderflowError,
    Trajectory,
    TrajectoryState,
    asymptotic_t_end,
    integrate_pseudomode,
    integrate_volterra,
    leak_series,
    rhs,
    sample_closed_form,
)
from .model import (
    DerivedParams,
    InitialAmplitudes,
    SystemParams,
    bell_state,
    derive,
    validate_initial,
)
from .verification import SolverComparison, compare_solvers, leak_identity_residual

__all__ = [
    "__version__",
    "SystemParams", "DerivedParams", "InitialAmplitudes",
    "derive", "bell_state", "validate_initial",
    "CharacteristicCubic", "CubicRoots", "ResidueSolution",
    "char_roots", "residue_coefficients", "surviving_pole",
    "Trajectory", "TrajectoryState", "IntegratorConfig", "StepUnderflowError",
    "rhs", "integrate_pseudomode", "integrate_volterra", "sample_closed_form",
    "leak_series", "asymptotic_t_end",
    "SteadyStateVerdict", "density_matrix", "concurrence", "concurrence_series",
    "steady_state_verdict", "disentanglement_time",
    "SolverComparison", "compare_solvers", "leak_identity_residual",
]
