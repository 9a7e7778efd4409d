"""Observables and asymptotics: density matrix, concurrence, steady-state verdicts.

In the single-excitation sector the two-atom reduced state is fully
determined by the two amplitudes (c1, c2): a rank-<=2 mixture of a pure
entangled branch and the shared ground state.  For that structure the
concurrence collapses to C = 2 |c1| |c2| exactly, so no spin-flip
eigenvalue machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import char_roots, surviving_pole
from .model import InitialAmplitudes, SystemParams, validate_initial

__all__ = [
    "EQUAL_COUPLING_TOL",
    "SteadyStateVerdict",
    "density_matrix",
    "concurrence",
    "concurrence_array",
    "concurrence_series",
    "steady_state_verdict",
    "disentanglement_time",
]

# |r1 - r2| at or below this counts as exactly equal couplings.  The steady
# state exists only on the measure-zero manifold, so near-equal couplings are
# classified as (slowly) decaying.
EQUAL_COUPLING_TOL = 1e-12

_POP_TOL = 1e-9


def _check_population(c1: complex, c2: complex) -> None:
    total = abs(c1) ** 2 + abs(c2) ** 2
    if total > 1.0 + _POP_TOL:
        raise ValueError(
            f"|c1|^2 + |c2|^2 = {total!r} exceeds 1 beyond tolerance {_POP_TOL}"
        )


def density_matrix(c1: complex, c2: complex) -> np.ndarray:
    """Two-atom reduced density matrix in the basis {|ee>, |eg>, |ge>, |gg>}.

    The doubly excited row and column vanish identically; the middle block is
    the projector onto the entangled branch and the |gg> weight absorbs the
    population lost to the reservoir.
    """
    _check_population(c1, c2)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = abs(c1) ** 2
    rho[2, 2] = abs(c2) ** 2
    rho[1, 2] = c1 * np.conj(c2)
    rho[2, 1] = np.conj(rho[1, 2])
    rho[3, 3] = 1.0 - rho[1, 1].real - rho[2, 2].real
    return rho


def concurrence(c1: complex, c2: complex) -> float:
    """Concurrence of the reduced state, C = 2 |c1| |c2| in [0, 1]."""
    _check_population(c1, c2)
    return 2.0 * abs(c1) * abs(c2)


def concurrence_array(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Elementwise concurrence of amplitude arrays, C = min(2 |c1| |c2|, 1).

    Unlike :func:`concurrence` it checks no population: rounding that lifts
    a value past 1 is clipped instead.
    """
    return np.minimum(2.0 * np.abs(c1) * np.abs(c2), 1.0)


def concurrence_series(traj) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise concurrence along a trajectory; returns (t, C)."""
    return traj.t, concurrence_array(traj.c1, traj.c2)


@dataclass(frozen=True)
class SteadyStateVerdict:
    """Asymptotic classification of a parameter set and initial state.

    ``steady`` is true exactly when a characteristic root sits on the
    imaginary axis, i.e. when the couplings are equal or the dipole term
    vanishes; then ``surviving_pole`` holds that root and
    ``asymptotic_concurrence`` the limiting concurrence.  Otherwise
    everything decays and the limit is zero.
    """

    steady: bool
    surviving_pole: complex | None
    asymptotic_concurrence: float
    regime: str  # "equal_coupling" | "zero_K" | "decaying"


def steady_state_verdict(
    params: SystemParams, init: InitialAmplitudes
) -> SteadyStateVerdict:
    """Classify the t -> infinity behaviour for ``params`` and ``init``.

    Regimes:

    * ``equal_coupling`` (|r1 - r2| <= EQUAL_COUPLING_TOL): the antisymmetric
      combination of the atoms decouples whatever the dipole strength, and
      C(inf) = |c10 - c20|^2 / 2 with the surviving pole at i K.
    * ``zero_K`` (K == 0, couplings unequal): the dark superposition
      r2 |eg> - r1 |ge> is protected; projecting the initial state onto it
      gives C(inf) = 2 r1 r2 |r2 c10 - r1 c20|^2 with the pole at 0.
      (A published closed form for this limit disagrees with the protected
      projection by the factor r1^4 + r2^4 and can exceed 1; the projection
      form is the one consistent with both the equal-coupling limit and
      long-time numerics.  See README.)
    * ``decaying`` otherwise: both amplitudes vanish and C(inf) = 0.

    The analytic classification is cross-checked against the numerically
    located imaginary-axis root; a steady verdict without a matching root
    raises RuntimeError.  Near-equal couplings (between EQUAL_COUPLING_TOL
    and the root finder's resolution) decay too slowly for the root check to
    see, and are deliberately classified as decaying.

    Raises
    ------
    ValueError
        For a fully decoupled reservoir (W == 0): nothing dissipates, every
        mode oscillates forever, and the steady/decaying dichotomy does not
        apply.
    """
    init = validate_initial(init, "strict")
    if params.R == 0.0:
        raise ValueError(
            "steady-state classification requires W > 0; with no reservoir "
            "coupling the amplitudes never settle"
        )
    K, r1, r2 = params.K, params.r1, params.r2
    if abs(r1 - r2) <= EQUAL_COUPLING_TOL:
        regime = "equal_coupling"
        pole = complex(0.0, K)
        c_inf = 0.5 * abs(init.c10 - init.c20) ** 2
    elif K == 0.0:
        regime = "zero_K"
        pole = complex(0.0)
        dark = r2 * init.c10 - r1 * init.c20
        c_inf = 2.0 * r1 * r2 * abs(dark) ** 2
    else:
        regime = "decaying"
        pole = None
        c_inf = 0.0

    found = surviving_pole(char_roots(params), params.lam)
    if pole is not None:
        scale = params.lam + params.R + abs(K)
        if found is None or abs(found - pole) > 1e-6 * scale:
            raise RuntimeError(
                f"analytic steady pole {pole} not confirmed by the root finder "
                f"(found {found})"
            )
    return SteadyStateVerdict(
        steady=pole is not None,
        surviving_pole=pole,
        asymptotic_concurrence=c_inf,
        regime=regime,
    )


def disentanglement_time(
    series: tuple[np.ndarray, np.ndarray],
    threshold: float,
    window: float,
) -> float | None:
    """First time the concurrence drops below ``threshold`` and stays there.

    ``series`` is a (times, values) pair as returned by
    :func:`concurrence_series`.  A crossing only counts if every sample in
    the following ``window`` of time stays below the threshold, which
    debounces the oscillatory dips of the early dynamics; pass 1/lam for the
    window to tie the debounce to the reservoir correlation time.  Returns
    None when no debounced crossing exists within the sampled range (the
    series must extend at least ``window`` past a candidate crossing for it
    to be confirmed).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if not window >= 0.0:
        raise ValueError(f"window must be nonnegative, got {window}")
    t, values = np.asarray(series[0], dtype=float), np.asarray(series[1], dtype=float)
    if t.shape != values.shape or t.ndim != 1:
        raise ValueError("series must be a pair of equally sized 1-D arrays")
    # each run of below-threshold samples starts where the padded mask rises
    # and ends, exclusively, where it falls
    edges = np.diff(np.concatenate(([False], values < threshold, [False])).astype(np.int8))
    onsets, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    if onsets.size == 0:
        return None
    # a run confirms when both it and the series reach a window past its onset
    confirm_until = t[onsets] + window
    confirmed = np.flatnonzero((t[-1] >= confirm_until) & (t[ends - 1] >= confirm_until))
    return float(t[onsets[confirmed[0]]]) if confirmed.size else None
