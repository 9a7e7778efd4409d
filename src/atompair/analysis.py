"""Observables and asymptotics: concurrence, steady-state verdicts.

In the single-excitation sector the two-atom reduced state is fully
determined by the two amplitudes (c1, c2): a rank-<=2 mixture of a pure
entangled branch and the shared ground state.  For that structure the
concurrence collapses to C = 2 |c1| |c2| exactly, so no spin-flip
eigenvalue machinery is needed.

Which characteristic root survives as t -> infinity is decided in one
place, :func:`_steady_regime`: the pole on the imaginary axis is known in
closed form (i K at equal couplings, 0 at K = 0, none otherwise).  Both
:func:`steady_state_verdict` and the horizon :func:`asymptotic_t_end` read
it; no tolerance on the roots' real parts decides it.

Rates, roots and times are in units of the reservoir half-width lambda
(see :mod:`atompair.model`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import char_roots
from .model import InitialAmplitudes, SystemParams

__all__ = [
    "EQUAL_COUPLING_TOL",
    "SteadyStateVerdict",
    "concurrence_array",
    "concurrence_series",
    "steady_state_verdict",
    "asymptotic_t_end",
    "disentanglement_time",
]

# |r1 - r2| at or below this counts as exactly equal couplings.  The steady
# state exists only on the measure-zero manifold, so near-equal couplings are
# classified as (slowly) decaying.
EQUAL_COUPLING_TOL = 1e-12

def concurrence_array(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Elementwise concurrence of amplitude arrays, C = min(2 |c1| |c2|, 1).

    It checks no population: rounding that lifts a value past 1 is clipped.
    """
    return np.minimum(2.0 * np.abs(c1) * np.abs(c2), 1.0)


def concurrence_series(traj) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise concurrence along a trajectory; returns (t, C)."""
    return traj.t, concurrence_array(traj.c1, traj.c2)


def _steady_regime(params: SystemParams) -> tuple[str, complex | None]:
    """The regime of ``params`` and its analytic pole on the imaginary axis:
    ``("equal_coupling", iK)``, ``("zero_K", 0)`` or ``("decaying", None)``.

    Couplings count as equal when |r1 - r2| <= EQUAL_COUPLING_TOL; equal
    couplings take precedence over K = 0.
    """
    if abs(params.r1 - params.r2) <= EQUAL_COUPLING_TOL:
        return "equal_coupling", complex(0.0, params.K)
    if params.K == 0.0:
        return "zero_K", complex(0.0)
    return "decaying", None


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

    A steady verdict's pole is cross-checked against the nearest numerical
    root (at large |K| a bright-mode root may count as on the axis too); one
    farther than 1e-6 (1 + R + |K|) raises RuntimeError.  Near-equal
    couplings (between EQUAL_COUPLING_TOL and the root finder's resolution)
    decay too slowly for the root check to see, and are deliberately
    classified as decaying.

    Raises
    ------
    ValueError
        For a fully decoupled reservoir (W == 0): nothing dissipates, every
        mode oscillates forever, and the steady/decaying dichotomy does not
        apply.
    """
    if params.R == 0.0:
        raise ValueError(
            "steady-state classification requires W > 0; with no reservoir "
            "coupling the amplitudes never settle"
        )
    regime, pole = _steady_regime(params)
    if regime == "equal_coupling":
        c_inf = 0.5 * abs(init.c10 - init.c20) ** 2
    elif regime == "zero_K":
        dark = params.r2 * init.c10 - params.r1 * init.c20
        c_inf = 2.0 * params.r1 * params.r2 * abs(dark) ** 2
    else:
        c_inf = 0.0

    if pole is not None:
        found = min(char_roots(params), key=lambda s: abs(s - pole))
        if abs(found - pole) > 1e-6 * (1.0 + params.R + abs(params.K)):
            raise RuntimeError(
                f"analytic steady pole {pole} not confirmed by the root finder "
                f"(nearest root {found})"
            )
    return SteadyStateVerdict(
        steady=pole is not None,
        surviving_pole=pole,
        asymptotic_concurrence=c_inf,
        regime=regime,
    )


def asymptotic_t_end(params: SystemParams) -> float:
    """Horizon for steady-state studies, tied to the actual spectral gap.

    Returns max(50, 10/|Re s_slow|), where s_slow is the slowest
    decaying characteristic root once the root nearest the analytic pole of
    :func:`_steady_regime` is dropped (its residue never decays).  Only that
    one root is dropped: at equal couplings and large |K| the bright mode's
    root decays at about R^2 / K^2, far inside any fixed tolerance of
    the axis, and the horizon has to outlast it.  With no reservoir coupling
    (W == 0) only the mode at -1 decays, and the horizon is 50.  A
    slowest root that the root finder sees as not decaying at all (couplings
    unequal by less than its resolution) gives inf.
    """
    if params.R == 0.0:
        return 50.0
    roots = list(char_roots(params))
    _, pole = _steady_regime(params)
    if pole is not None:
        roots.remove(min(roots, key=lambda s: abs(s - pole)))
    slow = max(s.real for s in roots)
    return max(50.0, 10.0 / -slow) if slow < 0.0 else math.inf


def disentanglement_time(
    series: tuple[np.ndarray, np.ndarray],
    threshold: float,
    window: float,
) -> float | None:
    """First time the concurrence drops below ``threshold`` and stays there.

    ``series`` is a (times, values) pair as returned by
    :func:`concurrence_series`.  A crossing only counts if every sample in
    the following ``window`` of time stays below the threshold, which
    debounces the oscillatory dips of the early dynamics; pass 1 for the
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
