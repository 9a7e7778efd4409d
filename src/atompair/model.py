"""Physical parameters, with their coupling measures, and canonical initial states.

Two two-level atoms share a common reservoir with a Lorentzian spectral
density of half-width ``lam`` and coupling scale ``W``; the atoms couple to
it with relative strengths ``alpha1`` and ``alpha2`` and exchange excitation
directly through a dipole-dipole term of strength ``K``.  Everything
downstream (closed-form solution, integrators, observables) is driven by the
values collected here, and the coupling measures ``R``, ``r1`` and ``r2``
are properties of :class:`SystemParams`.

All types in this module are immutable values; they can be shared freely
between threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "NORM_TOL",
    "SystemParams",
    "InitialAmplitudes",
    "bell_state",
    "validate_initial",
]

# Tolerance on |c10|^2 + |c20|^2 - 1 accepted by strict validation.
NORM_TOL = 1e-10


@dataclass(frozen=True)
class SystemParams:
    """Physical inputs, all in units of frequency except the dimensionless alphas.

    Attributes
    ----------
    lam : float
        Reservoir half-width (inverse correlation time).  Must be positive.
    W : float
        Coupling scale of the Lorentzian spectral density.  Nonnegative.
    alpha1, alpha2 : float
        Dimensionless relative couplings of atoms 1 and 2.  Nonnegative and
        not both zero; a sign on either can always be absorbed into the phase
        of the corresponding initial amplitude.
    K : float
        Dipole-dipole exchange strength.  Either sign is allowed, since the
        underlying geometry can produce both.
    omega0 : float
        Common atomic transition frequency.  The amplitude equations are
        written in the frame rotating at ``omega0``, so it never enters any
        derived quantity or trajectory; it is carried for bookkeeping only.

    The dynamics depends on the inputs only through ``K / lam``,
    ``R / lam``, ``r1`` and the dimensionless time ``lam * t``.
    """

    lam: float
    W: float
    alpha1: float
    alpha2: float
    K: float
    omega0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lam", "W", "alpha1", "alpha2", "K", "omega0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.W < 0.0:
            raise ValueError(f"W must be nonnegative, got {self.W}")
        if self.alpha1 < 0.0 or self.alpha2 < 0.0:
            raise ValueError(
                f"alpha1 and alpha2 must be nonnegative, got "
                f"({self.alpha1}, {self.alpha2})"
            )
        if self.alpha1 == 0.0 and self.alpha2 == 0.0:
            raise ValueError(
                "alpha1 and alpha2 cannot both vanish: neither atom would "
                "couple to the reservoir and the collective coupling scale "
                "is undefined"
            )

    @property
    def R(self) -> float:
        """``W * sqrt(alpha1^2 + alpha2^2)``, the vacuum Rabi frequency of the
        collective bright mode."""
        return self.W * math.hypot(self.alpha1, self.alpha2)

    @property
    def r1(self) -> float:
        """``alpha1 / sqrt(alpha1^2 + alpha2^2)``; ``r1**2 + r2**2 == 1``."""
        return self.alpha1 / math.hypot(self.alpha1, self.alpha2)

    @property
    def r2(self) -> float:
        """``alpha2 / sqrt(alpha1^2 + alpha2^2)``."""
        return self.alpha2 / math.hypot(self.alpha1, self.alpha2)


@dataclass(frozen=True)
class InitialAmplitudes:
    """Single-excitation atomic amplitudes at t = 0.

    ``c10`` multiplies |e>_1 |g>_2 and ``c20`` multiplies |g>_1 |e>_2; the
    reservoir starts in vacuum, so the auxiliary mode amplitude is always
    zero initially.  Use :func:`validate_initial` to enforce or restore unit
    norm.
    """

    c10: complex
    c20: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.c10) ** 2 + abs(self.c20) ** 2


def bell_state(sign: str) -> InitialAmplitudes:
    """Return the maximally entangled state (|eg> +- |ge>)/sqrt(2).

    ``sign`` is ``"plus"`` or ``"minus"``.
    """
    s = math.sqrt(0.5)
    if sign == "plus":
        return InitialAmplitudes(complex(s), complex(s))
    if sign == "minus":
        return InitialAmplitudes(complex(s), complex(-s))
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


def validate_initial(init: InitialAmplitudes, mode: str = "strict") -> InitialAmplitudes:
    """Check or restore the unit-norm invariant of an initial state.

    ``mode="strict"`` returns ``init`` unchanged if ``|c10|^2 + |c20|^2`` is
    within :data:`NORM_TOL` of one, and raises otherwise.
    ``mode="renormalize"`` rescales to unit norm.  A zero vector, and one
    whose norm is not finite, is rejected in either mode.
    """
    try:
        n2 = init.norm_sq
    except OverflowError:
        n2 = math.inf
    if not math.isfinite(n2):
        raise ValueError(
            f"initial amplitudes must have a finite norm, got c10={init.c10}, c20={init.c20}"
        )
    if n2 == 0.0:
        raise ValueError("initial amplitudes cannot both be zero")
    if mode == "strict":
        if abs(n2 - 1.0) > NORM_TOL:
            raise ValueError(
                f"initial state norm^2 = {n2!r} deviates from 1 by more than "
                f"{NORM_TOL}; pass mode='renormalize' to rescale"
            )
        return init
    if mode == "renormalize":
        scale = 1.0 / math.sqrt(n2)
        return InitialAmplitudes(init.c10 * scale, init.c20 * scale)
    raise ValueError(f"mode must be 'strict' or 'renormalize', got {mode!r}")
