"""Physical parameters, with their coupling measures, and canonical initial states.

Two two-level atoms share a common reservoir with a Lorentzian spectral
density of half-width lambda and coupling scale ``W``; the atoms couple to
it with relative strengths ``alpha1`` and ``alpha2`` and exchange excitation
directly through a dipole-dipole term of strength ``K``.  Everything
downstream (closed-form solution, integrators, observables) is driven by the
values collected here, and the coupling measures ``R``, ``r1`` and ``r2``
are properties of :class:`SystemParams`.

The dynamics depends only on W/lambda, K/lambda and tau = lambda t, so
lambda is the library's unit: rates are in units of lambda and times in
units of 1/lambda; the caller (the CLI) divides a physical lambda out.

Each type checks its invariants when it is built, so code that receives one
checks nothing again: an :class:`InitialAmplitudes` has unit norm, and
:meth:`InitialAmplitudes.normalized` rescales a pair to it.

All types in this module are immutable values; they can be shared freely
between threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

__all__ = [
    "NORM_TOL",
    "SystemParams",
    "InitialAmplitudes",
    "bell_state",
]

# Tolerance on |c10|^2 + |c20|^2 - 1 accepted by InitialAmplitudes.
NORM_TOL = 1e-10


@dataclass(frozen=True)
class SystemParams:
    """Physical inputs, the rates in units of the reservoir half-width lambda.

    Attributes
    ----------
    W : float
        Coupling scale of the Lorentzian spectral density, W/lambda.
        Nonnegative.
    alpha1, alpha2 : float
        Dimensionless relative couplings of atoms 1 and 2.  Nonnegative and
        not both zero; a sign on either can always be absorbed into the phase
        of the corresponding initial amplitude.
    K : float
        Dipole-dipole exchange strength, K/lambda.  Either sign is allowed,
        since the underlying geometry can produce both.

    The amplitude equations are written in the frame rotating at the common
    atomic transition frequency, so that frequency is not an input.  The
    keyword ``lam``, which callers written for a general half-width pass,
    is accepted only at the unit itself, 1.
    """

    W: float
    alpha1: float
    alpha2: float
    K: float
    lam: InitVar[float] = 1.0

    def __post_init__(self, lam: float) -> None:
        if not math.isfinite(lam):
            raise ValueError(
                f"lam must be finite; rates are in units of lambda, so lam must be 1, got {lam}"
            )
        if lam != 1.0:
            raise ValueError(f"rates are in units of lambda, so lam must be 1, got {lam}")
        for name in ("W", "alpha1", "alpha2", "K"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
    """Single-excitation atomic amplitudes at t = 0, of unit norm.

    ``c10`` multiplies |e>_1 |g>_2 and ``c20`` multiplies |g>_1 |e>_2; the
    reservoir starts in vacuum, so the auxiliary mode amplitude is always
    zero initially.  Construction raises ValueError unless
    ``|c10|^2 + |c20|^2`` is finite and within :data:`NORM_TOL` of one;
    :meth:`normalized` rescales a finite, nonzero pair to unit norm instead.
    """

    c10: complex
    c20: complex

    def __post_init__(self) -> None:
        n2 = _norm_sq(self.c10, self.c20)
        if abs(n2 - 1.0) > NORM_TOL:
            raise ValueError(
                f"initial state norm^2 = {n2!r} deviates from 1 by more than "
                f"{NORM_TOL}; use InitialAmplitudes.normalized to rescale"
            )

    @classmethod
    def normalized(cls, c10: complex, c20: complex) -> InitialAmplitudes:
        """``(c10, c20)`` rescaled to unit norm; the pair must be finite and nonzero."""
        scale = 1.0 / math.sqrt(_norm_sq(c10, c20))
        return cls(c10 * scale, c20 * scale)


def _norm_sq(c10: complex, c20: complex) -> float:
    """``|c10|^2 + |c20|^2``; ValueError unless it is finite and nonzero."""
    try:
        n2 = abs(c10) ** 2 + abs(c20) ** 2
    except OverflowError:
        n2 = math.inf
    if not math.isfinite(n2):
        raise ValueError(f"initial amplitudes must have a finite norm, got c10={c10}, c20={c20}")
    if n2 == 0.0:
        raise ValueError("initial amplitudes cannot both be zero")
    return n2


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
