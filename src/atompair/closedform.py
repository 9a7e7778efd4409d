"""Closed-form evolution via Laplace poles and residues.

Eliminating the reservoir turns the amplitude equations into a 3x3 linear
Laplace system whose common denominator is the monic cubic

    D(s) = s^2 (s + lam) + R^2 s + K^2 (s + lam) - 2i K R^2 r1 r2,

so every amplitude is a sum of three exponentials, one per root of D.  This
module finds the roots (complex Cardano plus Newton polishing), evaluates the
residue coefficients for the atomic amplitudes and the auxiliary reservoir
mode, and propagates in O(1) per sample.  Repeated roots would need
confluent residues; they are detected and refused, and callers fall back to
the time-domain integrator.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .model import (
    DerivedParams,
    InitialAmplitudes,
    SystemParams,
    derive,
    validate_initial,
)

__all__ = [
    "DegenerateRootsError",
    "SURVIVING_POLE_TOL",
    "CharacteristicCubic",
    "CubicRoots",
    "ResidueSolution",
    "char_cubic",
    "char_roots",
    "residue_coefficients",
    "surviving_pole",
]

# Relative spacing below which two roots count as coincident.
DEGENERACY_REL = 1e-6

# |Re s| <= SURVIVING_POLE_TOL * lam qualifies a root as lying on the
# imaginary axis.  Tight enough to separate the exact analytic cases from
# slow decay of nearby parameter sets.
SURVIVING_POLE_TOL = 1e-8


class DegenerateRootsError(Exception):
    """The cubic has (near-)coincident roots; simple-pole residues do not apply."""


@dataclass(frozen=True)
class CharacteristicCubic:
    """Monic cubic s^3 + a2 s^2 + a1 s + a0 whose roots are the Laplace poles.

    ``a2 = lam`` and ``a1 = R^2 + K^2`` are real; ``a0`` picks up the
    imaginary part ``-2 K R^2 r1 r2`` and is genuinely complex whenever both
    the dipole coupling and both atom couplings are nonzero.
    """

    a2: float
    a1: float
    a0: complex

    def __call__(self, s: complex) -> complex:
        return ((s + self.a2) * s + self.a1) * s + self.a0

    def derivative(self, s: complex) -> complex:
        return (3.0 * s + 2.0 * self.a2) * s + self.a1

    @property
    def scale(self) -> float:
        """Natural magnitude of the cubic's coefficients, used for residual bounds."""
        return max(1.0, abs(self.a2) ** 3, abs(self.a1) ** 1.5, abs(self.a0))


@dataclass(frozen=True)
class CubicRoots:
    """Three polished roots, sorted by (real, imag), plus a degeneracy flag."""

    roots: tuple[complex, complex, complex]
    degenerate: bool

    def min_spacing(self) -> float:
        s1, s2, s3 = self.roots
        return min(abs(s1 - s2), abs(s1 - s3), abs(s2 - s3))


def char_cubic(params: SystemParams) -> CharacteristicCubic:
    """Build the characteristic cubic for ``params``."""
    d = derive(params)
    R2 = d.R * d.R
    K = params.K
    return CharacteristicCubic(
        a2=params.lam,
        a1=R2 + K * K,
        a0=complex(K * K * params.lam, -2.0 * K * R2 * d.r1 * d.r2),
    )


def _cardano(a2: float, a1: float, a0: complex) -> tuple[complex, complex, complex]:
    """Roots of the monic cubic by Cardano's formula in complex arithmetic."""
    third = 1.0 / 3.0
    shift = a2 * third
    p = a1 - a2 * a2 * third
    q = a0 + a2 * (2.0 * a2 * a2 - 9.0 * a1) / 27.0
    if p == 0.0 and q == 0:
        return (-shift, -shift, -shift)
    disc = cmath.sqrt(0.25 * q * q + p * p * p / 27.0)
    # Choose the cube whose magnitude is larger to avoid cancellation in
    # -q/2 +- disc; the product of the two candidates is -(p/3)^3, so the
    # larger one is never zero unless p == q == 0 (handled above).
    u3 = -0.5 * q + disc
    alt = -0.5 * q - disc
    if abs(alt) > abs(u3):
        u3 = alt
    u = u3 ** third
    omega = complex(-0.5, 0.8660254037844386)  # primitive cube root of unity
    roots = []
    for _ in range(3):
        # z = u - p/(3u) solves the depressed cubic for each cube-root branch
        roots.append(u - p / (3.0 * u) - shift)
        u *= omega
    return tuple(roots)


def char_roots(params: SystemParams) -> CubicRoots:
    """Find and polish the three roots of the characteristic cubic.

    Cardano supplies starting values; the best-isolated root is driven to
    convergence by Newton (quadratic for a simple root), and the remaining
    pair comes from deflating to a quadratic solved with the
    cancellation-free formula.  Deflation keeps the Vieta sums tight even
    when the pair (nearly) coincides, where polishing each Cardano root
    separately would stall at the square-root-of-epsilon accuracy floor of a
    double root.  The degeneracy flag is set when the minimum pairwise
    spacing drops below ``DEGENERACY_REL`` times the natural frequency scale
    ``lam + R + |K|``.
    """
    cubic = char_cubic(params)
    raw = _cardano(cubic.a2, cubic.a1, complex(cubic.a0))
    iso = max(
        range(3),
        key=lambda i: min(abs(raw[i] - raw[j]) for j in range(3) if j != i),
    )
    r = raw[iso]
    for _ in range(4):
        dp = cubic.derivative(r)
        if dp == 0:
            break
        step = cubic(r) / dp
        r = r - step
        if abs(step) <= 1e-16 * max(1.0, abs(r)):
            break

    # deflate: D(s) = (s - r)(s^2 + p s + q)
    p = cubic.a2 + r
    q = cubic.a1 + r * p
    disc = cmath.sqrt(p * p - 4.0 * q)
    lo = -0.5 * (p - disc)
    hi = -0.5 * (p + disc)
    big = hi if abs(hi) >= abs(lo) else lo
    if big == 0:
        pair = [-0.5 * p, -0.5 * p]
    else:
        pair = [big, q / big]
    polished = [r]
    for s in pair:
        # touch up against the full cubic, but only while it actually helps
        # (at a double root the Newton step is noise and is rejected)
        for _ in range(2):
            dp = cubic.derivative(s)
            if dp == 0:
                break
            cand = s - cubic(s) / dp
            if abs(cubic(cand)) < abs(cubic(s)):
                s = cand
            else:
                break
        polished.append(s)
    polished.sort(key=lambda z: (z.real, z.imag))
    d = derive(params)
    scale = params.lam + d.R + abs(params.K)
    roots = CubicRoots(roots=tuple(polished), degenerate=False)
    if roots.min_spacing() < DEGENERACY_REL * scale:
        roots = CubicRoots(roots=roots.roots, degenerate=True)
    return roots


@dataclass(frozen=True)
class ResidueSolution:
    """Roots plus per-root residue coefficients; x(t) = sum_i coeff_i exp(s_i t).

    Valid only for simple roots.  The coefficient sums reproduce the initial
    data (c10, c20, 0), which doubles as a cheap self-test.
    """

    params: SystemParams
    derived: DerivedParams
    init: InitialAmplitudes
    roots: CubicRoots
    coeff_c1: tuple[complex, complex, complex]
    coeff_c2: tuple[complex, complex, complex]
    coeff_b: tuple[complex, complex, complex]

    def evolve(self, t):
        """Evaluate (c1, c2, b) at scalar or array ``t >= 0``."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("closed-form evolution is defined for t >= 0")
        s = np.array(self.roots.roots)
        basis = np.exp(t[..., None] * s)
        c1 = basis @ np.array(self.coeff_c1)
        c2 = basis @ np.array(self.coeff_c2)
        b = basis @ np.array(self.coeff_b)
        if t.ndim == 0:
            return complex(c1), complex(c2), complex(b)
        return c1, c2, b


def residue_coefficients(
    params: SystemParams, init: InitialAmplitudes
) -> ResidueSolution:
    """Residues of the Laplace solution at the three simple poles.

    For each simple root the coefficient is N(s_i) / D'(s_i) with the
    numerators of the three transformed amplitudes:

        N_c1(s) = c10 [s (s + lam) + R^2 r2^2] - c20 [i K (s + lam) + R^2 r1 r2]
        N_c2(s) = the same with indices 1 and 2 exchanged
        N_b(s)  = -i R [(r1 c10 + r2 c20) s - i K (r1 c20 + r2 c10)]

    Raises
    ------
    DegenerateRootsError
        When the root finder flags (near-)coincident roots; fall back to
        :func:`atompair.dynamics.integrate_pseudomode`.
    """
    init = validate_initial(init, "strict")
    d = derive(params)
    roots = char_roots(params)
    if roots.degenerate:
        raise DegenerateRootsError(
            f"characteristic roots too close (min spacing {roots.min_spacing():.3e}); "
            "use the time-domain integrator instead"
        )
    cubic = char_cubic(params)
    lam, K, R = params.lam, params.K, d.R
    r1, r2 = d.r1, d.r2
    R2 = R * R
    c10, c20 = init.c10, init.c20

    def n_c1(s: complex) -> complex:
        return c10 * (s * (s + lam) + R2 * r2 * r2) - c20 * (
            1j * K * (s + lam) + R2 * r1 * r2
        )

    def n_c2(s: complex) -> complex:
        return c20 * (s * (s + lam) + R2 * r1 * r1) - c10 * (
            1j * K * (s + lam) + R2 * r1 * r2
        )

    def n_b(s: complex) -> complex:
        return -1j * R * ((r1 * c10 + r2 * c20) * s - 1j * K * (r1 * c20 + r2 * c10))

    dps = [cubic.derivative(s) for s in roots.roots]
    return ResidueSolution(
        params=params,
        derived=d,
        init=init,
        roots=roots,
        coeff_c1=tuple(n_c1(s) / dp for s, dp in zip(roots.roots, dps)),
        coeff_c2=tuple(n_c2(s) / dp for s, dp in zip(roots.roots, dps)),
        coeff_b=tuple(n_b(s) / dp for s, dp in zip(roots.roots, dps)),
    )


def surviving_pole(
    roots: CubicRoots, lam: float, tol: float = SURVIVING_POLE_TOL
) -> complex | None:
    """The unique root on the imaginary axis, if there is exactly one.

    A root counts as lying on the axis when |Re s| <= tol * lam.  The residue
    at such a pole is the only contribution that survives as t -> infinity;
    when no root (or more than one, which requires a fully decoupled
    reservoir) qualifies, the amplitudes decay to zero and None is returned.
    """
    found = [s for s in roots.roots if abs(s.real) <= tol * lam]
    if len(found) == 1:
        return found[0]
    return None
