"""Closed-form evolution via Laplace poles and residues.

Eliminating the reservoir turns the amplitude equations into a 3x3 linear
Laplace system whose common denominator is the monic cubic

    D(s) = s^2 (s + lam) + R^2 s + K^2 (s + lam) - 2i K R^2 r1 r2,

so every amplitude is a sum of three exponentials, one per root of D.  This
module finds the roots (complex Cardano, Newton, deflation) and writes each
amplitude's residue sum sum_i N(s_i) e^{s_i t} / D'(s_i) in Newton form, as
the divided difference (N E)[a, b, c] of N(s) E(s), E(s) = exp(s t):

    x(t) = N[a] E[a, b, c] + N[a, b] E[b, c] + N[a, b, c] E[c],

with (a, c) the widest root pair.  Unlike the residues, which grow like
1/spacing^2, every term has a finite limit as roots coincide, so one formula
covers simple, double and triple roots, at O(1) per sample.
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
    "SURVIVING_POLE_TOL",
    "CharacteristicCubic",
    "CubicRoots",
    "ResidueSolution",
    "char_cubic",
    "char_roots",
    "residue_coefficients",
    "surviving_pole",
]

# |Re s| <= SURVIVING_POLE_TOL * lam qualifies a root as lying on the
# imaginary axis.  Tight enough to separate the exact analytic cases from
# slow decay of nearby parameter sets.
SURVIVING_POLE_TOL = 1e-8

# Plain quotients of the exponentials are used when, with (a, c) the widest
# root pair, min(|a - b|, |b - c|) |a - c| >= _SEPARATED * max|s|^2.  Their
# rounding error in E[a, b, c] is about eps / (min spacing * |a - c|) (the
# exponentials are at most 1), and N[a] is of the order of max|s|^2, so this
# bounds the error of the amplitudes to about eps / _SEPARATED = 2e-13.
_SEPARATED = 1e-3

# Taylor terms for E[a, b, c], used while |(a - c) t| <= 1: the remainder
# after 18 terms is below 1e-17 of the sum.
_TAYLOR_TERMS = 18


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
    """Three roots, sorted by (real, imag)."""

    roots: tuple[complex, complex, complex]


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
    """Find the three roots of the characteristic cubic.

    Cardano supplies starting values; the best-isolated root is driven to
    convergence by Newton, and the other two solve the deflated quadratic.
    They are not polished against the full cubic: near a double or triple
    root that moves the two roots of a cluster independently and breaks the
    Vieta sums, which the Newton form of the residue sum relies on.
    """
    cubic = char_cubic(params)
    raw = _cardano(cubic.a2, cubic.a1, complex(cubic.a0))
    isolation = [min(abs(raw[i] - raw[j]) for j in range(3) if j != i) for i in range(3)]
    # among (near-)ties, the root nearest the real axis: a real cubic then
    # deflates by its real root and keeps its complex pair exactly conjugate
    r = min(
        (raw[i] for i in range(3) if isolation[i] >= (1.0 - 1e-6) * max(isolation)),
        key=lambda z: abs(z.imag),
    )
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
    big, small = (hi, lo) if abs(hi) >= abs(lo) else (lo, hi)
    if abs(small) < 0.5 * abs(big):
        # the smaller root has lost digits to cancellation; the product q
        # gives it accurately.  Roots of equal size, such as the exact
        # conjugate pair of a real quadratic, keep their symmetry.
        small = q / big
    return CubicRoots(roots=tuple(sorted([r, big, small], key=lambda z: (z.real, z.imag))))


def _pair_difference(x: complex, y: complex, t: np.ndarray) -> np.ndarray:
    """E[x, y] = t e^{yt} expm1(z) / z with z = (x - y) t, finite as x -> y.

    Anchored at the node with the larger real part, so that Re z <= 0 and
    neither factor can overflow where the true value does not.
    """
    if x.real > y.real:
        x, y = y, x
    z = (x - y) * t
    phi = np.ones_like(z)
    nz = z != 0
    phi[nz] = np.expm1(z[nz]) / z[nz]
    return t * np.exp(y * t) * phi


def _triple_difference(a: complex, b: complex, c: complex, t: np.ndarray) -> np.ndarray:
    """E[a, b, c] = t^2 e^{ct} sum_k h_k(u, v) / (k + 2)! for u = (a - c) t, v = (b - c) t.

    h_k = v h_{k-1} + u^k is the complete homogeneous polynomial of degree k.
    Valid where |u| and |v| are at most 1.
    """
    u, v = (a - c) * t, (b - c) * t
    h = u_k = np.ones_like(u)
    term = 0.5
    total = term * h
    for k in range(1, _TAYLOR_TERMS):
        u_k = u_k * u
        h = v * h + u_k
        term /= k + 2
        total = total + term * h
    return t * t * np.exp(c * t) * total


def _separated_differences(nodes: tuple[complex, complex, complex], t: np.ndarray) -> np.ndarray:
    """Rows E[a, b, c], E[b, c] and E[c] of E(s) = exp(s t) as plain quotients."""
    a, b, c = nodes
    E = np.exp(np.multiply.outer(np.array(nodes), t))
    E[:2] = (E[:2] - E[1:]) / np.array([[a - b], [b - c]])
    E[0] = (E[0] - E[1]) / (a - c)
    return E


def _clustered_differences(nodes: tuple[complex, complex, complex], t: np.ndarray) -> np.ndarray:
    """The same rows in forms that stay finite as nodes meet: E[a, b, c] is
    the Taylor series where |(a - c) t| <= 1, else the pairs' quotient."""
    a, b, c = nodes
    E = np.empty((3, t.size), dtype=complex)
    e_ab = _pair_difference(a, b, t)
    E[1] = _pair_difference(b, c, t)
    E[2] = np.exp(c * t)
    near = np.abs((a - c) * t) <= 1.0
    E[0, near] = _triple_difference(a, b, c, t[near])
    E[0, ~near] = (e_ab[~near] - E[1, ~near]) / (a - c)
    return E


def _exp_divided_differences(nodes: tuple[complex, complex, complex], t: np.ndarray) -> np.ndarray:
    """Plain quotients where they are accurate (see ``_SEPARATED``), else the clustered forms."""
    a, b, c = nodes
    if min(abs(a - b), abs(b - c)) * abs(a - c) >= _SEPARATED * max(abs(a), abs(b), abs(c)) ** 2:
        return _separated_differences(nodes, t)
    return _clustered_differences(nodes, t)


@dataclass(frozen=True)
class ResidueSolution:
    """Roots (a, b, c), (a, c) the widest pair, and per amplitude the Newton
    coefficients (N(a), n2 (a + b) + n1, n2) of N(s) = n2 s^2 + n1 s + n0.

    At t = 0 only E[c] = 1 survives, and n2 is c10, c20 and 0 for (c1, c2, b),
    so the initial data are reproduced exactly.
    """

    params: SystemParams
    derived: DerivedParams
    init: InitialAmplitudes
    roots: CubicRoots
    nodes: tuple[complex, complex, complex]
    newton_c1: tuple[complex, complex, complex]
    newton_c2: tuple[complex, complex, complex]
    newton_b: tuple[complex, complex, complex]

    def evolve(self, t):
        """Evaluate (c1, c2, b) at scalar or array ``t >= 0``."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("closed-form evolution is defined for t >= 0")
        newton = np.array([self.newton_c1, self.newton_c2, self.newton_b])
        c1, c2, b = newton @ _exp_divided_differences(self.nodes, t.reshape(-1))
        if t.ndim == 0:
            return complex(c1[0]), complex(c2[0]), complex(b[0])
        return c1.reshape(t.shape), c2.reshape(t.shape), b.reshape(t.shape)


def residue_coefficients(
    params: SystemParams, init: InitialAmplitudes
) -> ResidueSolution:
    """Newton coefficients of the residue sum, valid for every root configuration.

    The numerators of the three transformed amplitudes are

        N_c1(s) = c10 [s (s + lam) + R^2 r2^2] - c20 [i K (s + lam) + R^2 r1 r2]
        N_c2(s) = the same with indices 1 and 2 exchanged
        N_b(s)  = -i R [(r1 c10 + r2 c20) s - i K (r1 c20 + r2 c10)]
    """
    init = validate_initial(init, "strict")
    d = derive(params)
    roots = char_roots(params)
    lam, K, R = params.lam, params.K, d.R
    r1, r2 = d.r1, d.r2
    R2 = R * R
    c10, c20 = init.c10, init.c20
    cross = 1j * K * lam + R2 * r1 * r2
    # (n2, n1, n0) of each numerator
    quadratics = (
        (c10, c10 * lam - 1j * K * c20, c10 * R2 * r2 * r2 - c20 * cross),
        (c20, c20 * lam - 1j * K * c10, c20 * R2 * r1 * r1 - c10 * cross),
        (0.0, -1j * R * (r1 * c10 + r2 * c20), -R * K * (r1 * c20 + r2 * c10)),
    )
    s = roots.roots
    i, j = max(((0, 1), (0, 2), (1, 2)), key=lambda ij: abs(s[ij[0]] - s[ij[1]]))
    a, b, c = s[i], s[3 - i - j], s[j]
    newton = [
        (complex((n2 * a + n1) * a + n0), complex(n2 * (a + b) + n1), complex(n2))
        for n2, n1, n0 in quadratics
    ]
    return ResidueSolution(
        params=params,
        derived=d,
        init=init,
        roots=roots,
        nodes=(a, b, c),
        newton_c1=newton[0],
        newton_c2=newton[1],
        newton_b=newton[2],
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
