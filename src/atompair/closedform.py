"""Closed-form evolution via Laplace poles and residues.

Eliminating the reservoir turns the amplitude equations into a 3x3 linear
Laplace system.  In units of lambda (see :mod:`atompair.model`) its
common denominator is the monic cubic

    D(s) = s^2 (s + 1) + R^2 s + K^2 (s + 1) - 2i K R^2 r1 r2,

so every amplitude is a sum of three exponentials, one per root of D.  This
module finds the roots (complex Cardano, Newton, deflation) and writes each
amplitude's residue sum sum_i N(s_i) e^{s_i t} / D'(s_i) in Newton form, as
the divided difference (N E)[a, b, c] of N(s) E(s), E(s) = exp(s t):

    x(t) = N[a] E[a, b, c] + N[a, b] E[b, c] + N[a, b, c] E[c],

with (a, c) the widest root pair.  Unlike the residues, which grow like
1/spacing^2, every term has a finite limit as roots coincide, so one formula
covers simple, double and triple roots, at O(1) per sample.

Every stage works on an array of dipole strengths K at once, so a sweep over
K is a handful of array operations; ``char_roots`` and
``residue_coefficients`` are the one-point case of the same code, and
``ResidueSolution`` keeps that case's arrays for ``evolve`` as they come.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InitialAmplitudes, SystemParams

__all__ = [
    "CharacteristicCubic",
    "ResidueSolution",
    "char_cubic",
    "char_roots",
    "evolve_over_K",
    "residue_coefficients",
]

# Plain quotients of the exponentials are used when, with (a, c) the widest
# root pair, min(|a - b|, |b - c|) |a - c| >= _SEPARATED * max|s|^2.  Their
# rounding error in E[a, b, c] is about eps / (min spacing * |a - c|) (the
# exponentials are at most 1), and N[a] is of the order of max|s|^2, so this
# bounds the error of the amplitudes to about eps / _SEPARATED = 2e-13.
_SEPARATED = 1e-3

# Taylor terms for E[a, b, c], used while |(a - c) t| <= 1: the remainder
# after 18 terms is below 1e-17 of the sum.
_TAYLOR_TERMS = 18

# Times that ResidueSolution.evolve evaluates at once.
_EVOLVE_BLOCK = 8192


@dataclass(frozen=True)
class CharacteristicCubic:
    """Monic cubic s^3 + s^2 + a1 s + a0 whose roots are the Laplace poles.

    In units of lambda the s^2 coefficient is 1.  ``a1 = R^2 + K^2`` is
    real; ``a0 = K^2 - 2i K R^2 r1 r2`` is genuinely complex whenever both
    the dipole coupling and both atom couplings are nonzero.  Over an array
    of K, ``a1`` and ``a0`` are arrays and the cubic evaluates elementwise.
    """

    a1: float | np.ndarray
    a0: complex | np.ndarray

    def __call__(self, s):
        return ((s + 1.0) * s + self.a1) * s + self.a0

    def derivative(self, s):
        return (3.0 * s + 2.0) * s + self.a1


def char_cubic(params: SystemParams, K=None) -> CharacteristicCubic:
    """Build the characteristic cubic for ``params``.

    Given an array ``K`` of dipole strengths, which replaces ``params.K``,
    the coefficients ``a1`` and ``a0`` are arrays over it.
    """
    R2 = params.R * params.R
    k = np.atleast_1d(np.asarray(params.K if K is None else K, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = R2 + k * k
        # set by parts, as complex(x, y) would, to keep the sign of a zero
        # imaginary part: Cardano's square root branches on it
        a0 = (k * k).astype(complex)
        a0.imag = -2.0 * k * R2 * params.r1 * params.r2
    if K is None:
        return CharacteristicCubic(a1=float(a1[0]), a0=complex(a0[0]))
    return CharacteristicCubic(a1=a1, a0=a0)


def _cardano(a1: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """Roots of the cubics s^3 + s^2 + a1 s + a0 by Cardano's formula in
    complex arithmetic, shape (n, 3)."""
    third = 1.0 / 3.0  # also the shift from the depressed cubic
    p = a1 - third
    q = a0 + (2.0 - 9.0 * a1) / 27.0
    disc = np.sqrt(0.25 * q * q + p * p * p / 27.0)
    # Choose the cube whose magnitude is larger to avoid cancellation in
    # -q/2 +- disc; the product of the two candidates is -(p/3)^3, so the
    # larger one is never zero unless p == q == 0 (handled below).
    u3 = -0.5 * q + disc
    alt = -0.5 * q - disc
    u = np.where(np.abs(alt) > np.abs(u3), alt, u3) ** third
    omega = complex(-0.5, 0.8660254037844386)  # primitive cube root of unity
    roots = np.empty((u.size, 3), dtype=complex)
    for k in range(3):
        # z = u - p/(3u) solves the depressed cubic for each cube-root branch
        roots[:, k] = u - p / (3.0 * u) - third
        u = u * omega
    roots[(p == 0.0) & (q == 0)] = -third
    return roots


def _cubic_roots(cubic: CharacteristicCubic) -> np.ndarray:
    """Roots of the cubics over an array of K, shape (n, 3), each row sorted by (real, imag).

    Cardano supplies starting values; the best-isolated root is driven to
    convergence by Newton, and the other two solve the deflated quadratic.
    They are not polished against the full cubic: near a double or triple
    root that moves the two roots of a cluster independently and breaks the
    Vieta sums, which the Newton form of the residue sum relies on.
    """
    a1, a0 = cubic.a1, cubic.a0
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = _cardano(a1, a0)
    gaps = np.abs(raw[:, :, None] - raw[:, None, :])
    gaps[:, range(3), range(3)] = np.inf
    isolation = gaps.min(axis=2)
    # among (near-)ties, the root nearest the real axis: a real cubic then
    # deflates by its real root and keeps its complex pair exactly conjugate
    eligible = isolation >= (1.0 - 1e-6) * isolation.max(axis=1, keepdims=True)
    pick = np.argmin(np.where(eligible, np.abs(raw.imag), np.inf), axis=1)
    r = raw[np.arange(raw.shape[0]), pick]
    active = np.ones(r.shape, dtype=bool)
    for _ in range(4):
        dp = cubic.derivative(r)
        active &= dp != 0
        step = np.divide(cubic(r), dp, out=np.zeros_like(r), where=active)
        r = r - step
        active &= np.abs(step) > 1e-16 * np.maximum(1.0, np.abs(r))

    # deflate: D(s) = (s - r)(s^2 + p s + q)
    p = 1.0 + r
    q = a1 + r * p
    disc = np.sqrt(p * p - 4.0 * q)
    lo = -0.5 * (p - disc)
    hi = -0.5 * (p + disc)
    swap = np.abs(hi) < np.abs(lo)
    big = np.where(swap, lo, hi)
    small = np.where(swap, hi, lo)
    # the smaller root has lost digits to cancellation; the product q gives
    # it accurately.  Roots of equal size, such as the exact conjugate pair
    # of a real quadratic, keep their symmetry.
    np.divide(q, big, out=small, where=np.abs(small) < 0.5 * np.abs(big))
    roots = np.stack([r, big, small], axis=1)
    order = np.lexsort((roots.imag, roots.real), axis=1)
    return np.take_along_axis(roots, order, axis=1)


def char_roots(params: SystemParams) -> tuple[complex, complex, complex]:
    """The three roots of the characteristic cubic, sorted by (real, imag): the
    one-point case of the K axis."""
    return tuple(_cubic_roots(char_cubic(params, [params.K]))[0].tolist())


def _pair_difference(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """E[x, y] = t e^{yt} expm1(z) / z with z = (x - y) t, finite as x -> y.

    Anchored at the node with the larger real part, so that Re z <= 0 and
    neither factor can overflow where the true value does not.
    """
    swap = x.real > y.real
    x, y = np.where(swap, y, x), np.where(swap, x, y)
    z = (x - y) * t
    phi = np.ones_like(z)
    nz = z != 0
    phi[nz] = np.expm1(z[nz]) / z[nz]
    return t * np.exp(y * t) * phi


def _triple_difference(a: np.ndarray, b: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
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


def _separated_differences(nodes: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows E[a, b, c], E[b, c] and E[c] of E(s) = exp(s t) as plain quotients.

    ``nodes`` holds one (a, b, c) per row; the result has shape (n, 3, t.size).
    """
    E = np.exp(nodes[:, :, None] * t)
    E[:, :2] = (E[:, :2] - E[:, 1:]) / (nodes[:, :2] - nodes[:, 1:])[:, :, None]
    E[:, 0] = (E[:, 0] - E[:, 1]) / (nodes[:, 0] - nodes[:, 2])[:, None]
    return E


def _clustered_differences(nodes: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The same rows in forms that stay finite as nodes meet: E[a, b, c] is
    the Taylor series where |(a - c) t| <= 1, else the pairs' quotient."""
    a, b, c = (nodes[:, k, None] for k in range(3))
    E = np.empty((nodes.shape[0], 3, t.size), dtype=complex)
    e_ab = _pair_difference(a, b, t)
    E[:, 1] = _pair_difference(b, c, t)
    E[:, 2] = np.exp(c * t)
    near = np.abs((a - c) * t) <= 1.0
    a, b, c, tt = (np.broadcast_to(v, near.shape)[near] for v in (a, b, c, t))
    E0 = E[:, 0]
    E0[near] = _triple_difference(a, b, c, tt)
    E0[~near] = ((e_ab - E[:, 1]) / (nodes[:, 0] - nodes[:, 2])[:, None])[~near]
    return E


def _exp_divided_differences(nodes: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per row of ``nodes``, plain quotients where they are accurate (see
    ``_SEPARATED``), else the clustered forms; shape (n, 3, t.size)."""
    s = np.abs(nodes)
    a, b, c = nodes.T
    spacing = np.minimum(np.abs(a - b), np.abs(b - c)) * np.abs(a - c)
    separated = spacing >= _SEPARATED * s.max(axis=1) ** 2
    if separated.all():  # the usual case: no copy, no clustered forms of nothing
        return _separated_differences(nodes, t)
    E = np.empty((nodes.shape[0], 3, t.size), dtype=complex)
    E[separated] = _separated_differences(nodes[separated], t)
    E[~separated] = _clustered_differences(nodes[~separated], t)
    return E


def _amplitudes(nodes: np.ndarray, newton: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(c1, c2, b) at ``t >= 0`` for each row of ``nodes`` (n, 3) and ``newton``
    (n, 3 amplitudes, 3 coefficients); shape (3, n, t.size)."""
    if np.any(t < 0.0):
        raise ValueError("closed-form evolution is defined for t >= 0")
    E = _exp_divided_differences(nodes, t)
    x = newton.transpose(1, 0, 2)[:, :, :, None]
    return x[:, :, 0] * E[:, 0] + x[:, :, 1] * E[:, 1] + x[:, :, 2] * E[:, 2]


@dataclass(frozen=True, eq=False)
class ResidueSolution:
    """The sorted ``roots``; the ``nodes`` (a, b, c), shape (3,), the same roots
    with (a, c) the widest pair; and ``newton``, shape (3, 3), whose row k holds
    the Newton coefficients (N(a), n2 (a + b) + n1, n2) of amplitude k of
    (c1, c2, b), with numerator N(s) = n2 s^2 + n1 s + n0.  The arrays are
    read-only.

    At t = 0 only E[c] = 1 survives, and n2 is c10, c20 and 0 for (c1, c2, b),
    so the initial data are reproduced exactly.
    """

    params: SystemParams
    init: InitialAmplitudes
    roots: tuple[complex, complex, complex]
    nodes: np.ndarray
    newton: np.ndarray

    def __post_init__(self) -> None:
        for name in ("nodes", "newton"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def evolve(self, t):
        """Evaluate (c1, c2, b) at scalar or array ``t >= 0``, ``_EVOLVE_BLOCK``
        times at a time, so that only the result grows with ``t.size``; the
        form of the divided differences is chosen per root set, not per time."""
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        out = np.empty((3, flat.size), dtype=complex)
        for lo in range(0, flat.size, _EVOLVE_BLOCK):
            block = slice(lo, lo + _EVOLVE_BLOCK)
            out[:, block] = _amplitudes(self.nodes[None], self.newton[None], flat[block])[:, 0]
        c1, c2, b = out
        if t.ndim == 0:
            return complex(c1[0]), complex(c2[0]), complex(b[0])
        return c1.reshape(t.shape), c2.reshape(t.shape), b.reshape(t.shape)


def _newton_form(
    params: SystemParams, init: InitialAmplitudes, K: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots (n, 3), nodes (n, 3) and Newton coefficients (n, 3, 3) over the array ``K``.

    The numerators of the three transformed amplitudes are

        N_c1(s) = c10 [s (s + 1) + R^2 r2^2] - c20 [i K (s + 1) + R^2 r1 r2]
        N_c2(s) = the same with indices 1 and 2 exchanged
        N_b(s)  = -i R [(r1 c10 + r2 c20) s - i K (r1 c20 + r2 c10)]
    """
    K = np.asarray(K, dtype=float)
    roots = _cubic_roots(char_cubic(params, K))
    R = params.R
    r1, r2 = params.r1, params.r2
    R2 = R * R
    c10, c20 = init.c10, init.c20
    cross = 1j * K + R2 * r1 * r2
    # (n2, n1, n0) of each numerator
    quadratics = (
        (c10, c10 - 1j * K * c20, c10 * R2 * r2 * r2 - c20 * cross),
        (c20, c20 - 1j * K * c10, c20 * R2 * r1 * r1 - c10 * cross),
        (0.0, -1j * R * (r1 * c10 + r2 * c20), -R * K * (r1 * c20 + r2 * c10)),
    )
    # (a, c) the widest pair; the first of equally wide pairs
    first, last = np.array([0, 0, 1]), np.array([1, 2, 2])
    w = np.argmax(np.abs(roots[:, first] - roots[:, last]), axis=1)
    i, j = first[w], last[w]
    nodes = np.take_along_axis(roots, np.stack([i, 3 - i - j, j], axis=1), axis=1)
    a, b = nodes[:, 0], nodes[:, 1]
    newton = np.empty((K.size, 3, 3), dtype=complex)
    for k, (n2, n1, n0) in enumerate(quadratics):
        newton[:, k, 0] = (n2 * a + n1) * a + n0
        newton[:, k, 1] = n2 * (a + b) + n1
        newton[:, k, 2] = n2
    return roots, nodes, newton


def residue_coefficients(
    params: SystemParams, init: InitialAmplitudes
) -> ResidueSolution:
    """Newton coefficients of the residue sum, valid for every root configuration:
    the one-point case of :func:`evolve_over_K`'s K axis."""
    roots, nodes, newton = _newton_form(params, init, [params.K])
    return ResidueSolution(params, init, tuple(roots[0].tolist()), nodes[0], newton[0])


def evolve_over_K(
    params: SystemParams, init: InitialAmplitudes, K, t
) -> np.ndarray:
    """Amplitudes (c1, c2, b) of ``params`` with each dipole strength of the
    array ``K`` in place of ``params.K``, at times ``t >= 0``: shape (3, K.size, t.size)."""
    _, nodes, newton = _newton_form(params, init, K)
    return _amplitudes(nodes, newton, np.asarray(t, dtype=float).reshape(-1))

