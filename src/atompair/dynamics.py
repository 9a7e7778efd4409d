"""Time-domain solvers for the coupled atom-pair / reservoir-mode amplitudes.

Two independent routes produce trajectories:

* :func:`integrate_pseudomode` integrates the local-in-time three-amplitude
  system (the memory of the Lorentzian reservoir is carried by one auxiliary
  mode ``b``) with the adaptive Dormand-Prince 5(4) pair.  On this linear
  system a Dormand-Prince step and its dense output are polynomials in
  ``hM``, so the route steps by powers of ``hM`` with no stages
  (:func:`_dopri45`), each power a product with the four distinct entries
  of ``hM``: M is
  symmetric, with zeros where the atoms would couple to themselves.
  :func:`_dopri45` returns the accepted steps only; one function,
  :func:`_dense_coefficients`, forms Shampine's interpolant on them, both
  for a sample grid (:func:`_dense_output`) and for the population-balance
  check of :mod:`atompair.verification` (:func:`_balance_residual`), which
  finds the interpolant's defect exactly, as a polynomial on each step.
  One function, :func:`_adaptive_run`, runs the stepper for both
  :func:`integrate_pseudomode` and :mod:`atompair.verification`, each at
  its own fixed pair of tolerances: ``_TOLERANCES`` (1e-9 relative, 1e-12
  absolute) here, and the tighter ``LEAK_IDENTITY_CONFIG`` for the
  checks.  The route takes no other settings.  It stops with
  :class:`StepBudgetError` once it has tried ``_MAX_STEPS`` steps short of
  ``t_end``.

* :func:`integrate_volterra` discretizes the original integro-differential
  equations directly, where the reservoir enters through the memory kernel
  ``W^2 exp(-lam (t - t1))`` convolved against the stored amplitude history.
  It exists to cross-check the other solvers, so it shares no discretization
  with the pseudomode route.  Its predictor-corrector is a linear
  recurrence with constant coefficients: each step multiplies a state
  vector by a fixed matrix.  It is evaluated as a blocked scan over powers
  of that matrix (:func:`_power_scan`), not one Python step at a time.

Both return :class:`Trajectory` values sampled on their respective grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import residue_coefficients
from .model import InitialAmplitudes, SystemParams

__all__ = [
    "StepUnderflowError",
    "StepBudgetError",
    "Trajectory",
    "integrate_pseudomode",
    "integrate_volterra",
    "sample_closed_form",
    "leak_series",
]

SOLVER_TAGS = ("closed_form", "pseudomode_ode", "volterra")


class StepUnderflowError(Exception):
    """The adaptive integrator cannot go on.

    Its step fell below the minimum, or its error norm is not finite.
    """


# The most steps one run of integrate_pseudomode may take or try.  A run that
# would need more takes long enough, and holds enough memory, to be a
# mistake; the closed form reaches any horizon at once.
_MAX_STEPS = 1_000_000
# The most steps one run of integrate_volterra may take, for the same reason.
_MAX_VOLTERRA_STEPS = _MAX_STEPS


class StepBudgetError(Exception):
    """The adaptive integrator tried ``_MAX_STEPS`` steps and had not reached ``t_end``."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A solved time series with its provenance.

    Samples are strictly increasing in time and start at
    ``(0, c10, c20, 0)``.  The arrays are read-only.
    """

    params: SystemParams
    init: InitialAmplitudes
    t: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    b: np.ndarray
    solver_tag: str

    def __post_init__(self) -> None:
        if self.solver_tag not in SOLVER_TAGS:
            raise ValueError(f"unknown solver_tag {self.solver_tag!r}")
        t = np.asarray(self.t, dtype=float)
        arrays = {"t": t}
        for name in ("c1", "c2", "b"):
            arrays[name] = np.asarray(getattr(self, name), dtype=complex)
            if arrays[name].shape != t.shape:
                raise ValueError(f"{name} and t have mismatched shapes")
        if t.ndim != 1 or t.size == 0:
            raise ValueError("t must be a nonempty 1-D array")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        if t[0] != 0.0:
            raise ValueError("trajectories start at t = 0")
        if (
            abs(arrays["c1"][0] - self.init.c10) > 1e-9
            or abs(arrays["c2"][0] - self.init.c20) > 1e-9
            or abs(arrays["b"][0]) > 1e-9
        ):
            raise ValueError("first sample does not match the initial state")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.t.size

    @property
    def p1(self) -> np.ndarray:
        return np.abs(self.c1) ** 2

    @property
    def p2(self) -> np.ndarray:
        return np.abs(self.c2) ** 2

    @property
    def pb(self) -> np.ndarray:
        return np.abs(self.b) ** 2

    @property
    def tracked_population(self) -> np.ndarray:
        return self.p1 + self.p2 + self.pb


def _system_matrix(params: SystemParams) -> np.ndarray:
    """The constant matrix M of dy/dt = M y for y = (c1, c2, b).

    These are the local-in-time amplitude equations:

        dc1/dt = -i W alpha1 b - i K c2
        dc2/dt = -i W alpha2 b - i K c1
        db/dt  = -lam b - i W (alpha1 c1 + alpha2 c2)
    """
    W, K, lam = params.W, params.K, params.lam
    a1, a2 = params.alpha1, params.alpha2
    return np.array(
        [
            [0.0, -1j * K, -1j * W * a1],
            [-1j * K, 0.0, -1j * W * a2],
            [-1j * W * a1, -1j * W * a2, -lam],
        ],
        dtype=complex,
    )


# The adaptive route's (relative, absolute) tolerances, for
# integrate_pseudomode and run --solver ode; verify runs at its own pair,
# verification.LEAK_IDENTITY_CONFIG.
_TOLERANCES = (1e-9, 1e-12)


def _adaptive_run(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float,
    tolerances: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adaptive route from ``(c10, c20, 0)`` to ``t_end`` at the
    ``(relative, absolute)`` pair ``tolerances``.

    Returns ``M`` of :func:`_system_matrix` and the :func:`_dopri45` run
    ``(bounds, ys)``.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)
    M = _system_matrix(params)
    return M, *_dopri45(M, y0, t_end, *tolerances)


def integrate_pseudomode(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float,
    times: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the three-amplitude system up to ``t_end``, at tolerances of
    1e-9 relative and 1e-12 absolute (``_TOLERANCES``).

    With ``times`` given, the solution is emitted on that grid, which must
    start at 0 and stay within ``[0, t_end]``; otherwise every accepted step
    is emitted.

    Raises
    ------
    StepUnderflowError
        If the adaptive solver cannot proceed, which for this linear
        non-stiff system indicates pathological inputs.
    StepBudgetError
        If the solver has tried ``_MAX_STEPS`` steps short of ``t_end``.
    """
    if times is not None:
        times = np.asarray(times, dtype=float)
        if times.size == 0 or times[0] != 0.0:
            raise ValueError("sample grid must start at t = 0")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("sample grid must be strictly increasing")
        if times[-1] > t_end:
            raise ValueError("sample grid extends past t_end")
    M, t, y = _adaptive_run(params, init, t_end, _TOLERANCES)
    if times is not None:
        t, y = times, _dense_output(M, t, y, times)
    return Trajectory(
        params=params, init=init, t=t, c1=y[0], c2=y[1], b=y[2], solver_tag="pseudomode_ode"
    )


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 1980) on
# the linear system dy/dt = M y, where every stage is a polynomial in hM
# applied to y.  With z_j = (hM)^j y:
# * the fifth-order solution is z0 + z1 + z2/2 + z3/6 + z4/24 + z5/120 +
#   z6/600, the method's stability function (Hairer & Wanner, Solving ODEs
#   II, IV.2);
# * the 5(4) error estimate, whose seventh stage is the derivative at the
#   step's end, is _ERR5 z5 + _ERR6 z6 + _ERR7 z7;
# * Shampine's quartic dense output (Math. Comp. 46, 1986) at
#   x = (t - t_old) / h is z0 + sum_m x^m sum_j _DENSE[j - 1, m - 1] z_j.
# These are exact reductions of the Butcher tableau and Shampine's
# coefficients.
_ERR5, _ERR6, _ERR7 = 97 / 120000, -13 / 40000, 1 / 24000
_DENSE = np.array([  # rows z1..z7, columns x^1..x^4
    [1, 0, 0, 0],
    [0, 1 / 2, 0, 0],
    [0, 0, 1 / 6, 0],
    [0, 0, 0, 1 / 24],
    [0, 5112093 / 587608460, -90725539 / 3525650760, 22358351 / 881412690],
    [0, -17546271 / 2938042300, 181174829 / 17628253800, -2325839 / 881412690],
    [0, 6769587 / 2938042300, -110615467 / 17628253800, 13999589 / 3525650760],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
# Sample times the dense output evaluates at once, so that its working
# arrays stay in cache.  On the README reference case's 1089 steps, 200,001
# times took 10-20 ms in blocks of 1024 to 16384, 8192 the least, and 20 ms
# in one block; 1,000,001 times took 56 ms at 8192 and 126 ms in one block
# (2-CPU x86-64 machine, numpy 2.4).
_DENSE_BLOCK = 8192


def _rms(x1: complex, x2: complex, x3: complex, s1: float, s2: float, s3: float) -> float:
    """RMS norm of ``(x1/s1, x2/s2, x3/s3)``.

    It squares by multiplication, so an overflow gives inf rather than an
    OverflowError from ``**``.
    """
    r1, r2, r3 = x1 / s1, x2 / s2, x3 / s3
    return math.sqrt(
        (
            r1.real * r1.real + r1.imag * r1.imag
            + r2.real * r2.real + r2.imag * r2.imag
            + r3.real * r3.real + r3.imag * r3.imag
        )
        / 3.0
    )


def _dopri45(
    M: np.ndarray,
    y0: np.ndarray,
    t_end: float,
    rtol: float,
    atol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive Dormand-Prince 5(4) for dy/dt = M y on [0, t_end].

    The step-size controller is that of ``scipy.integrate.RK45``, so the
    accepted steps are the same up to the rounding of the error estimate:
    Hairer-Norsett-Wanner (II.4) initial step, RMS error norm scaled by
    ``atol + max(|y|, |y_new|) rtol`` with ``rtol >= 100 eps``, safety 0.9,
    step factors clamped to [0.2, 10] with exponent -1/5 and no growth right
    after a rejection, ``min_step`` of ten ulps of t, and the last step
    clipped to ``t_end``.

    ``M`` must have the shape of :func:`_system_matrix`: symmetric, with
    zeros at ``(0, 0)`` and ``(1, 1)``.  It then has four distinct entries,
    ``-iK``, ``-iW alpha1``, ``-iW alpha2`` and ``-lam``, and a trial step
    scales only those four by h.  It forms ``z_j = (hM)^j y`` for
    ``j = 1..7`` one product at a time on Python complex scalars, with seven
    complex multiplies per product where a general 3x3 matrix takes nine:
    the dropped terms are the exact zeros of the diagonal, and the terms
    kept are summed in the general product's order, so the steps and states
    are those of the general product bit for bit.  The z_j are weighed with
    the fixed constants above; there are no stages.  Scaling by h keeps
    ``|z_j|`` within about ``3.3^7 |y|``, where powers of M alone would
    overflow near ``|M| = 1e44``.  ``|y|`` is carried over from the trial
    that accepted y.  Each accepted step keeps only its start and its state
    there; :func:`_dense_coefficients` forms the z_j again after the loop,
    for the steps its caller asks for, all at once.

    Returns ``(t, y)``: the accepted step ends, ``t[0] = 0`` and
    ``t[-1] = t_end``, and the states there, ``y`` of shape ``(3, t.size)``.

    Raises
    ------
    ValueError
        If ``M`` does not have the shape of :func:`_system_matrix`.
    StepUnderflowError
        If the step falls below ``min_step`` or the error norm is not finite.
    StepBudgetError
        Once more than ``_MAX_STEPS`` steps have been tried.
    """
    if M.shape != (3, 3) or M[0, 0] != 0 or M[1, 1] != 0 or not np.array_equal(M, M.T):
        raise ValueError("M must be symmetric with zeros on the c1/c2 diagonal")
    # the four distinct entries: dipole, the two couplings, damping
    (_, mk, mw1), (_, _, mw2), (_, _, ml) = M.tolist()

    def f(a, b, c):
        return (
            mk * b + mw1 * c,
            mk * a + mw2 * c,
            mw1 * a + mw2 * b + ml * c,
        )

    rtol = max(rtol, 100.0 * np.finfo(float).eps)
    y = tuple(y0.tolist())
    k1 = f(*y)

    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _rms(*y, *scale), _rms(*k1, *scale)
    if not math.isfinite(d1):
        raise StepUnderflowError(f"non-finite error norm {d1} of the derivative at t = 0")
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    probe = f(*(v + h0 * k for v, k in zip(y, k1)))
    d2 = _rms(*(p - k for p, k in zip(probe, k1)), *scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, t_end)

    sqrt, isfinite, ulp = math.sqrt, math.isfinite, math.ulp
    t = 0.0
    tried = 0
    starts = []
    states = []
    y1, y2, y3 = y
    # |y| of the state the step starts from, carried over from its acceptance
    ay1, ay2, ay3 = abs(y1), abs(y2), abs(y3)
    while t < t_end:
        min_step = 10.0 * ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflowError(f"step size fell below {min_step:.3e} at t = {t!r}")
            tried += 1
            if tried > _MAX_STEPS:
                raise StepBudgetError(f"more than {_MAX_STEPS} adaptive steps tried by t = {t!r}")
            t_new = t + h_abs
            if t_new > t_end:
                t_new = t_end
            h = t_new - t
            h_abs = h
            nk, nw1, nw2, nl = h * mk, h * mw1, h * mw2, h * ml
            # z_j = (hM)^j y = (a_j, b_j, c_j)
            a1 = nk * y2 + nw1 * y3
            b1 = nk * y1 + nw2 * y3
            c1 = nw1 * y1 + nw2 * y2 + nl * y3
            a2 = nk * b1 + nw1 * c1
            b2 = nk * a1 + nw2 * c1
            c2 = nw1 * a1 + nw2 * b1 + nl * c1
            a3 = nk * b2 + nw1 * c2
            b3 = nk * a2 + nw2 * c2
            c3 = nw1 * a2 + nw2 * b2 + nl * c2
            a4 = nk * b3 + nw1 * c3
            b4 = nk * a3 + nw2 * c3
            c4 = nw1 * a3 + nw2 * b3 + nl * c3
            a5 = nk * b4 + nw1 * c4
            b5 = nk * a4 + nw2 * c4
            c5 = nw1 * a4 + nw2 * b4 + nl * c4
            a6 = nk * b5 + nw1 * c5
            b6 = nk * a5 + nw2 * c5
            c6 = nw1 * a5 + nw2 * b5 + nl * c5
            a7 = nk * b6 + nw1 * c6
            b7 = nk * a6 + nw2 * c6
            c7 = nw1 * a6 + nw2 * b6 + nl * c6
            n1 = y1 + a1 + a2 * 0.5 + a3 / 6 + a4 / 24 + a5 / 120 + a6 / 600
            n2 = y2 + b1 + b2 * 0.5 + b3 / 6 + b4 / 24 + b5 / 120 + b6 / 600
            n3 = y3 + c1 + c2 * 0.5 + c3 / 6 + c4 / 24 + c5 / 120 + c6 / 600
            an1, an2, an3 = abs(n1), abs(n2), abs(n3)
            # _rms of the error estimate, scaled by atol + max(|y|, |y_new|) rtol
            s1 = atol + (an1 if an1 > ay1 else ay1) * rtol
            s2 = atol + (an2 if an2 > ay2 else ay2) * rtol
            s3 = atol + (an3 if an3 > ay3 else ay3) * rtol
            e1 = (_ERR5 * a5 + _ERR6 * a6 + _ERR7 * a7) / s1
            e2 = (_ERR5 * b5 + _ERR6 * b6 + _ERR7 * b7) / s2
            e3 = (_ERR5 * c5 + _ERR6 * c6 + _ERR7 * c7) / s3
            error_norm = sqrt(
                (
                    e1.real * e1.real + e1.imag * e1.imag
                    + e2.real * e2.real + e2.imag * e2.imag
                    + e3.real * e3.real + e3.imag * e3.imag
                )
                / 3.0
            )
            # a non-finite state makes the norm non-finite too
            if not isfinite(error_norm):
                raise StepUnderflowError(f"non-finite error norm {error_norm} at t = {t!r}")
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * error_norm ** -0.2
                    if factor > _MAX_FACTOR:
                        factor = _MAX_FACTOR
                if rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            factor = _SAFETY * error_norm ** -0.2
            h_abs *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            rejected = True
        starts.append(t)
        states.append((y1, y2, y3))
        t, y1, y2, y3, ay1, ay2, ay3 = t_new, n1, n2, n3, an1, an2, an3
    y = (y1, y2, y3)

    return np.array(starts + [t_end]), np.array(states + [y], dtype=complex).T


def _dense_coefficients(M: np.ndarray, bounds: np.ndarray, ys: np.ndarray, steps: np.ndarray):
    """Shampine's interpolant on the steps ``steps`` of the :func:`_dopri45` run ``(bounds, ys)``.

    Step n spans ``bounds[n]..bounds[n + 1]`` from ``ys[:, n]``.  Returns
    each step's length, and the coefficients of ``x^0..x^4``, x the
    fraction of the step elapsed, shape ``(5, 3, steps.size)``: the state,
    then the z_j = (hM)^j y of all the steps at once, weighed by ``_DENSE``.
    """
    length = bounds[steps + 1] - bounds[steps]
    coef = np.zeros((5, 3, steps.size), dtype=complex)
    coef[0] = z = ys[:, steps]
    for weights in _DENSE:
        z = length * np.einsum("ik,kn->in", M, z)
        coef[1:] += weights[:, None, None] * z
    return length, coef


def _dense_output(M: np.ndarray, bounds: np.ndarray, ys: np.ndarray, times: np.ndarray):
    """The states, shape ``(3, times.size)``, of the :func:`_dopri45` run
    ``(bounds, ys)`` of ``M`` at sorted ``times``, from Shampine's interpolant.

    The coefficients are formed only for the steps that hold a time; a time
    equal to a step's end belongs to that step, and its value is
    ``sum_m coef[m] x^m`` in Horner form.  The times go ``_DENSE_BLOCK`` at
    a time, each block's steps found by counting the times each step holds.
    """
    steps = np.flatnonzero(np.diff(np.searchsorted(times, bounds[1:], side="right"), prepend=0))
    start, end = bounds[steps], bounds[steps + 1]
    length, coef = _dense_coefficients(M, bounds, ys, steps)
    y = np.empty((3, times.size), dtype=complex)
    for lo in range(0, times.size, _DENSE_BLOCK):
        block = times[lo : lo + _DENSE_BLOCK]
        first, last = np.searchsorted(end, (block[0], block[-1]))
        held = np.searchsorted(block, end[first : last + 1], side="right")
        k = np.repeat(np.arange(first, last + 1), np.diff(held, prepend=0))
        x = (block - start[k]) / length[k]
        c = coef.take(k, axis=-1)
        acc = c[-1]
        for m in range(c.shape[0] - 2, -1, -1):
            acc *= x
            acc += c[m]
        y[:, lo : lo + _DENSE_BLOCK] = acc
    return y


# The balance check's nodes on each step, x = (j + 1/2) / _BALANCE_NODES,
# and the steps it takes at once: below 1 MB of arrays, 0.8 kB a step.
_BALANCE_NODES = 16
_BALANCE_BLOCK = 1024


def _balance_residual(M: np.ndarray, bounds: np.ndarray, ys: np.ndarray, lam: float) -> float:
    """The largest population-balance defect of the :func:`_dopri45` run ``(bounds, ys)`` of ``M``.

    The tracked population P = |c1|^2 + |c2|^2 + |b|^2 obeys
    dP/dt = -2 lam |b|^2 exactly.  On each step Shampine's interpolant
    ``sum_m c_m x^m`` is a quartic, so P and |b|^2 are real polynomials of
    degree 8, with coefficients ``sum_{i + j = d} Re(conj(c_i) . c_j)``, and
    so is the defect ``r(x) = P'(x) / h + 2 lam |b(x)|^2``.  The largest
    ``|r|`` at ``_BALANCE_NODES`` midpoints of each step is returned; a NaN
    anywhere makes it NaN.  The steps go ``_BALANCE_BLOCK`` at a time.
    """
    x = (np.arange(_BALANCE_NODES) + 0.5) / _BALANCE_NODES

    def defect(steps: np.ndarray) -> float:
        length, coef = _dense_coefficients(M, bounds, ys, steps)
        re, im = coef.real, coef.imag
        # coefficients of x^0..x^8 of each |y_k|^2
        sq = np.zeros((9, 3, steps.size))
        for i in range(5):
            for j in range(5):
                sq[i + j] += re[i] * re[j] + im[i] * im[j]
        # r = P'(x) / h + 2 lam |b|^2
        r = 2.0 * lam * sq[:, 2]
        r[:-1] += np.arange(1.0, 9.0)[:, None] * sq[1:].sum(axis=1) / length
        acc = np.zeros((steps.size, x.size))
        for d in range(8, -1, -1):
            acc *= x
            acc += r[d][:, None]
        return np.abs(acc).max()

    n = bounds.size - 1
    blocks = (np.arange(lo, min(lo + _BALANCE_BLOCK, n)) for lo in range(0, n, _BALANCE_BLOCK))
    return float(np.max([defect(steps) for steps in blocks]))


# Powers of the step matrix that _power_scan forms; carrying the state
# between blocks then takes n / _SCAN_BLOCK steps.
_SCAN_BLOCK = 128


def _power_scan(C: np.ndarray, D: np.ndarray, x0: np.ndarray, n: int) -> np.ndarray:
    """Rows ``C P^j x0`` for ``j = 0..n`` with ``P = I + D``: the recurrence ``x -> x + D x``.

    A blocked scan (Blelloch, *Prefix Sums and Their Applications*,
    CMU-CS-90-190, 1990): the powers of ``P`` up to the block length ``B``
    are formed once, each block's start state is carried to the next by
    ``P^B``, and one product expands every block.

    The powers are kept as ``P^j - I`` and built one factor at a time.
    Forming ``P`` itself would round a step that changes ``x`` little to the
    identity's ulp, and squaring would repeat rounding errors coherently;
    either makes the drift from a per-step loop grow in proportion to ``n``.
    (On ten points of the verification box, 100,000 Volterra steps drift
    3.5e-12 from the loop with ``P`` formed, 2.4e-13 without.)
    Every product is :func:`numpy.einsum`, which does not call BLAS, so the
    result does not depend on the BLAS thread count.
    """
    block = min(_SCAN_BLOCK, n + 1)
    powers = [np.zeros_like(D)]
    for _ in range(block):
        powers.append(D + powers[-1] + np.einsum("ij,jk->ik", D, powers[-1]))
    stack = C + np.einsum("ij,bjk->bik", C, powers[:-1])
    starts = np.empty((n // block + 1, x0.size), dtype=complex)
    starts[0] = x0
    for i in range(1, starts.shape[0]):
        starts[i] = starts[i - 1] + np.einsum("ij,j->i", powers[-1], starts[i - 1])
    return np.einsum("nj,bij->nbi", starts, stack).reshape(-1, C.shape[0])[: n + 1]


# a step too long for the rates overflows to inf and NaN; the result is
# returned as it is, for verification.sample_volterra to refuse
@np.errstate(over="ignore", invalid="ignore")
def integrate_volterra(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float,
    n_steps: int,
    _kernel_sign: float = 1.0,
) -> Trajectory:
    """Integrate the memory-kernel form of the amplitude equations.

    The convolution integral I(t) = int_0^t exp(-lam (t - t1)) u(t1) dt1 with
    u = alpha1 c1 + alpha2 c2 is evaluated from the stored history by
    composite Simpson quadrature (a 3/8 panel closes odd prefixes), with the
    kernel's exponential factored out exactly so each step costs O(1).  The
    stepper is a fourth-order Adams-Bashforth-Moulton predictor-corrector;
    the first three nodes come from solving the cubic-collocation startup
    system, which is linear in the unknown amplitudes, exactly.  The
    reservoir-mode amplitude is reported as the derived quantity
    b = -i W I(t) on the same grid.

    From node 3 on, one step is a fixed linear map on a 13-entry state, with
    one matrix for steps to even nodes and one for steps to odd nodes.  The
    matrices are read off the step by probing it with basis vectors, and
    their product, which advances two nodes, is powered in blocks by
    :func:`_power_scan`.  This changes only how the recurrence is
    evaluated: it agrees with a per-step loop to about 1e-13.

    ``_kernel_sign`` is a verification hook that flips the sign of the memory
    kernel; leave it at +1 for physical results.

    Raises
    ------
    ValueError
        If ``n_steps`` is below 100 (the scheme needs a few nodes per
        oscillation period to be meaningful, and coarser grids defeat its
        purpose as an oracle) or above ``_MAX_VOLTERRA_STEPS``; either is
        refused before anything is allocated.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not 100 <= n_steps <= _MAX_VOLTERRA_STEPS:
        raise ValueError(f"n_steps must lie in [100, {_MAX_VOLTERRA_STEPS}], got {n_steps}")
    lam, K, W = params.lam, params.K, params.W
    a1, a2 = params.alpha1, params.alpha2
    W2 = _kernel_sign * W * W
    h = t_end / n_steps
    e1 = math.exp(-lam * h)
    e2 = e1 * e1
    e3 = e2 * e1

    c1 = np.empty(n_steps + 1, dtype=complex)
    c2 = np.empty(n_steps + 1, dtype=complex)
    u = np.empty(4, dtype=complex)
    conv = np.empty(n_steps + 1, dtype=complex)
    c1[0], c2[0] = init.c10, init.c20
    u[0] = a1 * c1[0] + a2 * c2[0]
    conv[0] = 0.0

    # Node-0..3 startup: integrals of the cubic interpolant (exact for
    # cubics) give one-interval, Simpson, and 3/8 weights; the resulting
    # collocation equations are linear in the six unknown amplitudes, so
    # probe the affine map once per basis vector and solve directly.
    g_row = [np.exp(lam * h * (np.arange(4.0) - k)) for k in range(4)]
    w1 = h * np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
    w2 = h * np.array([1.0, 4.0, 1.0, 0.0]) / 3.0
    w3 = 3.0 * h * np.array([1.0, 3.0, 3.0, 1.0]) / 8.0
    weights = (w1, w2, w3)

    def startup_map(x: np.ndarray) -> np.ndarray:
        cc1 = np.array([c1[0], x[0], x[2], x[4]])
        cc2 = np.array([c2[0], x[1], x[3], x[5]])
        uu = a1 * cc1 + a2 * cc2
        integ = np.array(
            [0.0] + [np.dot(w, g_row[k + 1] * uu) for k, w in enumerate(weights)]
        )
        f1 = -a1 * W2 * integ - 1j * K * cc2
        f2 = -a2 * W2 * integ - 1j * K * cc1
        out = np.empty(6, dtype=complex)
        for k, w in enumerate(weights):
            out[2 * k] = c1[0] + np.dot(w, f1)
            out[2 * k + 1] = c2[0] + np.dot(w, f2)
        return out

    d0 = startup_map(np.zeros(6, dtype=complex))
    T = np.empty((6, 6), dtype=complex)
    for j in range(6):
        e = np.zeros(6, dtype=complex)
        e[j] = 1.0
        T[:, j] = startup_map(e) - d0
    x = np.linalg.solve(np.eye(6) - T, d0)
    c1[1:4] = x[0::2]
    c2[1:4] = x[1::2]
    u[1:4] = a1 * c1[1:4] + a2 * c2[1:4]
    for k, w in enumerate(weights):
        conv[k + 1] = np.dot(w, g_row[k + 1] * u[:4])

    def f_at(k: int) -> tuple[complex, complex]:
        m = W2 * conv[k]
        return (-a1 * m - 1j * K * c2[k], -a2 * m - 1j * K * c1[k])

    h38 = 3.0 * h / 8.0
    h13 = h / 3.0
    ab = (55.0 * h / 24.0, -59.0 * h / 24.0, 37.0 * h / 24.0, -9.0 * h / 24.0)
    am = (9.0 * h / 24.0, 19.0 * h / 24.0, -5.0 * h / 24.0, h / 24.0)

    def abm_increment(x, even: bool) -> np.ndarray:
        """The change of the state over the step from node k to k + 1, even or odd.

        The state holds c1, c2 and conv at node k, the right-hand sides f at
        k - 1, k - 2 and k - 3, u at k - 1 and k - 2, and the Simpson prefix
        sums at the two most recent even nodes; the exponential kernel
        telescopes exactly, so advancing those sums reproduces the dense
        composite rule to rounding.  The step is linear, so each entry may
        be a row of probes.  It returns the change rather than the new
        state so that no slowly changing entry is rounded to 1 + small.
        """
        c1k, c2k, conv_k, f1a, f2a, f1b, f2b, f1c, f2c, u1, u2, E_old, E_new = x
        m = W2 * conv_k
        f1k = -a1 * m - 1j * K * c2k
        f2k = -a2 * m - 1j * K * c1k
        p1 = c1k + ab[0] * f1k + ab[1] * f1a + ab[2] * f1b + ab[3] * f1c
        p2 = c2k + ab[0] * f2k + ab[1] * f2a + ab[2] * f2b + ab[3] * f2c
        up = a1 * p1 + a2 * p2
        uk = a1 * c1k + a2 * c2k
        if even:
            dE = (e2 - 1.0) * E_new + h13 * (e2 * u1 + 4.0 * e1 * uk)
            base = E_new + dE
            w_last = h13
        else:
            base = e3 * E_old + h38 * (e3 * u2 + 3.0 * e2 * u1 + 3.0 * e1 * uk)
            w_last = h38
        mem_p = W2 * (base + w_last * up)
        fp1 = -a1 * mem_p - 1j * K * p2
        fp2 = -a2 * mem_p - 1j * K * p1
        d1 = am[0] * fp1 + am[1] * f1k + am[2] * f1a + am[3] * f1b
        d2 = am[0] * fp2 + am[1] * f2k + am[2] * f2a + am[3] * f2b
        um = a1 * (c1k + d1) + a2 * (c2k + d2)
        conv_m = base + w_last * um
        if even:
            dE_old, dE_new = E_new - E_old, dE + w_last * um
        else:
            dE_old = dE_new = np.zeros_like(E_old)
        return np.array([
            d1, d2, conv_m - conv_k, f1k - f1a, f2k - f2a, f1a - f1b, f2a - f2b,
            f1b - f1c, f2b - f2c, uk - u1, u1 - u2, dE_old, dE_new,
        ])

    probes = np.eye(13, dtype=complex)
    D_even, D_odd = abm_increment(probes, True), abm_increment(probes, False)
    x3 = np.array(
        [c1[3], c2[3], conv[3], *f_at(2), *f_at(1), *f_at(0), u[2], u[1], conv[0], conv[2]]
    )
    # Node 3 is odd, so the steps from it alternate even, odd: scan their
    # product, I + D_pair, and read off each odd node and the even node after it.
    D_pair = D_odd + D_even + np.einsum("ij,jk->ik", D_odd, D_even)
    C = np.concatenate([probes[:3], probes[:3] + D_even[:3]])
    nodes = _power_scan(C, D_pair, x3, (n_steps - 3) // 2).reshape(-1, 3)
    c1[3:], c2[3:], conv[3:] = nodes[: n_steps - 2].T

    t = np.linspace(0.0, t_end, n_steps + 1)
    b = -1j * W * _kernel_sign * conv
    return Trajectory(
        params=params,
        init=init,
        t=t,
        c1=c1,
        c2=c2,
        b=b,
        solver_tag="volterra",
    )


def sample_closed_form(
    params: SystemParams, init: InitialAmplitudes, times: np.ndarray
) -> Trajectory:
    """Evaluate the closed-form solution on ``times`` and wrap it as a trajectory."""
    times = np.asarray(times, dtype=float)
    sol = residue_coefficients(params, init)
    c1, c2, b = sol.evolve(times)
    return Trajectory(
        params=params,
        init=sol.init,
        t=times,
        c1=c1,
        c2=c2,
        b=b,
        solver_tag="closed_form",
    )


def leak_series(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Population lost to the reservoir continuum, clamped at zero from below.

    The continuum amplitudes are not tracked individually; their total weight
    is whatever is missing from the tracked populations.
    """
    p_leak = 1.0 - traj.tracked_population
    return traj.t, np.maximum(p_leak, 0.0)
