"""Time-domain solvers for the coupled atom-pair / reservoir-mode amplitudes.

Rates are in units of the reservoir half-width lambda and times in units of
1/lambda, tau = lambda t (see :mod:`atompair.model`), so the reservoir
mode decays at rate 1.  Two independent routes produce trajectories:

* :func:`integrate_pseudomode` integrates the local-in-time three-amplitude
  system (the memory of the Lorentzian reservoir is carried by one auxiliary
  mode ``b``) with the adaptive Dormand-Prince 8(5,3) pair (DOP853).  On
  this linear system a step is a polynomial in ``hM``, so the route steps
  by powers of ``hM`` with no stages (:func:`_dop853`), each power a
  product with the four distinct entries of ``hM``: M is symmetric, with
  zeros where the atoms would couple to themselves.  The same polynomial
  at a fraction x of the step is a step of length ``x h``, and it is the
  dense output: no interpolant of its own, and at ``x = 1`` the accepted
  state bit for bit.  :func:`_dop853` returns the accepted steps only; one
  function, :func:`_dense_coefficients`, forms the step polynomials on
  them, both for a sample grid (:func:`_dense_output`) and for the
  population-balance check of :mod:`atompair.verification`
  (:func:`_balance_residual`), which evaluates the polynomials and their
  derivatives on every step.  One function, :func:`_adaptive_run`, runs
  the stepper for both :func:`integrate_pseudomode` and
  :mod:`atompair.verification`, each at its own fixed pair of tolerances:
  ``_TOLERANCES`` (1e-9 relative, 1e-12 absolute) here, and the tighter
  ``LEAK_IDENTITY_CONFIG`` for the checks.  The route takes no other
  settings.  It stops with :class:`StepBudgetError` once it has tried
  ``_MAX_STEPS`` steps short of ``t_end``.

* :func:`integrate_volterra` discretizes the original integro-differential
  equations directly, where the reservoir enters through the memory kernel
  ``W^2 exp(-(t - t1))`` convolved against the stored amplitude history.
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
    "StepBudgetError",
    "Trajectory",
    "integrate_pseudomode",
    "integrate_volterra",
    "sample_closed_form",
    "leak_series",
]

SOLVER_TAGS = ("closed_form", "pseudomode_ode", "volterra")


# The most steps one run of integrate_pseudomode may take or try.  A run that
# would need more takes long enough, and holds enough memory, to be a
# mistake; the closed form reaches any horizon at once.  Far past the
# transient the step is bounded by stability, not accuracy, so the horizon
# a run reaches grows only in proportion to its steps.
_MAX_STEPS = 500_000
# The most steps one run of integrate_volterra may take, for the same reason.
_MAX_VOLTERRA_STEPS = 1_000_000


class StepBudgetError(Exception):
    """The adaptive integrator tried ``_MAX_STEPS`` steps and had not reached ``t_end``."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A solved time series with its provenance.

    Samples are strictly increasing in time, in units of 1/lambda, and start
    at ``(0, c10, c20, 0)``.  The arrays are read-only.
    """

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
        if np.any(t[1:] <= t[:-1]):
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
        db/dt  = -b - i W (alpha1 c1 + alpha2 c2)
    """
    W, K = params.W, params.K
    a1, a2 = params.alpha1, params.alpha2
    return np.array(
        [
            [0.0, -1j * K, -1j * W * a1],
            [-1j * K, 0.0, -1j * W * a2],
            [-1j * W * a1, -1j * W * a2, -1.0],
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

    Returns ``M`` of :func:`_system_matrix` and the :func:`_dop853` run
    ``(bounds, ys)``.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)
    M = _system_matrix(params)
    return M, *_dop853(M, y0, t_end, *tolerances)


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
    ValueError
        If the rates are too large for the route: the derivative's error
        norm overflows at t = 0.
    StepBudgetError
        If the solver has tried ``_MAX_STEPS`` steps short of ``t_end``.
    """
    if times is not None:
        times = np.asarray(times, dtype=float)
        if times.size == 0 or times[0] != 0.0:
            raise ValueError("sample grid must start at t = 0")
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("sample grid must be strictly increasing")
        if times[-1] > t_end:
            raise ValueError("sample grid extends past t_end")
    M, t, y = _adaptive_run(params, init, t_end, _TOLERANCES)
    if times is not None:
        t, y = times, _dense_output(M, t, y, times)
    return Trajectory(init=init, t=t, c1=y[0], c2=y[1], b=y[2], solver_tag="pseudomode_ode")


# Dormand-Prince 8(5,3) (DOP853: Hairer, Norsett & Wanner, Solving ODEs I,
# II.5, with the tableau of scipy's DOP853) on the linear system
# dy/dt = M y, where every stage is a polynomial in hM applied to y.  With
# z_j = (hM)^j y:
# * the eighth-order solution is sum_j _W[j] z_j, j = 0..12, the method's
#   stability function, whose weights are 1/j! up to j = 8;
# * the fifth- and third-order error estimates are
#   sum_j _E5[j - 6] z_j, j = 6..12, and sum_j _E3[j - 4] z_j, j = 4..12;
#   the order conditions make their lower powers vanish;
# * a step of length x h, 0 < x <= 1, from the same state is
#   sum_j _W[j] x^j z_j, so the step's own polynomial is its dense output.
# The test suite derives every weight from scipy's tableau.
_W = (
    1.0, 1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 720, 1 / 5040, 1 / 40320,
    2.691692200169089e-06, 2.3413451082097797e-07, 1.4947364854591547e-08,
    3.613324578128244e-10,
)
_E5 = (
    -1.3495284686584028e-05, 1.9334654632476543e-08, 2.4255722835738154e-07,
    -3.986199671840262e-08, -2.4840232758051445e-08, -5.179991027569356e-09,
    -1.806662289064122e-10,
)
_E3 = (
    0.004202279202279447, 0.001912849733362611, 0.000461866321484016,
    9.203663915338102e-05, 1.4960035021054388e-05, 1.978399101375278e-06,
    1.6968469610868993e-07, 8.82069232633511e-09, 1.8306229103919417e-10,
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
# Sample times the dense output evaluates at once, so that its working
# arrays stay in cache.  On the README reference case's 185 steps, 200,001
# times took 25-39 ms in blocks of 1024 to 16384, 8192 the least, and
# 100 ms in one block; 1,000,001 times took 158 ms at 8192 and 579 ms in
# one block (2-CPU x86-64 machine, numpy 2.4).
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


def _dop853(
    M: np.ndarray,
    y0: np.ndarray,
    t_end: float,
    rtol: float,
    atol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive Dormand-Prince 8(5,3) for dy/dt = M y on [0, t_end].

    The step-size controller is that of ``scipy.integrate.DOP853``, so the
    accepted steps are the same up to the rounding of the error estimate:
    Hairer-Norsett-Wanner (II.4) initial step for an estimator of order 7;
    the error norm ``|e5|^2 / sqrt(3 (|e5|^2 + 0.01 |e3|^2))`` of the fifth-
    and third-order estimates, each scaled by ``atol + max(|y|, |y_new|)
    rtol`` with ``rtol >= 100 eps``; safety 0.9, step factors clamped to
    [0.2, 10] with exponent -1/8 and no growth right after a rejection,
    no trial step shorter than ten ulps of t, and the last step clipped to
    ``t_end``.

    ``M`` must have the shape of :func:`_system_matrix`: symmetric, with
    zeros at ``(0, 0)`` and ``(1, 1)``.  It then has four distinct entries,
    ``-iK``, ``-iW alpha1``, ``-iW alpha2`` and ``-1``, and a trial step
    scales only those four by h.  It forms ``z_j = (hM)^j y`` for
    ``j = 1..12`` one product at a time on Python complex scalars, with
    seven complex multiplies per product where a general 3x3 matrix takes
    nine: the dropped terms are the exact zeros of the diagonal, and the
    terms kept are summed in the general product's order, so the steps and
    states are those of the general product bit for bit.  Each z_j is
    weighed into the solution and the two estimates with the fixed
    constants above as it is formed, in order of j; there are no stages.
    Scaling by h keeps ``|z_j|`` within ``(h |M|)^j |y|``, where powers of
    M alone would overflow near ``|M| = 1e25``.  ``|y|`` is carried over
    from the trial that accepted y.  Each accepted step keeps only its start
    and its state there; :func:`_dense_coefficients` forms the z_j again
    after the loop, for the steps its caller asks for, all at once.

    So the step budget is the run's one refusal.  The CLI's cubic-range
    check bounds M's entries; the controller keeps an
    accepted ``h |M|`` of order one, and a trial step is at most ten times
    an accepted one, so ``|z_12| <= (h |M|)^12 |y|`` and the error norm
    stay finite.  A step that cannot shrink below ten ulps of t is tried
    again until the budget runs out.  Only the derivative at t = 0 can
    overflow the error norm, on rates far beyond that range (``W = 1e200``),
    and that is refused before the first step.

    Returns ``(t, y)``: the accepted step ends, ``t[0] = 0`` and
    ``t[-1] = t_end``, and the states there, ``y`` of shape ``(3, t.size)``.

    Raises
    ------
    ValueError
        If ``M`` does not have the shape of :func:`_system_matrix`, or its
        rates overflow the derivative's error norm at t = 0.
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
        raise ValueError(f"the rates are too large for the adaptive route: the derivative's "
                         f"error norm at t = 0 is {d1}")
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    probe = f(*(v + h0 * k for v, k in zip(y, k1)))
    d2 = _rms(*(p - k for p, k in zip(probe, k1)), *scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1, t_end)

    (_, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12) = _W
    f6, f7, f8, f9, f10, f11, f12 = _E5
    t4, t5, t6, t7, t8, t9, t10, t11, t12 = _E3
    sqrt, ulp = math.sqrt, math.ulp
    t = 0.0
    tried = 0
    starts = []
    states = []
    y1, y2, y3 = y
    # |y| of the state the step starts from, carried over from its acceptance
    ay1, ay2, ay3 = abs(y1), abs(y2), abs(y3)
    while t < t_end:
        min_step = 10.0 * ulp(t)
        rejected = False
        while True:
            if h_abs < min_step:
                h_abs = min_step
            tried += 1
            if tried > _MAX_STEPS:
                raise StepBudgetError(f"more than {_MAX_STEPS} adaptive steps tried by t = {t!r}")
            t_new = t + h_abs
            if t_new > t_end:
                t_new = t_end
            h = t_new - t
            h_abs = h
            nk, nw1, nw2, nl = h * mk, h * mw1, h * mw2, h * ml
            # z_j = (hM)^j y = (a, b, c) for j = 1..12, each weighed as it
            # is formed: into the solution n, from j = 4 into the
            # third-order estimate g and from j = 6 into the fifth-order
            # estimate e.  Unrolled: a loop over j costs about 8 % more.
            a, b, c = nk * y2 + nw1 * y3, nk * y1 + nw2 * y3, nw1 * y1 + nw2 * y2 + nl * y3
            n1, n2, n3 = y1 + w1 * a, y2 + w1 * b, y3 + w1 * c
            a, b, c = nk * b + nw1 * c, nk * a + nw2 * c, nw1 * a + nw2 * b + nl * c
            n1, n2, n3 = n1 + w2 * a, n2 + w2 * b, n3 + w2 * c
            a, b, c = nk * b + nw1 * c, nk * a + nw2 * c, nw1 * a + nw2 * b + nl * c
            n1, n2, n3 = n1 + w3 * a, n2 + w3 * b, n3 + w3 * c
            a, b, c = nk * b + nw1 * c, nk * a + nw2 * c, nw1 * a + nw2 * b + nl * c
            n1, n2, n3 = n1 + w4 * a, n2 + w4 * b, n3 + w4 * c
            g1, g2, g3 = t4 * a, t4 * b, t4 * c
            a, b, c = nk * b + nw1 * c, nk * a + nw2 * c, nw1 * a + nw2 * b + nl * c
            n1, n2, n3 = n1 + w5 * a, n2 + w5 * b, n3 + w5 * c
            g1, g2, g3 = g1 + t5 * a, g2 + t5 * b, g3 + t5 * c
            a, b, c = nk * b + nw1 * c, nk * a + nw2 * c, nw1 * a + nw2 * b + nl * c
            n1, n2, n3 = n1 + w6 * a, n2 + w6 * b, n3 + w6 * c
            g1, g2, g3 = g1 + t6 * a, g2 + t6 * b, g3 + t6 * c
            e1, e2, e3 = f6 * a, f6 * b, f6 * c
            a, b, c = nk * b + nw1 * c, nk * a + nw2 * c, nw1 * a + nw2 * b + nl * c
            n1, n2, n3 = n1 + w7 * a, n2 + w7 * b, n3 + w7 * c
            g1, g2, g3 = g1 + t7 * a, g2 + t7 * b, g3 + t7 * c
            e1, e2, e3 = e1 + f7 * a, e2 + f7 * b, e3 + f7 * c
            a, b, c = nk * b + nw1 * c, nk * a + nw2 * c, nw1 * a + nw2 * b + nl * c
            n1, n2, n3 = n1 + w8 * a, n2 + w8 * b, n3 + w8 * c
            g1, g2, g3 = g1 + t8 * a, g2 + t8 * b, g3 + t8 * c
            e1, e2, e3 = e1 + f8 * a, e2 + f8 * b, e3 + f8 * c
            a, b, c = nk * b + nw1 * c, nk * a + nw2 * c, nw1 * a + nw2 * b + nl * c
            n1, n2, n3 = n1 + w9 * a, n2 + w9 * b, n3 + w9 * c
            g1, g2, g3 = g1 + t9 * a, g2 + t9 * b, g3 + t9 * c
            e1, e2, e3 = e1 + f9 * a, e2 + f9 * b, e3 + f9 * c
            a, b, c = nk * b + nw1 * c, nk * a + nw2 * c, nw1 * a + nw2 * b + nl * c
            n1, n2, n3 = n1 + w10 * a, n2 + w10 * b, n3 + w10 * c
            g1, g2, g3 = g1 + t10 * a, g2 + t10 * b, g3 + t10 * c
            e1, e2, e3 = e1 + f10 * a, e2 + f10 * b, e3 + f10 * c
            a, b, c = nk * b + nw1 * c, nk * a + nw2 * c, nw1 * a + nw2 * b + nl * c
            n1, n2, n3 = n1 + w11 * a, n2 + w11 * b, n3 + w11 * c
            g1, g2, g3 = g1 + t11 * a, g2 + t11 * b, g3 + t11 * c
            e1, e2, e3 = e1 + f11 * a, e2 + f11 * b, e3 + f11 * c
            a, b, c = nk * b + nw1 * c, nk * a + nw2 * c, nw1 * a + nw2 * b + nl * c
            n1, n2, n3 = n1 + w12 * a, n2 + w12 * b, n3 + w12 * c
            g1, g2, g3 = g1 + t12 * a, g2 + t12 * b, g3 + t12 * c
            e1, e2, e3 = e1 + f12 * a, e2 + f12 * b, e3 + f12 * c
            an1, an2, an3 = abs(n1), abs(n2), abs(n3)
            s1 = atol + (an1 if an1 > ay1 else ay1) * rtol
            s2 = atol + (an2 if an2 > ay2 else ay2) * rtol
            s3 = atol + (an3 if an3 > ay3 else ay3) * rtol
            # the squared norms of the scaled estimates
            r1, r2, r3 = abs(e1) / s1, abs(e2) / s2, abs(e3) / s3
            q1, q2, q3 = abs(g1) / s1, abs(g2) / s2, abs(g3) / s3
            e = r1 * r1 + r2 * r2 + r3 * r3
            g = q1 * q1 + q2 * q2 + q3 * q3
            # zero with e alone: 0.01 g may underflow to zero
            error_norm = e / sqrt(3.0 * (e + 0.01 * g)) if e else 0.0
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * error_norm ** -0.125
                    if factor > _MAX_FACTOR:
                        factor = _MAX_FACTOR
                if rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            factor = _SAFETY * error_norm ** -0.125
            h_abs *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            rejected = True
        starts.append(t)
        states.append((y1, y2, y3))
        t, y1, y2, y3, ay1, ay2, ay3 = t_new, n1, n2, n3, an1, an2, an3
    y = (y1, y2, y3)

    return np.array(starts + [t_end]), np.array(states + [y], dtype=complex).T


def _dense_coefficients(M: np.ndarray, bounds: np.ndarray, ys: np.ndarray, steps: np.ndarray):
    """The polynomials of the steps ``steps`` of the :func:`_dop853` run ``(bounds, ys)``.

    Step n spans ``bounds[n]..bounds[n + 1]`` from ``ys[:, n]``.  Returns
    each step's length, and the coefficients ``_W[j] z_j`` of ``x^j``,
    ``j = 0..12``, x the fraction of the step elapsed, shape
    ``(13, 3, steps.size)``, for all the steps at once.  The z_j are formed
    in real arithmetic that repeats the stepper's complex products and sums
    term for term, so each coefficient is the value the stepper weighed.
    """
    length = bounds[steps + 1] - bounds[steps]
    (_, mk, mw1), (_, _, mw2), (_, _, ml) = M.tolist()
    # the stepper's z_j+1 = (nk b + nw1 c, nk a + nw2 c, (nw1 a + nw2 b) + nl c)
    # for z_j = (a, b, c): the entries of hM that take (b, a, a), those that
    # take (c, c, b), and nl, each as real and imaginary parts
    entries = np.array([[mk, mk, mw1], [mw1, mw2, mw2]])
    hr, hi = entries.real[..., None] * length, entries.imag[..., None] * length
    lr, li = ml.real * length, ml.imag * length
    coef = np.empty((len(_W), 3, steps.size), dtype=complex)
    coef[0] = z = ys[:, steps]
    re, im = z.real, z.imag
    for j in range(1, len(_W)):
        pr, pi = re[[1, 0, 0]], im[[1, 0, 0]]
        qr, qi = re[[2, 2, 1]], im[[2, 2, 1]]
        new_re = (hr[0] * pr - hi[0] * pi) + (hr[1] * qr - hi[1] * qi)
        new_im = (hr[0] * pi + hi[0] * pr) + (hr[1] * qi + hi[1] * qr)
        new_re[2] += lr * re[2] - li * im[2]
        new_im[2] += lr * im[2] + li * re[2]
        re, im = new_re, new_im
        coef.real[j] = _W[j] * re
        coef.imag[j] = _W[j] * im
    return length, coef


def _dense_output(M: np.ndarray, bounds: np.ndarray, ys: np.ndarray, times: np.ndarray):
    """The states, shape ``(3, times.size)``, of the :func:`_dop853` run
    ``(bounds, ys)`` of ``M`` at sorted ``times``, from each step's polynomial.

    A time ``x`` of the way through a step is a step of length ``x h`` from
    its start, ``sum_j coef[j] x^j``, summed in order of j as the stepper
    sums the step; the coefficients are formed only for the steps that hold
    a time.  A time equal to a step's end belongs to that step, and its
    value, at ``x = 1``, is the state the stepper accepted there.  The times
    go ``_DENSE_BLOCK`` at a time, each block's steps found by counting the
    times each step holds.
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
        acc = coef[0].take(k, axis=-1)
        power = x.copy()
        for c in coef[1:]:
            acc += power * c.take(k, axis=-1)
            power *= x
        y[:, lo : lo + _DENSE_BLOCK] = acc
    return y


# The balance check's nodes on each step, x = (j + 1/2) / _BALANCE_NODES,
# and the steps it takes at once: below 1 MB of arrays, about 2.8 kB a step.
_BALANCE_NODES = 16
_BALANCE_BLOCK = 256


def _balance_residual(M: np.ndarray, bounds: np.ndarray, ys: np.ndarray) -> float:
    """The largest population-balance defect of the :func:`_dop853` run ``(bounds, ys)`` of ``M``.

    The tracked population P = |c1|^2 + |c2|^2 + |b|^2 obeys
    dP/dt = -2 |b|^2 exactly.  On each step the state is the step's
    polynomial ``y(x) = sum_j c_j x^j`` of :func:`_dense_coefficients`, x
    the fraction of the step elapsed, and ``dy/dt = y'(x) / h``.  Both are
    evaluated by Horner at ``_BALANCE_NODES`` midpoints of each step, and
    the largest ``|dP/dt + 2 |b|^2|``, with
    ``dP/dt = 2 Re(conj(y) . y'(x)) / h``, is returned; a NaN anywhere makes
    it NaN.  The steps go ``_BALANCE_BLOCK`` at a time.
    """
    x = (np.arange(_BALANCE_NODES) + 0.5) / _BALANCE_NODES

    def defect(steps: np.ndarray) -> float:
        length, coef = _dense_coefficients(M, bounds, ys, steps)
        top = coef.shape[0] - 1
        y = coef[top][..., None] * np.ones_like(x)
        dy = top * y
        for j in range(top - 1, -1, -1):
            y *= x
            y += coef[j][..., None]
            if j:
                dy *= x
                dy += j * coef[j][..., None]
        dpop = sum(v.real * d.real + v.imag * d.imag for v, d in zip(y, dy))
        b = y[2]
        r = 2.0 * dpop / length[:, None] + 2.0 * (b.real * b.real + b.imag * b.imag)
        return np.abs(r).max()

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

    The convolution integral I(t) = int_0^t exp(-(t - t1)) u(t1) dt1 with
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
    K, W = params.K, params.W
    a1, a2 = params.alpha1, params.alpha2
    W2 = _kernel_sign * W * W
    h = t_end / n_steps
    e1 = math.exp(-h)
    e2 = e1 * e1
    e3 = e2 * e1

    c1 = np.empty(n_steps + 1, dtype=complex)
    c2 = np.empty(n_steps + 1, dtype=complex)
    u = np.empty(4, dtype=complex)
    conv = np.empty(n_steps + 1, dtype=complex)
    c1[0], c2[0] = init.c10, init.c20
    u[0] = a1 * c1[0] + a2 * c2[0]
    conv[0] = 0.0

    def rhs(c1, c2, conv):
        """dc1/dt and dc2/dt, given the convolution integral."""
        m = W2 * conv
        return -a1 * m - 1j * K * c2, -a2 * m - 1j * K * c1

    # Node-0..3 startup: integrals of the cubic interpolant (exact for
    # cubics) give one-interval, Simpson, and 3/8 weights; the resulting
    # collocation equations are linear in the six unknown amplitudes, so
    # probe the affine map at zero and at each basis vector and solve directly.
    g_row = [np.exp(h * (np.arange(4.0) - k)) for k in range(4)]
    w1 = h * np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
    w2 = h * np.array([1.0, 4.0, 1.0, 0.0]) / 3.0
    w3 = 3.0 * h * np.array([1.0, 3.0, 3.0, 1.0]) / 8.0
    weights = (w1, w2, w3)

    def startup_map(x: np.ndarray) -> np.ndarray:
        """The amplitudes at nodes 1..3 that the collocation equations give
        for guesses ``x``; each entry of ``x`` is a row of probes."""
        first = np.ones_like(x[0])
        cc1 = np.array([c1[0] * first, x[0], x[2], x[4]])
        cc2 = np.array([c2[0] * first, x[1], x[3], x[5]])
        uu = a1 * cc1 + a2 * cc2
        integ = np.array(
            [np.zeros_like(first)] + [np.dot(w, g_row[k + 1][:, None] * uu) for k, w in enumerate(weights)]
        )
        f1, f2 = rhs(cc1, cc2, integ)
        return np.array([c[0] + np.dot(w, f) for w in weights for c, f in ((c1, f1), (c2, f2))])

    # column 0 probes at zero, column j + 1 at the j-th basis vector
    out = startup_map(np.eye(6, 7, 1, dtype=complex))
    d0 = out[:, 0]
    x = np.linalg.solve(np.eye(6) - (out[:, 1:] - d0[:, None]), d0)
    c1[1:4] = x[0::2]
    c2[1:4] = x[1::2]
    u[1:4] = a1 * c1[1:4] + a2 * c2[1:4]
    for k, w in enumerate(weights):
        conv[k + 1] = np.dot(w, g_row[k + 1] * u[:4])

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
        f1k, f2k = rhs(c1k, c2k, conv_k)
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
        fp1, fp2 = rhs(p1, p2, base + w_last * up)
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
    f1, f2 = rhs(c1[:3], c2[:3], conv[:3])
    x3 = np.array(
        [c1[3], c2[3], conv[3], f1[2], f2[2], f1[1], f2[1], f1[0], f2[0], u[2], u[1], conv[0], conv[2]]
    )
    # Node 3 is odd, so the steps from it alternate even, odd: scan their
    # product, I + D_pair, and read off each odd node and the even node after it.
    D_pair = D_odd + D_even + np.einsum("ij,jk->ik", D_odd, D_even)
    C = np.concatenate([probes[:3], probes[:3] + D_even[:3]])
    nodes = _power_scan(C, D_pair, x3, (n_steps - 3) // 2).reshape(-1, 3)
    c1[3:], c2[3:], conv[3:] = nodes[: n_steps - 2].T

    t = np.linspace(0.0, t_end, n_steps + 1)
    b = -1j * W * _kernel_sign * conv
    return Trajectory(init=init, t=t, c1=c1, c2=c2, b=b, solver_tag="volterra")


def sample_closed_form(
    params: SystemParams, init: InitialAmplitudes, times: np.ndarray
) -> Trajectory:
    """Evaluate the closed-form solution on ``times`` and wrap it as a trajectory."""
    times = np.asarray(times, dtype=float)
    c1, c2, b = residue_coefficients(params, init).evolve(times)
    return Trajectory(init=init, t=times, c1=c1, c2=c2, b=b, solver_tag="closed_form")


def leak_series(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Population lost to the reservoir continuum, clamped at zero from below.

    The continuum amplitudes are not tracked individually; their total weight
    is whatever is missing from the tracked populations.
    """
    p_leak = 1.0 - traj.tracked_population
    return traj.t, np.maximum(p_leak, 0.0)
