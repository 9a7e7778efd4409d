"""Time-domain solvers for the coupled atom-pair / reservoir-mode amplitudes.

Two independent routes produce trajectories:

* :func:`integrate_pseudomode` integrates the local-in-time three-amplitude
  system (the memory of the Lorentzian reservoir is carried by one auxiliary
  mode ``b``) with the adaptive Dormand-Prince 5(4) pair, or with fixed-step
  RK4 when bit-reproducible grids matter.

* :func:`integrate_volterra` discretizes the original integro-differential
  equations directly, where the reservoir enters through the memory kernel
  ``W^2 exp(-lam (t - t1))`` convolved against the stored amplitude history.
  It exists to cross-check the other solvers, so it shares no discretization
  with the pseudomode routes.

Both fixed-grid schemes, RK4 and the Volterra predictor-corrector, are
linear recurrences with constant coefficients: each step multiplies a state
vector by a fixed matrix.  They are evaluated as a blocked scan over powers
of that matrix (:func:`_power_scan`), not one Python step at a time.  The
scan holds no discretization of its own; each scheme builds its matrix.

Both return :class:`Trajectory` values sampled on their respective grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import (
    SURVIVING_POLE_TOL,
    char_roots,
    residue_coefficients,
)
from .model import (
    DerivedParams,
    InitialAmplitudes,
    SystemParams,
    derive,
    validate_initial,
)

__all__ = [
    "StepUnderflowError",
    "TrajectoryState",
    "Trajectory",
    "IntegratorConfig",
    "rhs",
    "integrate_pseudomode",
    "integrate_volterra",
    "sample_closed_form",
    "leak_series",
    "asymptotic_t_end",
]

SOLVER_TAGS = ("closed_form", "pseudomode_ode", "volterra")


class StepUnderflowError(Exception):
    """The adaptive integrator cannot go on.

    Its step fell below the minimum, or its error norm is not finite.
    """


@dataclass(frozen=True)
class TrajectoryState:
    """One sample: time, both atomic amplitudes, and the reservoir-mode amplitude."""

    t: float
    c1: complex
    c2: complex
    b: complex

    @property
    def tracked_population(self) -> float:
        return abs(self.c1) ** 2 + abs(self.c2) ** 2 + abs(self.b) ** 2


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A solved time series with its provenance.

    Samples are strictly increasing in time and start at
    ``(0, c10, c20, 0)``.  The arrays are read-only.
    """

    params: SystemParams
    derived: DerivedParams
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

    def __getitem__(self, i: int) -> TrajectoryState:
        return TrajectoryState(
            t=float(self.t[i]),
            c1=complex(self.c1[i]),
            c2=complex(self.c2[i]),
            b=complex(self.b[i]),
        )

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


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings for :func:`integrate_pseudomode`.

    Adaptive mode uses ``rel_tol``/``abs_tol``; setting ``dt`` switches to
    fixed-step RK4 on a reproducible grid.  ``sample_stride`` keeps every
    n-th accepted step (the final one always survives).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    dt: float | None = None
    max_step: float = math.inf
    sample_stride: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol <= 1e-2:
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")
        if not 0.0 < self.abs_tol <= 1e-2:
            raise ValueError(f"abs_tol must lie in (0, 1e-2], got {self.abs_tol}")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.max_step > 0.0:
            raise ValueError(f"max_step must be positive, got {self.max_step}")
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {self.sample_stride}")


def rhs(params: SystemParams, state: TrajectoryState) -> tuple[complex, complex, complex]:
    """Right-hand side of the local-in-time amplitude equations.

        dc1/dt = -i W alpha1 b - i K c2
        dc2/dt = -i W alpha2 b - i K c1
        db/dt  = -lam b - i W (alpha1 c1 + alpha2 c2)
    """
    y = np.array([state.c1, state.c2, state.b], dtype=complex)
    return tuple((_system_matrix(params) @ y).tolist())


def _system_matrix(params: SystemParams) -> np.ndarray:
    """The constant matrix M of dy/dt = M y for y = (c1, c2, b); see :func:`rhs`."""
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


def _stride_indices(n: int, stride: int) -> np.ndarray:
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def integrate_pseudomode(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float,
    cfg: IntegratorConfig | None = None,
    times: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the three-amplitude system up to ``t_end``.

    With ``times`` given (adaptive mode only), the solution is emitted on
    that grid, which must start at 0 and stay within ``[0, t_end]``;
    otherwise the solver's own accepted steps are emitted, thinned by
    ``cfg.sample_stride``.

    Raises
    ------
    StepUnderflowError
        If the adaptive solver cannot proceed, which for this linear
        non-stiff system indicates pathological inputs.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    cfg = cfg or IntegratorConfig()
    init = validate_initial(init, "strict")
    d = derive(params)
    y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)

    if cfg.dt is not None:
        if times is not None:
            raise ValueError("a custom sample grid requires adaptive mode (dt=None)")
        t, y = _rk4_fixed(params, y0, t_end, cfg.dt)
        idx = _stride_indices(t.size, cfg.sample_stride)
        return Trajectory(
            params=params,
            derived=d,
            init=init,
            t=t[idx],
            c1=y[0, idx],
            c2=y[1, idx],
            b=y[2, idx],
            solver_tag="pseudomode_ode",
        )

    if times is not None:
        times = np.asarray(times, dtype=float)
        if times.size == 0 or times[0] != 0.0:
            raise ValueError("sample grid must start at t = 0")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("sample grid must be strictly increasing")
        if times[-1] > t_end:
            raise ValueError("sample grid extends past t_end")
    t, y = _dopri45(
        _system_matrix(params), y0, t_end, cfg.rel_tol, cfg.abs_tol, cfg.max_step, times
    )
    idx = _stride_indices(t.size, cfg.sample_stride) if times is None else slice(None)
    return Trajectory(
        params=params,
        derived=d,
        init=init,
        t=t[idx],
        c1=y[0, idx],
        c2=y[1, idx],
        b=y[2, idx],
        solver_tag="pseudomode_ode",
    )


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 1980): stage
# coefficients, fifth-order weights and the 5(4) error weights (the seventh
# stage is the derivative at the step's end, reused as the next first stage),
# with Shampine's quartic dense output (Math. Comp. 46, 1986): the solution at
# x = (t - t_old) / h is y_old + h * (K^T P) @ (x, x^2, x^3, x^4).
_A2 = 1 / 5
_A3 = (3 / 40, 9 / 40)
_A4 = (44 / 45, -56 / 15, 32 / 9)
_A5 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A6 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)  # stage 2 weighs 0
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


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
    max_step: float,
    times: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive Dormand-Prince 5(4) for dy/dt = M y on [0, t_end].

    The step-size controller is that of ``scipy.integrate.RK45``, so the
    accepted steps are the same: Hairer-Norsett-Wanner (II.4) initial step,
    RMS error norm scaled by ``atol + max(|y|, |y_new|) rtol`` with
    ``rtol >= 100 eps``, safety 0.9, step factors clamped to [0.2, 10] with
    exponent -1/5 and no growth right after a rejection, ``min_step`` of ten
    ulps of t, and the last step clipped to ``t_end``.  The stepping runs on
    Python complex scalars; dense output on ``times`` is evaluated for all
    requested times at once after the loop.

    Returns ``(t, y)`` with ``y`` of shape ``(3, t.size)``: the accepted step
    ends (``t[0] = 0``) when ``times`` is None, otherwise ``times``.  Only
    the dense output needs the stages, so without ``times`` each accepted
    step keeps just its start and its state there.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M.tolist()

    def f(a, b, c):
        return (
            m00 * a + m01 * b + m02 * c,
            m10 * a + m11 * b + m12 * c,
            m20 * a + m21 * b + m22 * c,
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
    h_abs = min(100.0 * h0, h1, t_end, max_step)

    a21 = _A2
    a31, a32 = _A3
    a41, a42, a43 = _A4
    a51, a52, a53, a54 = _A5
    a61, a62, a63, a64, a65 = _A6
    b1, b3, b4, b5, b6 = _B
    e1, e3, e4, e5, e6, e7 = _E
    dense = times is not None
    t = 0.0
    starts = []
    steps = []  # per accepted step: y at its start, then the seven stages if dense
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        y1, y2, y3 = y
        p1, p2, p3 = k1
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflowError(f"step size fell below {min_step:.3e} at t = {t!r}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            k2 = f(y1 + h * (a21 * p1), y2 + h * (a21 * p2), y3 + h * (a21 * p3))
            q1, q2, q3 = k2
            k3 = f(
                y1 + h * (a31 * p1 + a32 * q1),
                y2 + h * (a31 * p2 + a32 * q2),
                y3 + h * (a31 * p3 + a32 * q3),
            )
            r1, r2, r3 = k3
            k4 = f(
                y1 + h * (a41 * p1 + a42 * q1 + a43 * r1),
                y2 + h * (a41 * p2 + a42 * q2 + a43 * r2),
                y3 + h * (a41 * p3 + a42 * q3 + a43 * r3),
            )
            s1, s2, s3 = k4
            k5 = f(
                y1 + h * (a51 * p1 + a52 * q1 + a53 * r1 + a54 * s1),
                y2 + h * (a51 * p2 + a52 * q2 + a53 * r2 + a54 * s2),
                y3 + h * (a51 * p3 + a52 * q3 + a53 * r3 + a54 * s3),
            )
            u1, u2, u3 = k5
            k6 = f(
                y1 + h * (a61 * p1 + a62 * q1 + a63 * r1 + a64 * s1 + a65 * u1),
                y2 + h * (a61 * p2 + a62 * q2 + a63 * r2 + a64 * s2 + a65 * u2),
                y3 + h * (a61 * p3 + a62 * q3 + a63 * r3 + a64 * s3 + a65 * u3),
            )
            v1, v2, v3 = k6
            y_new = (
                y1 + h * (b1 * p1 + b3 * r1 + b4 * s1 + b5 * u1 + b6 * v1),
                y2 + h * (b1 * p2 + b3 * r2 + b4 * s2 + b5 * u2 + b6 * v2),
                y3 + h * (b1 * p3 + b3 * r3 + b4 * s3 + b5 * u3 + b6 * v3),
            )
            k7 = f(*y_new)
            w1, w2, w3 = k7
            n1, n2, n3 = y_new
            error_norm = _rms(
                h * (e1 * p1 + e3 * r1 + e4 * s1 + e5 * u1 + e6 * v1 + e7 * w1),
                h * (e1 * p2 + e3 * r2 + e4 * s2 + e5 * u2 + e6 * v2 + e7 * w2),
                h * (e1 * p3 + e3 * r3 + e4 * s3 + e5 * u3 + e6 * v3 + e7 * w3),
                atol + max(abs(y1), abs(n1)) * rtol,
                atol + max(abs(y2), abs(n2)) * rtol,
                atol + max(abs(y3), abs(n3)) * rtol,
            )
            # a non-finite state makes the norm non-finite too
            if not math.isfinite(error_norm):
                raise StepUnderflowError(f"non-finite error norm {error_norm} at t = {t!r}")
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** -0.2)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** -0.2)
            rejected = True
        starts.append(t)
        steps.append((*y, *k1, *k2, *k3, *k4, *k5, *k6, *k7) if dense else y)
        t, y, k1 = t_new, y_new, k7

    bounds = np.array(starts + [t_end])
    if not dense:
        return bounds, np.array(steps + [y], dtype=complex).T
    data = np.array(steps, dtype=complex).reshape(-1, 8, 3)
    # A time equal to a step's end belongs to that step.
    idx = np.searchsorted(bounds[1:], times, side="left")
    step = np.diff(bounds)
    x = (times - bounds[idx]) / step[idx]
    hQ = np.einsum("nsc,sk->ckn", data[:, 1:], _P) * step
    out = np.empty((3, times.size), dtype=complex)
    for c in range(3):
        acc = hQ[c, 3].take(idx)
        for j in (2, 1, 0):
            acc *= x
            acc += hQ[c, j].take(idx)
        acc *= x
        acc += data[:, 0, c].take(idx)
        out[c] = acc
    return times, out


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


def _rk4_increment(M: np.ndarray, h: float) -> np.ndarray:
    """One classic RK4 step of length h on dy/dt = M y is y -> y + D y; returns D.

    D = hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, the fourth-order Taylor
    polynomial of exp(hM) - I, in Horner form.
    """
    hM = h * M
    eye = np.eye(M.shape[0])
    return hM @ (eye + hM @ (eye + hM @ (eye + hM / 4.0) / 3.0) / 2.0)


def _rk4_fixed(
    params: SystemParams, y0: np.ndarray, t_end: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Classic RK4 with a deterministic grid that ends exactly at t_end.

    A multiple of dt within 1e-12 max(1, t_end) of t_end is moved onto it;
    otherwise a shrunk last step is added.  The steps of length dt are
    powers of one matrix, evaluated by :func:`_power_scan`; the last step
    applies the increment of its own length.
    """
    M = _system_matrix(params)
    n_full = int(math.floor(t_end / dt))
    t = dt * np.arange(n_full + 1)
    if n_full == 0 or t[-1] < t_end - 1e-12 * max(1.0, t_end):
        t = np.append(t, t_end)
    else:
        t[-1] = t_end
    y = np.empty((t.size, 3), dtype=complex)
    y[0] = y0
    if t.size > 1:
        y[:-1] = _power_scan(np.eye(3), _rk4_increment(M, dt), y0, t.size - 2)
        y[-1] = y[-2] + np.einsum("ij,j->i", _rk4_increment(M, t[-1] - t[-2]), y[-2])
    return t, y.T


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
        If ``n_steps < 100`` (the scheme needs a few nodes per oscillation
        period to be meaningful, and coarser grids defeat its purpose as an
        oracle).
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if n_steps < 100:
        raise ValueError(f"n_steps must be >= 100, got {n_steps}")
    init = validate_initial(init, "strict")
    d = derive(params)
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
        derived=d,
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
        derived=sol.derived,
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


def asymptotic_t_end(params: SystemParams) -> float:
    """Horizon for steady-state studies, tied to the actual spectral gap.

    Returns max(50/lam, 10/|Re s_slow|) where s_slow is the slowest decaying
    characteristic root, ignoring any root sitting on the imaginary axis
    (its residue never decays).
    """
    lam = params.lam
    roots = char_roots(params).roots
    decaying = [s.real for s in roots if s.real < -SURVIVING_POLE_TOL * lam]
    if not decaying:
        return 50.0 / lam
    slow = max(decaying)
    return max(50.0 / lam, 10.0 / abs(slow))
