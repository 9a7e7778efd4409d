import ast
import inspect
import math
import time
from fractions import Fraction as F
import tracemalloc
import warnings

import numpy as np
import pytest

from atompair import (
    InitialAmplitudes,
    IntegratorConfig,
    SystemParams,
    Trajectory,
    asymptotic_t_end,
    bell_state,
    integrate_pseudomode,
    integrate_volterra,
    leak_series,
    residue_coefficients,
)
import atompair.dynamics as dyn
import atompair.verification as verification
from atompair.dynamics import (
    StepBudgetError,
    StepUnderflowError,
    _dopri45,
    _rms,
    _system_matrix,
)
from atompair.verification import (
    LEAK_IDENTITY_CONFIG,
    LEAK_IDENTITY_TOL,
    compare_solvers,
    leak_identity_residual,
)

from conftest import (
    INV_SQRT2,
    equal_params,
    fig_params,
    largest_discrepancy,
    random_init,
    random_params,
)

from test_closedform import damped_rabi_amplitude, triple_root_params


class TestRhs:
    def test_no_dipole_empty_mode(self):
        p = SystemParams(lam=1.0, W=3.0, alpha1=0.7, alpha2=0.3, K=0.0)
        c1, c2 = 0.5 + 0.1j, -0.2j
        dc1, dc2, db = _system_matrix(p) @ np.array([c1, c2, 0.0])
        assert dc1 == 0.0
        assert dc2 == 0.0
        expected = -1j * p.W * (p.alpha1 * c1 + p.alpha2 * c2)
        assert db == pytest.approx(expected, rel=1e-15)

    def test_dark_state_only_rotates(self):
        p = equal_params(K=5.0)
        c1, c2 = INV_SQRT2, -INV_SQRT2
        dc1, dc2, db = _system_matrix(p) @ np.array([c1, c2, 0.0])
        assert dc1 == pytest.approx(-1j * p.K * c2, abs=1e-15)
        assert dc2 == pytest.approx(-1j * p.K * c1, abs=1e-15)
        assert abs(db) < 1e-15

    def test_finite_difference_of_closed_form(self, rng):
        # centered difference of the exact solution witnesses the right side
        p = fig_params(K=3.0, R=7.0)
        init = random_init(rng)
        sol = residue_coefficients(p, init)
        h = 1e-6
        for t0 in (0.3, 1.7, 4.9):
            fm = sol.evolve(t0 - h)
            f0 = sol.evolve(t0)
            fp = sol.evolve(t0 + h)
            derivs = _system_matrix(p) @ np.array(f0)
            for (lo, hi, d) in zip(fm, fp, derivs):
                assert abs((hi - lo) / (2.0 * h) - d) < 1e-8


class TestPseudomode:
    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="t_end"):
            integrate_pseudomode(fig_params(K=0.0), bell_state("minus"), 0.0)

    def test_steady_plateau_without_dipole(self):
        p = fig_params(K=0.0)
        traj = integrate_pseudomode(p, bell_state("minus"), 60.0)
        conc = 2.0 * np.abs(traj.c1) * np.abs(traj.c2)
        late = traj.t > 40.0
        assert conc[late].min() > 0.7
        assert np.ptp(conc[late]) < 1e-4  # settled to a constant plateau

    def test_dipole_with_unequal_couplings_decays(self):
        p = fig_params(K=2.0)
        traj = integrate_pseudomode(p, bell_state("minus"), 200.0)
        conc = 2.0 * np.abs(traj.c1) * np.abs(traj.c2)
        assert conc[-1] < 0.02
        pop = traj.p1 + traj.p2
        assert pop[-1] < 0.02

    def test_decoherence_free_population(self):
        p = equal_params(K=20.0)
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        traj = integrate_pseudomode(p, bell_state("minus"), 10.0, cfg=cfg)
        pop = traj.p1 + traj.p2
        assert np.abs(pop - 1.0).max() < 1e-9

    def test_custom_grid_and_stride(self):
        p = fig_params(K=1.0)
        grid = np.linspace(0.0, 5.0, 11)
        traj = integrate_pseudomode(p, bell_state("plus"), 5.0, times=grid)
        assert np.array_equal(traj.t, grid)
        # without a grid, every accepted step is kept: a stride of one
        init = bell_state("plus")
        traj2 = integrate_pseudomode(p, init, 5.0)
        y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)
        bounds, ys = _dopri45(_system_matrix(p), y0, 5.0, 1e-9, 1e-12)
        assert np.array_equal(traj2.t, bounds) and traj2.t[-1] == 5.0
        assert np.array_equal(np.array([traj2.c1, traj2.c2, traj2.b]), ys)

    def test_overflowing_derivative_fails_fast(self):
        # the derivative's error norm overflows at t = 0; stepping on would
        # take about 1e200 steps
        p = SystemParams(lam=1.0, W=1e200, alpha1=0.8, alpha2=0.6, K=0.0)
        start = time.perf_counter()
        with pytest.raises(StepUnderflowError, match="non-finite"):
            integrate_pseudomode(p, InitialAmplitudes(1.0, 0.0), 1.0)
        assert time.perf_counter() - start < 1.0

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            integrate_pseudomode(
                fig_params(K=1.0), bell_state("plus"), 5.0, times=np.array([0.0, 2.0, 1.0])
            )

    def test_keeps_only_step_ends_without_grid(self):
        # the route keeps each accepted step's start and state, not the
        # powers z_j = (hM)^j y it steps with; the stage form that kept its
        # seven stages held about 1.4 KB per step
        p, init = fig_params(K=2.0), bell_state("minus")
        integrate_pseudomode(p, init, 1.0)
        tracemalloc.start()
        try:
            traj = integrate_pseudomode(p, init, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        steps = traj.t.size - 1
        assert 800 < steps < 1400
        assert peak / steps < 500

    def test_keeps_only_step_ends_with_grid(self):
        # dense output forms the coefficients only for the steps that hold a
        # sample time, after the loop
        p, init = fig_params(K=2.0), bell_state("minus")
        grid = np.linspace(0.0, 10.0, 11)
        integrate_pseudomode(p, init, 1.0, times=np.array([0.0, 1.0]))
        tracemalloc.start()
        try:
            integrate_pseudomode(p, init, 10.0, times=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        steps = integrate_pseudomode(p, init, 10.0).t.size - 1
        assert 800 < steps < 1400
        assert peak / steps < 500

    def test_population_never_increases(self, rng):
        for _ in range(5):
            p = random_params(rng)
            traj = integrate_pseudomode(p, random_init(rng), 10.0)
            pop = traj.tracked_population
            assert np.all(np.diff(pop) <= 1e-8)


def _rk45_reference(p, init, t_end, cfg):
    """scipy's RK45 on the same system, with its dense output."""
    integrate = pytest.importorskip("scipy.integrate")
    M = _system_matrix(p)
    with warnings.catch_warnings():
        # rel_tol below 100 eps: scipy warns and raises it to that floor
        warnings.simplefilter("ignore", UserWarning)
        sol = integrate.solve_ivp(
            lambda t, y: M @ y, (0.0, t_end), [init.c10, init.c20, 0.0], method="RK45",
            rtol=cfg.rel_tol, atol=cfg.abs_tol, dense_output=True,
        )
    assert sol.success
    return sol


def _sup_diff(traj, y):
    return max(np.abs(a - b).max() for a, b in zip((traj.c1, traj.c2, traj.b), y))


ADAPTIVE_CONFIGS = pytest.mark.parametrize(
    "cfg",
    [
        IntegratorConfig(),
        IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13),
        IntegratorConfig(rel_tol=1e-15, abs_tol=1e-13),
    ],
    ids=["default", "leak_check", "rtol_floor"],
)


class TestStepBudget:
    """No run takes or tries more than _MAX_STEPS steps."""

    def test_adaptive_loop_counts_tried_steps(self, monkeypatch):
        # the smallest budget that lets the run finish is the number of steps
        # it tried; search for it with the budget alone
        p, init = fig_params(K=2.0, R=20.0), bell_state("plus")
        steps = integrate_pseudomode(p, init, 10.0).t.size - 1

        def finishes(budget):
            monkeypatch.setattr(dyn, "_MAX_STEPS", budget)
            try:
                integrate_pseudomode(p, init, 10.0)
            except StepBudgetError:
                return False
            return True

        lo, hi = steps - 1, 2 * steps
        assert not finishes(lo) and finishes(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if finishes(mid) else (mid, hi)
        tried = hi
        assert tried > steps  # some steps were rejected
        monkeypatch.setattr(dyn, "_MAX_STEPS", tried)
        integrate_pseudomode(p, init, 10.0)
        monkeypatch.setattr(dyn, "_MAX_STEPS", tried - 1)
        with pytest.raises(StepBudgetError):
            integrate_pseudomode(p, init, 10.0)


class TestAgainstScipyRK45:
    """The in-repo Dormand-Prince stepper takes the steps of scipy's RK45."""

    @ADAPTIVE_CONFIGS
    def test_same_steps_and_values(self, rng, cfg):
        t_end = 5.0
        grid = np.linspace(0.0, t_end, 2001)
        points = [(fig_params(K=2.0), bell_state("minus"))]
        points += [(random_params(rng), random_init(rng)) for _ in range(3)]
        for p, init in points:
            sol = _rk45_reference(p, init, t_end, cfg)
            steps = integrate_pseudomode(p, init, t_end, cfg=cfg)
            assert steps.t.size == sol.t.size
            assert steps.t[-1] == t_end
            # the two step sequences drift apart by rounding (by up to about
            # 1e-8 in t over thousands of steps), so compare the values at
            # these step ends through scipy's dense output
            assert _sup_diff(steps, sol.sol(steps.t)) <= 1e-12
            on_grid = integrate_pseudomode(p, init, t_end, cfg=cfg, times=grid)
            assert _sup_diff(on_grid, sol.sol(grid)) <= 1e-12


# The Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980) as scipy's RK45 states it: stage coefficients, fifth-order weights,
# 5(4) error weights over the seven stages (the seventh is the derivative at
# the step's end), and Shampine's dense-output matrix (Math. Comp. 46, 1986),
# whose column m weighs x^(m + 1).
DP_A = [
    [],
    [F(1, 5)],
    [F(3, 40), F(9, 40)],
    [F(44, 45), F(-56, 15), F(32, 9)],
    [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
    [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)],
]
DP_B = [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)]
DP_E = [
    F(-71, 57600), F(0), F(71, 16695), F(-71, 1920), F(17253, 339200), F(-22, 525),
    F(1, 40),
]
DP_P = [
    [F(1), F(-8048581381, 2820520608), F(8663915743, 2820520608),
     F(-12715105075, 11282082432)],
    [F(0), F(0), F(0), F(0)],
    [F(0), F(131558114200, 32700410799), F(-68118460800, 10900136933),
     F(87487479700, 32700410799)],
    [F(0), F(-1754552775, 470086768), F(14199869525, 1410260304),
     F(-10690763975, 1880347072)],
    [F(0), F(127303824393, 49829197408), F(-318862633887, 49829197408),
     F(701980252875, 199316789632)],
    [F(0), F(-282668133, 205662961), F(2019193451, 616988883),
     F(-1453857185, 822651844)],
    [F(0), F(40617522, 29380423), F(-110615467, 29380423), F(69997945, 29380423)],
]


def dopri_stage_reference(M, y0, t_end, rtol, atol):
    """The seven-stage Dormand-Prince loop with FSAL, kept as the reference for the
    polynomial form of ``_dopri45``.

    Returns ``(t, y, dense)``: the accepted step ends, the states there, and
    Shampine's dense output as a function of sorted times in ``[0, t_end]``.
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
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    probe = f(*(v + h0 * k for v, k in zip(y, k1)))
    d2 = _rms(*(p - k for p, k in zip(probe, k1)), *scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, t_end)

    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = (
        [float(a) for a in row] for row in DP_A[1:]
    )
    b1, _, b3, b4, b5, b6 = (float(b) for b in DP_B)
    e1, _, e3, e4, e5, e6, e7 = (float(e) for e in DP_E)
    t = 0.0
    starts = []
    steps = []  # per accepted step: y at its start, then the seven stages
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        y1, y2, y3 = y
        p1, p2, p3 = k1
        rejected = False
        while True:
            assert h_abs >= min_step
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
            assert math.isfinite(error_norm)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = 10.0
                else:
                    factor = min(10.0, 0.9 * error_norm ** -0.2)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        starts.append(t)
        steps.append((*y, *k1, *k2, *k3, *k4, *k5, *k6, *k7))
        t, y, k1 = t_new, y_new, k7

    bounds = np.array(starts + [t_end])
    data = np.array(steps, dtype=complex).reshape(-1, 8, 3)
    hQ = np.einsum("nsc,sk->ckn", data[:, 1:], np.array(DP_P, dtype=float)) * np.diff(bounds)

    def dense(times):
        idx = np.searchsorted(bounds[1:], times, side="left")
        x = (times - bounds[idx]) / np.diff(bounds)[idx]
        acc = hQ[:, 3, idx]
        for j in (2, 1, 0):
            acc = acc * x + hQ[:, j, idx]
        return acc * x + data[idx, 0].T

    ys = np.concatenate([data[:, 0], [y]]).T
    return bounds, ys, dense


def _dopri_points(rng):
    points = [(fig_params(K=2.0), bell_state("minus"))]
    points += [(random_params(rng), random_init(rng)) for _ in range(3)]
    points.append((equal_params(K=20.0, R=20.0), bell_state("minus")))
    return points


class TestPolynomialStep:
    """The polynomial form of the Dormand-Prince step against the stage form."""

    @ADAPTIVE_CONFIGS
    def test_matches_stage_form(self, rng, cfg):
        t_end = 10.0
        grid = np.linspace(0.0, t_end, 2001)
        for p, init in _dopri_points(rng):
            M = _system_matrix(p)
            y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)
            args = (M, y0, t_end, cfg.rel_tol, cfg.abs_tol)
            t, y = _dopri45(*args)
            t_ref, _, dense_ref = dopri_stage_reference(*args)
            assert t.size == t_ref.size
            assert t[-1] == t_end
            # the step ends drift apart by rounding, so read the reference
            # at these step ends through its dense output
            assert np.abs(y - dense_ref(t)).max() <= 1e-12
            on_grid = dyn._dense_output(M, t, y, grid)
            assert np.abs(on_grid - dense_ref(grid)).max() <= 1e-12

    def test_constants_reduce_the_tableau(self):
        # each stage K_s, times h, is a polynomial in z = hM applied to y;
        # represent it by its coefficients of z^0..z^7
        def times_z(poly):
            return [F(0)] + poly[:-1]

        def combine(weights, polys):
            return [sum((w * q[j] for w, q in zip(weights, polys)), F(0)) for j in range(8)]

        one = [F(1)] + [F(0)] * 7
        hK = []
        for row in DP_A:
            hK.append(times_z([a + b for a, b in zip(one, combine(row, hK))]))
        y_new = [a + b for a, b in zip(one, combine(DP_B, hK))]
        hK.append(times_z(y_new))  # the seventh stage: the derivative at the step's end
        err = combine(DP_E, hK)
        dense = [[sum((hK[s][j] * DP_P[s][m] for s in range(7)), F(0)) for m in range(4)]
                 for j in range(8)]

        stability = [F(1, math.factorial(j)) for j in range(6)] + [F(1, 600), F(0)]
        assert y_new == stability
        assert err == [F(0)] * 5 + [F(97, 120000), F(-13, 40000), F(1, 24000)]
        assert (dyn._ERR5, dyn._ERR6, dyn._ERR7) == tuple(float(e) for e in err[5:])
        assert dense[0] == [F(0)] * 4  # the state is the constant term
        assert dyn._DENSE.tolist() == [[float(c) for c in row] for row in dense[1:]]

    def test_one_step_is_the_stability_polynomial(self):
        # with loose tolerances the first step covers a short horizon at
        # once, on an M of _system_matrix's shape with entries of hM of
        # moduli 0.3..0.5
        p = SystemParams(lam=300.0, W=500.0, alpha1=0.8, alpha2=0.6, K=-450.0)
        M = _system_matrix(p)
        h = 1e-3
        assert 0.3 <= np.abs(h * M[M != 0]).min() and np.abs(h * M).max() <= 0.5
        y0 = np.array([1.0, 0.5j, -0.25], dtype=complex)
        t, y = _dopri45(M, y0, h, 1e-2, 1e-2)
        assert t.tolist() == [0.0, h]
        z = h * M
        powers = [np.linalg.matrix_power(z, j) for j in range(7)]
        stability = sum(powers[j] / math.factorial(j) for j in range(6)) + powers[6] / 600
        assert np.abs(y[:, 1] - stability @ y0).max() <= 1e-15

    @pytest.mark.parametrize("case", ["diagonal", "asymmetric", "self_coupling", "2x2"])
    def test_refuses_other_shapes(self, case):
        M = _system_matrix(fig_params(K=2.0))
        if case == "diagonal":
            M = np.diag([-500.0, 300j, -200.0 + 300j])
        elif case == "asymmetric":
            M[1, 2] *= 1.5
        elif case == "self_coupling":
            M[1, 1] = -0.1
        else:
            M = M[:2, :2]
        y0 = np.ones(M.shape[0], dtype=complex)
        with pytest.raises(ValueError, match="symmetric"):
            _dopri45(M, y0, 1.0, 1e-9, 1e-12)


def dopri_polynomial_reference(M, y0, t_end, rtol, atol, times):
    """The polynomial Dormand-Prince loop on a general 3x3 M, nine products per power,
    kept as the byte-for-byte reference for the four-entry step of ``_dopri45``.

    Returns ``(t, y)`` as ``_dopri45`` does with ``times`` None; on ``times``
    the dense output forms every step's coefficients and evaluates them
    unblocked.
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
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    probe = f(*(v + h0 * k for v, k in zip(y, k1)))
    d2 = _rms(*(p - k for p, k in zip(probe, k1)), *scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, t_end)

    t = 0.0
    starts = []
    states = []
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        y1, y2, y3 = y
        rejected = False
        while True:
            assert h_abs >= min_step
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            n00, n01, n02 = h * m00, h * m01, h * m02
            n10, n11, n12 = h * m10, h * m11, h * m12
            n20, n21, n22 = h * m20, h * m21, h * m22
            a1 = n00 * y1 + n01 * y2 + n02 * y3
            b1 = n10 * y1 + n11 * y2 + n12 * y3
            c1 = n20 * y1 + n21 * y2 + n22 * y3
            a2 = n00 * a1 + n01 * b1 + n02 * c1
            b2 = n10 * a1 + n11 * b1 + n12 * c1
            c2 = n20 * a1 + n21 * b1 + n22 * c1
            a3 = n00 * a2 + n01 * b2 + n02 * c2
            b3 = n10 * a2 + n11 * b2 + n12 * c2
            c3 = n20 * a2 + n21 * b2 + n22 * c2
            a4 = n00 * a3 + n01 * b3 + n02 * c3
            b4 = n10 * a3 + n11 * b3 + n12 * c3
            c4 = n20 * a3 + n21 * b3 + n22 * c3
            a5 = n00 * a4 + n01 * b4 + n02 * c4
            b5 = n10 * a4 + n11 * b4 + n12 * c4
            c5 = n20 * a4 + n21 * b4 + n22 * c4
            a6 = n00 * a5 + n01 * b5 + n02 * c5
            b6 = n10 * a5 + n11 * b5 + n12 * c5
            c6 = n20 * a5 + n21 * b5 + n22 * c5
            a7 = n00 * a6 + n01 * b6 + n02 * c6
            b7 = n10 * a6 + n11 * b6 + n12 * c6
            c7 = n20 * a6 + n21 * b6 + n22 * c6
            n1 = y1 + a1 + a2 / 2 + a3 / 6 + a4 / 24 + a5 / 120 + a6 / 600
            n2 = y2 + b1 + b2 / 2 + b3 / 6 + b4 / 24 + b5 / 120 + b6 / 600
            n3 = y3 + c1 + c2 / 2 + c3 / 6 + c4 / 24 + c5 / 120 + c6 / 600
            error_norm = _rms(
                97 / 120000 * a5 + -13 / 40000 * a6 + 1 / 24000 * a7,
                97 / 120000 * b5 + -13 / 40000 * b6 + 1 / 24000 * b7,
                97 / 120000 * c5 + -13 / 40000 * c6 + 1 / 24000 * c7,
                atol + max(abs(y1), abs(n1)) * rtol,
                atol + max(abs(y2), abs(n2)) * rtol,
                atol + max(abs(y3), abs(n3)) * rtol,
            )
            assert math.isfinite(error_norm)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = 10.0
                else:
                    factor = min(10.0, 0.9 * error_norm ** -0.2)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        starts.append(t)
        states.append(y)
        t, y = t_new, (n1, n2, n3)

    bounds = np.array(starts + [t_end])
    ys = np.array(states + [y], dtype=complex).T
    if times is None:
        return bounds, ys
    return times, dense_unblocked_reference(bounds, dense_coefficients(M, bounds, ys), times)


def dense_coefficients(M, bounds, ys):
    """Shampine's coefficients of every step, shape ``(5, 3, steps)``, formed directly."""
    coef = np.zeros((5, *ys[:, :-1].shape), dtype=complex)
    coef[0] = z = ys[:, :-1]
    for row in dyn._DENSE:
        z = np.diff(bounds) * np.einsum("ik,kn->in", M, z)
        coef[1:] += row[:, None, None] * z
    return coef


# K = 0 and R = lam/2: a double root at -lam/2; atom 2 uncoupled with K = 0:
# c2 stays exactly c20
DOUBLE_ROOT = fig_params(K=0.0, R=0.5, r1=0.6)
SINGLE_ATOM = fig_params(K=0.0, r1=1.0)


class TestFourEntryStep:
    """The four-entry step of ``_dopri45`` is the general-M loop, byte for byte."""

    @ADAPTIVE_CONFIGS
    def test_same_bytes_as_general_product(self, rng, cfg):
        t_end = 10.0
        grid = np.linspace(0.0, t_end, 2001)
        points = _dopri_points(rng) + [
            (DOUBLE_ROOT, bell_state("minus")),
            (triple_root_params(), bell_state("minus")),
            (SINGLE_ATOM, InitialAmplitudes(1.0, 0.0)),
        ]
        for p, init in points:
            M = _system_matrix(p)
            y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)
            args = (M, y0, t_end, cfg.rel_tol, cfg.abs_tol)
            t, y = _dopri45(*args)
            t_ref, y_ref = dopri_polynomial_reference(*args, None)
            assert t.tobytes() == t_ref.tobytes()
            assert y.tobytes() == y_ref.tobytes()
            on_grid = dyn._dense_output(M, t, y, grid)
            _, on_grid_ref = dopri_polynomial_reference(*args, grid)
            assert on_grid.tobytes() == on_grid_ref.tobytes()
        # with atom 2 uncoupled and no dipole, c2 never leaves zero
        assert not y[1].any() and not on_grid[1].any()


def dense_unblocked_reference(bounds, coef, times):
    """Every time at once: binary search for its step, then Horner in x."""
    idx = np.searchsorted(bounds[1:], times, side="left")
    step = np.diff(bounds)
    x = (times - bounds[idx]) / step[idx]
    acc = coef[-1][:, idx]
    for m in range(coef.shape[0] - 2, -1, -1):
        acc = acc * x + coef[m][:, idx]
    return acc


class TestDenseOutput:
    """The dense output, a block of times at a time, is the unblocked evaluation, byte for byte."""

    @pytest.fixture
    def steps(self, rng):
        n = 300
        bounds = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.8, n))])
        bounds *= 10.0 / bounds[-1]
        bounds[-1] = 10.0
        ys = rng.normal(size=(3, n + 1)) + 1j * rng.normal(size=(3, n + 1))
        M = _system_matrix(random_params(rng))
        return M, bounds, ys, dense_coefficients(M, bounds, ys)

    @pytest.mark.parametrize(
        "size",
        [1, dyn._DENSE_BLOCK - 1, dyn._DENSE_BLOCK, dyn._DENSE_BLOCK + 1, 400_001],
    )
    @pytest.mark.parametrize("end", [1.0, 0.37], ids=["to_t_end", "short"])
    def test_matches_unblocked(self, steps, size, end):
        M, bounds, ys, coef = steps
        times = np.linspace(0.0, end * bounds[-1], size)
        ref = dense_unblocked_reference(bounds, coef, times)
        assert dyn._dense_output(M, bounds, ys, times).tobytes() == ref.tobytes()

    def test_times_on_step_ends(self, steps):
        M, bounds, ys, coef = steps
        times = np.union1d(bounds, np.linspace(0.0, bounds[-1], 2 * dyn._DENSE_BLOCK + 3))
        out = dyn._dense_output(M, bounds, ys, times)
        ref = dense_unblocked_reference(bounds, coef, times)
        assert out.tobytes() == ref.tobytes()
        # a step end is x = 1 of the step it closes: Horner sums from the top
        ends = np.searchsorted(times, bounds[1:])
        assert np.array_equal(out[:, ends], (((coef[4] + coef[3]) + coef[2]) + coef[1]) + coef[0])

    def test_forms_coefficients_for_the_steps_passed_only(self, rng):
        # every step's coefficients would take 5 x 3 x 16 B = 240 B a step,
        # 4.8 MB here; finding the steps that hold a time counts the times
        # up to each step's end, 8 B a step for each of three arrays
        n = 20_000
        bounds = np.linspace(0.0, 10.0, n + 1)
        ys = rng.normal(size=(3, n + 1)) + 1j * rng.normal(size=(3, n + 1))
        M = _system_matrix(fig_params(K=2.0))
        held = np.array([3, 4, 10_000, n - 1])
        times = np.sort(rng.uniform(bounds[held], bounds[held + 1]))
        tracemalloc.start()
        try:
            out = dyn._dense_output(M, bounds, ys, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6e6
        ref = dense_unblocked_reference(bounds, dense_coefficients(M, bounds, ys), times)
        assert out.tobytes() == ref.tobytes()

    def test_both_callers_use_it(self, monkeypatch):
        # run --solver ode, the solver comparison and the balance check read
        # one set of coefficients, formed by _dense_output and
        # _balance_residual through one function
        passed = []
        real = dyn._dense_coefficients

        def spy(*args):
            passed.append(args[-1])
            return real(*args)

        monkeypatch.setattr(dyn, "_dense_coefficients", spy)
        monkeypatch.setattr(dyn, "_BALANCE_BLOCK", 64)
        p, init = fig_params(K=2.0), bell_state("minus")
        steps = integrate_pseudomode(p, init, 1.0, cfg=LEAK_IDENTITY_CONFIG).t.size - 1
        assert steps > 2 * 64 and not passed
        # the grid passes only the two steps that hold t = 0 and t = 1
        integrate_pseudomode(p, init, 1.0, times=np.array([0.0, 1.0]))
        assert [a.size for a in passed] == [2]
        # the balance check passes every step once, a block at a time
        passed.clear()
        leak_identity_residual(p, init, t_end=1.0)
        assert [a.size for a in passed[:-1]] == [64] * (len(passed) - 1)
        assert np.concatenate(passed).tolist() == list(range(steps))
        # the comparison samples its grid from the same run, then checks
        # the balance on it
        passed.clear()
        compare_solvers(p, init, t_end=1.0, n_steps=2000)
        assert passed[0].tolist() == list(range(steps))
        assert np.concatenate(passed[1:]).tolist() == list(range(steps))

    def test_verification_steps_through_one_driver(self):
        # the comparison and the balance check reach the stepper only through
        # _adaptive_run, as integrate_pseudomode does
        tree = ast.parse(inspect.getsource(verification))
        private = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "dynamics"
            for alias in node.names
            if alias.name.startswith("_")
        }
        assert private == {"_adaptive_run", "_balance_residual", "_dense_output"}


def balance_reference(M, bounds, ys, lam):
    """The balance defect P' + 2 lam |b|^2 at the check's nodes, from the
    interpolant and its derivative, each evaluated by Horner on every step at once."""
    coef = dense_coefficients(M, bounds, ys)
    x = (np.arange(dyn._BALANCE_NODES) + 0.5) / dyn._BALANCE_NODES
    y = coef[-1][..., None]
    dy = 4.0 * coef[-1][..., None]
    for m in range(coef.shape[0] - 2, -1, -1):
        y = y * x + coef[m][..., None]
        if m:
            dy = dy * x + m * coef[m][..., None]
    h = np.diff(bounds)[:, None]
    dpop = 2.0 * (y.conj() * dy).real.sum(axis=0) / h
    return float(np.abs(dpop + 2.0 * lam * np.abs(y[2]) ** 2).max())


def tight_run(M, init, t_end):
    y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)
    cfg = LEAK_IDENTITY_CONFIG
    return _dopri45(M, y0, t_end, cfg.rel_tol, cfg.abs_tol)


# the step-heaviest corner of the verification box at lambda = 10: about
# 80,000 steps at LEAK_IDENTITY_CONFIG to t_end = 10
HEAVY_CORNER = (fig_params(K=-200.0, R=200.0, r1=0.6, lam=10.0),
                InitialAmplitudes(0.6 + 0.3j, -0.2 + 0.714142842854285j))


class TestLeakResidual:
    @pytest.mark.parametrize(
        "p, init, t_end",
        [
            (fig_params(K=2.0), bell_state("minus"), 5.0),
            (DOUBLE_ROOT, bell_state("minus"), 10.0),
            (triple_root_params(), bell_state("minus"), 10.0),
            (SINGLE_ATOM, InitialAmplitudes(1.0, 0.0), 10.0),
            (fig_params(K=2.0), bell_state("minus"), 1e-6),
            (fig_params(K=2.0), bell_state("minus"), 10.0),
        ],
        ids=["reference", "double_root", "triple_root", "single_atom", "one_pair", "cli_grid"],
    )
    def test_same_float_as_full_populations(self, monkeypatch, p, init, t_end):
        # the residual walks the steps a block at a time and forms the
        # defect's polynomial coefficients; blocks of another size give the
        # same float, and the interpolant and its derivative evaluated on
        # every step at once agree to rounding of the rate scale
        resid = leak_identity_residual(p, init, t_end=t_end)
        monkeypatch.setattr(dyn, "_BALANCE_BLOCK", 7)
        assert leak_identity_residual(p, init, t_end=t_end) == resid
        M = _system_matrix(p)
        expected = balance_reference(M, *tight_run(M, init, t_end), p.lam)
        assert abs(resid - expected) <= 1e-12 * np.abs(M).max()
        assert resid < 1e-8

    @pytest.mark.parametrize("corrupt", ["damping_sign", "coupling_phase"])
    @pytest.mark.parametrize(
        "p, init",
        [(fig_params(K=2.0), bell_state("minus")), (HEAVY_CORNER[0], bell_state("plus")),
         (SINGLE_ATOM, InitialAmplitudes(1.0, 0.0))],
        ids=["reference", "corner", "single_atom"],
    )
    def test_corrupted_matrix_fails(self, p, init, corrupt):
        # negative controls: b growing where it should decay, and a coupling
        # that has lost its -i, each fail by orders of magnitude
        M = _system_matrix(p)
        if corrupt == "damping_sign":
            M[2, 2] = p.lam
        else:
            M[0, 2] = M[2, 0] = -p.W * p.alpha1
        resid = dyn._balance_residual(M, *tight_run(M, init, 1.0), p.lam)
        assert resid >= 1e3 * LEAK_IDENTITY_TOL

    def test_memory_does_not_grow_with_the_steps(self):
        # the coefficients of every step would take 5 x 3 x 16 B = 240 B a
        # step, 19 MB here; a block of them stays below 1 MB
        p, init = HEAVY_CORNER
        M = _system_matrix(p)
        bounds, ys = tight_run(M, init, 10.0)
        assert bounds.size > 70_000
        tracemalloc.start()
        try:
            resid = dyn._balance_residual(M, bounds, ys, p.lam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert resid < 1e-8


class TestVolterra:
    def test_rejects_coarse_grids(self):
        with pytest.raises(ValueError, match="n_steps"):
            integrate_volterra(fig_params(K=0.0), bell_state("minus"), 10.0, 99)

    def test_single_atom_damped_oscillation(self):
        p = SystemParams(lam=1.0, W=10.0, alpha1=1.0, alpha2=0.0, K=0.0)
        traj = integrate_volterra(p, InitialAmplitudes(1.0, 0.0), 6.0, 2000)
        ref = damped_rabi_amplitude(traj.t, 1.0, 10.0)
        assert np.abs(traj.c1 - ref).max() < 1e-6
        assert np.abs(traj.c2).max() == 0.0

    def test_agreement_with_pseudomode(self, rng):
        for _ in range(6):
            p = random_params(rng)
            init = random_init(rng)
            comp = compare_solvers(p, init, t_end=10.0, n_steps=20000)
            assert largest_discrepancy(comp) <= 1e-5

    def test_convergence_order(self):
        # the memory quadrature and the multistep corrector are both fourth
        # order, so halving the step shrinks the error about sixteenfold
        p = fig_params(K=7.0)
        init = bell_state("minus")
        sol = residue_coefficients(p, init)
        errs = []
        for n in (1250, 2500, 5000):
            traj = integrate_volterra(p, init, 10.0, n)
            c1, _, _ = sol.evolve(traj.t)
            errs.append(np.abs(traj.c1 - c1).max())
        assert errs[0] / errs[1] > 10.0
        assert errs[1] / errs[2] > 10.0

    def test_symmetry_under_atom_exchange(self):
        p = equal_params(K=3.0)
        traj = integrate_volterra(p, bell_state("plus"), 8.0, 4000)
        assert np.abs(traj.c1 - traj.c2).max() < 1e-9

    def test_kernel_sign_hook_breaks_physics(self):
        p = fig_params(K=0.0)
        init = bell_state("minus")
        good = integrate_volterra(p, init, 5.0, 2000)
        bad = integrate_volterra(p, init, 5.0, 2000, _kernel_sign=-1.0)
        assert np.abs(good.c1 - bad.c1).max() > 1e-2


def volterra_loop_reference(params, init, t_end, n_steps, kernel_sign=1.0):
    """The per-step Volterra loop, kept as the reference for the blocked scan.

    Returns ``(t, c1, c2, b)``.
    """
    lam, K, W = params.lam, params.K, params.W
    a1, a2 = params.alpha1, params.alpha2
    W2 = kernel_sign * W * W
    h = t_end / n_steps
    e1 = math.exp(-lam * h)
    e2 = e1 * e1
    e3 = e2 * e1

    c1 = np.empty(n_steps + 1, dtype=complex)
    c2 = np.empty(n_steps + 1, dtype=complex)
    u = np.empty(n_steps + 1, dtype=complex)
    conv = np.empty(n_steps + 1, dtype=complex)
    c1[0], c2[0] = init.c10, init.c20
    u[0] = a1 * c1[0] + a2 * c2[0]
    conv[0] = 0.0

    g_row = [np.exp(lam * h * (np.arange(4.0) - k)) for k in range(4)]
    w1 = h * np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
    w2 = h * np.array([1.0, 4.0, 1.0, 0.0]) / 3.0
    w3 = 3.0 * h * np.array([1.0, 3.0, 3.0, 1.0]) / 8.0
    weights = (w1, w2, w3)

    def startup_map(x):
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

    def f_at(k):
        m = W2 * conv[k]
        return (-a1 * m - 1j * K * c2[k], -a2 * m - 1j * K * c1[k])

    fk3, fk2, fk1, fk = (f_at(k) for k in range(4))
    E_old, E_new = complex(conv[0]), complex(conv[2])

    h38 = 3.0 * h / 8.0
    h13 = h / 3.0
    ab = (55.0 * h / 24.0, -59.0 * h / 24.0, 37.0 * h / 24.0, -9.0 * h / 24.0)
    am = (9.0 * h / 24.0, 19.0 * h / 24.0, -5.0 * h / 24.0, h / 24.0)

    for k in range(3, n_steps):
        m = k + 1
        p1 = c1[k] + ab[0] * fk[0] + ab[1] * fk1[0] + ab[2] * fk2[0] + ab[3] * fk3[0]
        p2 = c2[k] + ab[0] * fk[1] + ab[1] * fk1[1] + ab[2] * fk2[1] + ab[3] * fk3[1]
        up = a1 * p1 + a2 * p2
        if m % 2 == 0:
            base = e2 * E_new + h13 * (e2 * u[m - 2] + 4.0 * e1 * u[m - 1])
            w_last = h13
        else:
            base = e3 * E_old + h38 * (e3 * u[m - 3] + 3.0 * e2 * u[m - 2] + 3.0 * e1 * u[m - 1])
            w_last = h38
        mem_p = W2 * (base + w_last * up)
        fp1 = -a1 * mem_p - 1j * K * p2
        fp2 = -a2 * mem_p - 1j * K * p1
        c1[m] = c1[k] + am[0] * fp1 + am[1] * fk[0] + am[2] * fk1[0] + am[3] * fk2[0]
        c2[m] = c2[k] + am[0] * fp2 + am[1] * fk[1] + am[2] * fk1[1] + am[3] * fk2[1]
        u[m] = a1 * c1[m] + a2 * c2[m]
        conv[m] = base + w_last * u[m]
        if m % 2 == 0:
            E_old, E_new = E_new, complex(conv[m])
        fk3, fk2, fk1 = fk2, fk1, fk
        fk = f_at(m)

    t = np.linspace(0.0, t_end, n_steps + 1)
    return t, c1, c2, -1j * W * kernel_sign * conv


def _rounding_bound(ref):
    """1e-12, relative to the largest magnitude once that exceeds 1."""
    return 1e-12 * max(1.0, max(np.abs(v).max() for v in ref))


class TestBlockedRecurrences:
    """The blocked scan agrees with the per-step loop it replaced."""

    @pytest.mark.parametrize("n_steps", [100, 101, 2001, 20000])
    def test_volterra_matches_loop(self, rng, n_steps):
        # at 100 and 101 steps the scheme is unstable for some of the random
        # points, whose amplitudes grow by many orders of magnitude; the
        # bound scales with them
        points = [(fig_params(K=2.0), bell_state("minus"))]
        points += [(random_params(rng), random_init(rng)) for _ in range(3)]
        for p, init in points:
            traj = integrate_volterra(p, init, 10.0, n_steps)
            t, *ref = volterra_loop_reference(p, init, 10.0, n_steps)
            assert np.array_equal(traj.t, t)
            assert _sup_diff(traj, ref) <= _rounding_bound(ref)

    def test_volterra_flipped_kernel_matches_loop(self):
        p, init = fig_params(K=2.0), bell_state("minus")
        traj = integrate_volterra(p, init, 5.0, 2001, _kernel_sign=-1.0)
        t, *ref = volterra_loop_reference(p, init, 5.0, 2001, kernel_sign=-1.0)
        assert max(np.abs(v).max() for v in ref) > 1e6  # the amplitudes grow
        assert _sup_diff(traj, ref) <= _rounding_bound(ref)


class TestTrajectoryType:
    def test_indexing_and_states(self):
        p = fig_params(K=1.0)
        traj = integrate_pseudomode(p, bell_state("plus"), 3.0)
        assert traj.t[0] == 0.0
        assert traj.c1[0] == pytest.approx(INV_SQRT2, abs=1e-12)
        assert traj.tracked_population[0] == pytest.approx(1.0, abs=1e-9)
        assert len(traj) == traj.t.size

    def test_arrays_are_read_only(self):
        traj = integrate_pseudomode(fig_params(K=1.0), bell_state("plus"), 2.0)
        with pytest.raises(ValueError):
            traj.c1[0] = 0.0

    def test_construction_rejects_bad_series(self):
        p = fig_params(K=1.0)
        init = bell_state("plus")
        good = dict(
            params=p, init=init,
            t=np.array([0.0, 1.0]),
            c1=np.array([init.c10, 0.1 + 0j]),
            c2=np.array([init.c20, 0.1 + 0j]),
            b=np.array([0.0j, 0.05j]),
            solver_tag="pseudomode_ode",
        )
        Trajectory(**good)
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(**{**good, "t": np.array([0.0, 0.0])})
        with pytest.raises(ValueError, match="start"):
            Trajectory(**{**good, "t": np.array([0.5, 1.0])})
        with pytest.raises(ValueError, match="initial state"):
            Trajectory(**{**good, "c1": np.array([0.0j, 0.1 + 0j])})
        with pytest.raises(ValueError, match="solver_tag"):
            Trajectory(**{**good, "solver_tag": "magic"})


class TestLeak:
    def test_starts_at_zero(self):
        traj = integrate_pseudomode(fig_params(K=2.0), bell_state("minus"), 5.0)
        t, p_leak = leak_series(traj)
        assert p_leak[0] == 0.0

    def test_decoherence_free_case_never_leaks(self):
        p = equal_params(K=7.0)
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        traj = integrate_pseudomode(p, bell_state("minus"), 20.0, cfg=cfg)
        _, p_leak = leak_series(traj)
        assert p_leak.max() < 1e-8

    def test_single_atom_leaks_everything(self):
        p = SystemParams(lam=1.0, W=10.0, alpha1=1.0, alpha2=0.0, K=0.0)
        traj = integrate_pseudomode(p, InitialAmplitudes(1.0, 0.0), 40.0)
        _, p_leak = leak_series(traj)
        assert p_leak[-1] > 1.0 - 1e-8

    def test_leak_is_nondecreasing(self, rng):
        p = random_params(rng)
        traj = integrate_pseudomode(p, random_init(rng), 10.0)
        _, p_leak = leak_series(traj)
        assert np.all(np.diff(p_leak) >= -1e-8)

    def test_leak_rate_identity(self):
        resid = leak_identity_residual(fig_params(K=2.0), bell_state("minus"), t_end=5.0)
        assert resid < 1e-6


class TestLinearity:
    def test_superposition_of_trajectories(self):
        p = fig_params(K=4.0)
        t = np.linspace(0.0, 8.0, 81)
        e1 = integrate_pseudomode(p, InitialAmplitudes(1.0, 0.0), 8.0, times=t)
        e2 = integrate_pseudomode(p, InitialAmplitudes(0.0, 1.0), 8.0, times=t)
        a, b = 0.6, complex(0.0, 0.8)
        mixed = integrate_pseudomode(p, InitialAmplitudes(a, b), 8.0, times=t)
        assert np.abs(a * e1.c1 + b * e2.c1 - mixed.c1).max() < 1e-7
        assert np.abs(a * e1.b + b * e2.b - mixed.b).max() < 1e-7


class TestHorizonRule:
    def test_zero_dipole_gap(self):
        # decaying pair sits at Re = -lam/2, so the rule gives max(50, 20) = 50
        assert asymptotic_t_end(fig_params(K=0.0)) == pytest.approx(50.0, rel=1e-6)

    def test_slow_pole_stretches_horizon(self):
        t_end = asymptotic_t_end(fig_params(K=2.0))
        assert t_end > 800.0  # slowest root decays at ~0.0112

    def test_imaginary_pole_excluded(self):
        t_end = asymptotic_t_end(equal_params(K=5.0))
        assert t_end < 1000.0
