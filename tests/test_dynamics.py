import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from atompair import (
    InitialAmplitudes,
    IntegratorConfig,
    SystemParams,
    Trajectory,
    TrajectoryState,
    asymptotic_t_end,
    bell_state,
    integrate_pseudomode,
    integrate_volterra,
    leak_series,
    residue_coefficients,
    rhs,
)
from atompair.dynamics import StepUnderflowError, _rk4_fixed, _system_matrix
from atompair.verification import compare_solvers, leak_identity_residual

from conftest import INV_SQRT2, equal_params, fig_params, random_init, random_params

from test_closedform import damped_rabi_amplitude


class TestRhs:
    def test_no_dipole_empty_mode(self):
        p = SystemParams(lam=1.0, W=3.0, alpha1=0.7, alpha2=0.3, K=0.0)
        state = TrajectoryState(t=0.0, c1=0.5 + 0.1j, c2=-0.2j, b=0.0)
        dc1, dc2, db = rhs(p, state)
        assert dc1 == 0.0
        assert dc2 == 0.0
        expected = -1j * p.W * (p.alpha1 * state.c1 + p.alpha2 * state.c2)
        assert db == pytest.approx(expected, rel=1e-15)

    def test_dark_state_only_rotates(self):
        p = equal_params(K=5.0)
        state = TrajectoryState(t=0.0, c1=INV_SQRT2, c2=-INV_SQRT2, b=0.0)
        dc1, dc2, db = rhs(p, state)
        assert dc1 == pytest.approx(-1j * p.K * state.c2, abs=1e-15)
        assert dc2 == pytest.approx(-1j * p.K * state.c1, abs=1e-15)
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
            state = TrajectoryState(t=t0, c1=f0[0], c2=f0[1], b=f0[2])
            derivs = rhs(p, state)
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
        cfg = IntegratorConfig(sample_stride=7)
        traj2 = integrate_pseudomode(p, bell_state("plus"), 5.0, cfg=cfg)
        assert traj2.t[0] == 0.0
        assert traj2.t[-1] == 5.0

    def test_fixed_step_is_bit_reproducible(self):
        p = fig_params(K=7.0)
        cfg = IntegratorConfig(dt=1e-3)
        a = integrate_pseudomode(p, bell_state("minus"), 4.0, cfg=cfg)
        b = integrate_pseudomode(p, bell_state("minus"), 4.0, cfg=cfg)
        assert np.array_equal(a.c1, b.c1)
        assert np.array_equal(a.b, b.b)
        # and lands exactly on the horizon
        assert a.t[-1] == 4.0

    def test_fixed_step_accuracy(self):
        p = fig_params(K=7.0)
        init = bell_state("minus")
        cfg = IntegratorConfig(dt=5e-4)
        traj = integrate_pseudomode(p, init, 4.0, cfg=cfg)
        c1, c2, b = residue_coefficients(p, init).evolve(traj.t)
        assert np.abs(c1 - traj.c1).max() < 1e-7

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
        # without a sample grid the route keeps each accepted step's start and
        # state, not its seven stages (about 1.4 KB per step)
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

    def test_population_never_increases(self, rng):
        for _ in range(5):
            p = random_params(rng)
            traj = integrate_pseudomode(p, random_init(rng), 10.0)
            pop = traj.tracked_population
            assert np.all(np.diff(pop) <= 1e-8)


def _rk45_reference(p, init, t_end, cfg):
    """scipy's RK45 on the same system, with its dense output."""
    integrate = pytest.importorskip("scipy.integrate")
    basis = np.eye(3, dtype=complex)
    M = np.array([rhs(p, TrajectoryState(0.0, *e)) for e in basis]).T
    with warnings.catch_warnings():
        # rel_tol below 100 eps: scipy warns and raises it to that floor
        warnings.simplefilter("ignore", UserWarning)
        sol = integrate.solve_ivp(
            lambda t, y: M @ y, (0.0, t_end), [init.c10, init.c20, 0.0], method="RK45",
            rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step, dense_output=True,
        )
    assert sol.success
    return sol


def _sup_diff(traj, y):
    return max(np.abs(a - b).max() for a, b in zip((traj.c1, traj.c2, traj.b), y))


class TestAgainstScipyRK45:
    """The in-repo Dormand-Prince stepper takes the steps of scipy's RK45."""

    @pytest.mark.parametrize(
        "cfg",
        [
            IntegratorConfig(),
            IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13),
            IntegratorConfig(max_step=0.05),
            IntegratorConfig(rel_tol=1e-15, abs_tol=1e-13),
        ],
        ids=["default", "leak_check", "max_step", "rtol_floor"],
    )
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

    def test_sample_stride_thins_the_same_steps(self):
        p, init = fig_params(K=2.0), bell_state("minus")
        cfg = IntegratorConfig(sample_stride=7)
        sol = _rk45_reference(p, init, 10.0, cfg)
        traj = integrate_pseudomode(p, init, 10.0, cfg=cfg)
        n = sol.t.size
        assert traj.t.size == math.ceil(n / 7) + ((n - 1) % 7 != 0)
        assert _sup_diff(traj, sol.sol(traj.t)) <= 1e-12


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
            assert comp.worst() <= 1e-5

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


def rk4_loop_reference(params, y0, t_end, dt):
    """The per-step fixed-step RK4 loop, kept as the reference for the blocked scan."""
    M = _system_matrix(params)
    n_full = int(math.floor(t_end / dt))
    t = dt * np.arange(n_full + 1)
    if n_full == 0 or t[-1] < t_end - 1e-12 * max(1.0, t_end):
        t = np.append(t, t_end)
    else:
        t[-1] = t_end
    y = np.empty((3, t.size), dtype=complex)
    y[:, 0] = y0
    cur = y0
    for k in range(t.size - 1):
        h = t[k + 1] - t[k]
        k1 = M @ cur
        k2 = M @ (cur + 0.5 * h * k1)
        k3 = M @ (cur + 0.5 * h * k2)
        k4 = M @ (cur + h * k3)
        cur = cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[:, k + 1] = cur
    return t, y


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
    """The blocked scans agree with the per-step loops they replaced."""

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

    @pytest.mark.parametrize(
        "t_end, dt",
        [
            (10.0, 1e-3),
            (7.3, 1e-3),  # shrunk last step
            (0.5, 0.7),  # dt > t_end: one shrunk step
            (0.7, 0.7),  # dt == t_end: one full step
            (1.15, 1e-3),  # dt * floor(t_end / dt) overshoots t_end
            (0.003, 3e-4),  # ... falls short of t_end by less than 1e-12
            (1e-13, 1e-3),  # t_end below 1e-12: one step of length t_end
        ],
    )
    def test_rk4_matches_loop(self, rng, t_end, dt):
        points = [(fig_params(K=2.0), bell_state("minus"))]
        points += [(random_params(rng), random_init(rng)) for _ in range(2)]
        for p, init in points:
            y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)
            t, y = _rk4_fixed(p, y0, t_end, dt)
            t_ref, y_ref = rk4_loop_reference(p, y0, t_end, dt)
            assert t[-1] == t_end and t.size >= 2
            assert np.array_equal(t, t_ref)
            assert np.abs(y - y_ref).max() <= 1e-12


class TestTrajectoryType:
    def test_indexing_and_states(self):
        p = fig_params(K=1.0)
        traj = integrate_pseudomode(p, bell_state("plus"), 3.0)
        state = traj[0]
        assert state.t == 0.0
        assert state.c1 == pytest.approx(INV_SQRT2, abs=1e-12)
        assert state.tracked_population == pytest.approx(1.0, abs=1e-9)
        assert len(traj) == traj.t.size

    def test_arrays_are_read_only(self):
        traj = integrate_pseudomode(fig_params(K=1.0), bell_state("plus"), 2.0)
        with pytest.raises(ValueError):
            traj.c1[0] = 0.0

    def test_construction_rejects_bad_series(self):
        p = fig_params(K=1.0)
        init = bell_state("plus")
        from atompair import derive

        d = derive(p)
        good = dict(
            params=p, derived=d, init=init,
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
