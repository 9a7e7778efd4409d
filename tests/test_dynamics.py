import ast
import functools
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
    _dop853,
    _rms,
    _system_matrix,
)
from atompair.verification import (
    LEAK_IDENTITY_CONFIG,
    LEAK_IDENTITY_TOL,
    compare_solvers,
)

from conftest import (
    INV_SQRT2,
    adaptive_trajectory,
    balance_residual,
    equal_params,
    fig_params,
    largest_discrepancy,
    random_init,
    random_params,
)

from test_closedform import damped_rabi_amplitude, triple_root_params


class TestRhs:
    def test_no_dipole_empty_mode(self):
        p = SystemParams(W=3.0, alpha1=0.7, alpha2=0.3, K=0.0)
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
        traj = adaptive_trajectory(p, bell_state("minus"), 10.0, (1e-12, 1e-14))
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
        bounds, ys = _dop853(_system_matrix(p), y0, 5.0, 1e-9, 1e-12)
        assert np.array_equal(traj2.t, bounds) and traj2.t[-1] == 5.0
        assert np.array_equal(np.array([traj2.c1, traj2.c2, traj2.b]), ys)

    def test_overflowing_derivative_fails_fast(self):
        # the derivative's error norm overflows at t = 0; stepping on would
        # take about 1e200 steps
        p = SystemParams(W=1e200, alpha1=0.8, alpha2=0.6, K=0.0)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="rates are too large for the adaptive route"):
            integrate_pseudomode(p, InitialAmplitudes(1.0, 0.0), 1.0)
        assert time.perf_counter() - start < 1.0

    def test_rejects_unsorted_grid(self):
        for times in ([0.0, 2.0, 1.0], [0.0, np.nan, 1.0]):
            with pytest.raises(ValueError, match="increasing"):
                integrate_pseudomode(fig_params(K=1.0), bell_state("plus"), 5.0, times=np.array(times))

    def test_keeps_only_step_ends_without_grid(self):
        # the route keeps each accepted step's start and state, not the
        # powers z_j = (hM)^j y it steps with
        p, init = fig_params(K=2.0), bell_state("minus")
        integrate_pseudomode(p, init, 1.0)
        tracemalloc.start()
        try:
            traj = integrate_pseudomode(p, init, 200.0)
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
        grid = np.linspace(0.0, 200.0, 11)
        integrate_pseudomode(p, init, 1.0, times=np.array([0.0, 1.0]))
        tracemalloc.start()
        try:
            integrate_pseudomode(p, init, 200.0, times=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        steps = integrate_pseudomode(p, init, 200.0).t.size - 1
        assert 800 < steps < 1400
        assert peak / steps < 500

    def test_population_never_increases(self, rng):
        for _ in range(5):
            p = random_params(rng)
            traj = integrate_pseudomode(p, random_init(rng), 10.0)
            pop = traj.tracked_population
            assert np.all(np.diff(pop) <= 1e-8)


def _dop853_reference(p, init, t_end, tols):
    """scipy's DOP853 on the same system, with its dense output."""
    integrate = pytest.importorskip("scipy.integrate")
    M = _system_matrix(p)
    with warnings.catch_warnings():
        # a relative tolerance below 100 eps: scipy warns and raises it to that floor
        warnings.simplefilter("ignore", UserWarning)
        sol = integrate.solve_ivp(
            lambda t, y: M @ y, (0.0, t_end), [init.c10, init.c20, 0.0], method="DOP853",
            rtol=tols[0], atol=tols[1], dense_output=True,
        )
    assert sol.success
    return sol


def _sup_diff(traj, y):
    return max(np.abs(a - b).max() for a, b in zip((traj.c1, traj.c2, traj.b), y))


# (relative, absolute) tolerance pairs: the route's own, verify's, and one
# below the relative floor of 100 eps
ADAPTIVE_CONFIGS = pytest.mark.parametrize(
    "tols",
    [dyn._TOLERANCES, LEAK_IDENTITY_CONFIG, (1e-15, 1e-13)],
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


class TestAgainstScipyDOP853:
    """The in-repo Dormand-Prince stepper takes the steps of scipy's DOP853."""

    @ADAPTIVE_CONFIGS
    def test_same_steps_and_values(self, rng, tols):
        t_end = 5.0
        grid = np.linspace(0.0, t_end, 2001)
        points = [(fig_params(K=2.0), bell_state("minus"))]
        points += [(random_params(rng), random_init(rng)) for _ in range(3)]
        for p, init in points:
            sol = _dop853_reference(p, init, t_end, tols)
            steps = adaptive_trajectory(p, init, t_end, tols)
            assert steps.t.size == sol.t.size
            assert steps.t[-1] == t_end
            # the two step sequences drift apart by rounding, so compare the
            # values at these step ends through scipy's dense output, which
            # is exact at its own step ends
            assert _sup_diff(steps, sol.sol(steps.t)) <= 1e-12
            # between the step ends, scipy's degree-7 interpolant is less
            # accurate than the step polynomial: on the grid, the dense
            # output is no farther from the closed form than scipy's
            on_grid = adaptive_trajectory(p, init, t_end, tols, times=grid)
            exact = residue_coefficients(p, init).evolve(grid)
            scipy_error = max(np.abs(a - b).max() for a, b in zip(sol.sol(grid), exact))
            assert _sup_diff(on_grid, exact) <= scipy_error + 1e-12


# scipy's DOP853 tableau (scipy.integrate._ivp.dop853_coefficients), each
# float written exactly: the rows of A[:12, :12] below its diagonal, where
# the rest is zero, the eighth-order weights B, and the fifth- and
# third-order error weights E5[:12] and E3[:12]
DOP853_A_ROWS = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
        20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
        -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
        27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
        0.6433927460157636,
    ),
)
DOP853_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
)
DOP853_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
)
DOP853_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
)


def _tableau():
    """The DOP853 tableau as arrays: the twelve stages' coefficients, the
    eighth-order weights, and the fifth- and third-order error weights."""
    A = np.zeros((12, 12))
    for s, row in enumerate(DOP853_A_ROWS):
        A[s, :s] = row
    return A, np.array(DOP853_B), np.array(DOP853_E5), np.array(DOP853_E3)


def dop853_stage_step(M, y, h):
    """One twelve-stage DOP853 step of length ``h`` from ``y``, of shape
    ``(3, ...)`` with ``h`` broadcasting over the trailing axes: the change
    of the state and the fifth- and third-order error estimates."""
    A, B, E5, E3 = _tableau()
    K = np.zeros((12, *y.shape), dtype=complex)
    for s in range(12):
        K[s] = np.einsum("ij,j...->i...", M, y + h * np.tensordot(A[s, :s], K[:s], axes=1))
    return tuple(h * np.tensordot(w, K, axes=1) for w in (B, E5, E3))


def dop853_stage_reference(M, y0, t_end, rtol, atol):
    """The twelve-stage DOP853 loop on scipy's tableau, kept as the reference
    for the polynomial form of ``_dop853``.

    Returns ``(t, y, dense)``: the accepted step ends, the states there, and
    the dense output as a function of sorted times in ``[0, t_end]``: from
    the start of the step that holds each time, one stage-form step of the
    length that reaches it.
    """
    rtol = max(rtol, 100.0 * np.finfo(float).eps)
    y = y0.astype(complex)
    k1 = M @ y
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(*y, *scale), _rms(*k1, *scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    d2 = _rms(*(M @ (y + h0 * k1) - k1), *scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100.0 * h0, h1, t_end)

    t = 0.0
    starts = []
    states = []
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            assert h_abs >= min_step
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            dy, err5, err3 = dop853_stage_step(M, y, h)
            y_new = y + dy
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = np.sum(np.abs(err5 / scale) ** 2)
            e3 = np.sum(np.abs(err3 / scale) ** 2)
            error_norm = e5 / math.sqrt(3 * (e5 + 0.01 * e3)) if e5 or e3 else 0.0
            assert math.isfinite(error_norm)
            if error_norm < 1.0:
                factor = 10.0 if error_norm == 0.0 else min(10.0, 0.9 * error_norm ** (-1 / 8))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** (-1 / 8))
            rejected = True
        starts.append(t)
        states.append(y)
        t, y = t_new, y_new

    bounds = np.array(starts + [t_end])
    ys = np.array(states + [y]).T

    def dense(times):
        idx = np.searchsorted(bounds[1:], times, side="left")
        dy, _, _ = dop853_stage_step(M, ys[:, idx], times - bounds[idx])
        return ys[:, idx] + dy

    return bounds, ys, dense


def _dopri_points(rng):
    points = [(fig_params(K=2.0), bell_state("minus"))]
    points += [(random_params(rng), random_init(rng)) for _ in range(3)]
    points.append((equal_params(K=20.0, R=20.0), bell_state("minus")))
    return points


def _derived_weights():
    """The weights of z_j = (hM)^j y, j = 0..13, in the solution and the two
    error estimates, derived exactly from scipy's float tableau: each stage,
    times h, is a polynomial in z = hM applied to y."""
    A, *weights = _tableau()
    A = [[F(float(a)) for a in row] for row in A]
    B, E5, E3 = ([F(float(w)) for w in ws] for ws in weights)

    def times_z(poly):
        return [F(0)] + poly[:-1]

    def combine(weights, polys):
        return [sum((w * q[j] for w, q in zip(weights, polys)), F(0)) for j in range(14)]

    one = [F(1)] + [F(0)] * 13
    hK = []
    for s, row in enumerate(A):
        hK.append(times_z([a + b for a, b in zip(one, combine(row[:s], hK))]))
    solution = [a + b for a, b in zip(one, combine(B, hK))]
    return solution, combine(E5, hK), combine(E3, hK)


class TestPolynomialStep:
    """The polynomial form of the Dormand-Prince step against the stage form."""

    @ADAPTIVE_CONFIGS
    def test_matches_stage_form(self, rng, tols):
        t_end = 10.0
        grid = np.linspace(0.0, t_end, 2001)
        for p, init in _dopri_points(rng):
            M = _system_matrix(p)
            y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)
            args = (M, y0, t_end, *tols)
            t, y = _dop853(*args)
            t_ref, _, dense_ref = dop853_stage_reference(*args)
            assert t.size == t_ref.size
            assert t[-1] == t_end
            # the step ends drift apart by rounding, so read the reference
            # at these step ends through its dense output
            assert np.abs(y - dense_ref(t)).max() <= 1e-12
            on_grid = dyn._dense_output(M, t, y, grid)
            assert np.abs(on_grid - dense_ref(grid)).max() <= 1e-12

    def test_constants_reduce_the_tableau(self):
        solution, err5, err3 = _derived_weights()
        # a polynomial of degree 12: the thirteenth stage, the derivative at
        # the step's end, carries no weight
        assert solution[13] == err5[13] == err3[13] == 0
        # eighth order: the stability function is exp up to z^8, to the
        # rounding of scipy's tableau, and the constants are 1/j! exactly
        for j in range(9):
            exact = F(1, math.factorial(j))
            assert abs(solution[j] - exact) <= 1e-14 * exact
            assert dyn._W[j] == 1.0 / math.factorial(j)
        # the estimates' lower powers vanish, to the same rounding
        assert all(abs(e) < 1e-15 for e in err5[:6] + err3[:4])
        # the other weights are the derived ones, rounded once
        assert dyn._W[9:] == tuple(float(w) for w in solution[9:13])
        assert dyn._E5 == tuple(float(e) for e in err5[6:13])
        assert dyn._E3 == tuple(float(e) for e in err3[4:13])

    def test_tableau_is_scipys(self):
        dop853 = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        scipy_tableau = dop853.A[:12, :12], dop853.B, dop853.E5[:12], dop853.E3[:12]
        for ours, theirs in zip(_tableau(), scipy_tableau, strict=True):
            assert ours.tobytes() == theirs.tobytes()

    def test_one_step_is_the_stability_polynomial(self):
        # with loose tolerances the first step covers a short horizon at
        # once, on an M of _system_matrix's shape with entries of hM of
        # moduli 0.3..0.5
        p = SystemParams(W=1.5, alpha1=0.8, alpha2=0.6, K=-1.1)
        M = _system_matrix(p)
        h = 0.4
        assert 0.3 <= np.abs(h * M[M != 0]).min() and np.abs(h * M).max() <= 0.5
        y0 = np.array([1.0, 0.5j, -0.25], dtype=complex)
        t, y = _dop853(M, y0, h, 1e-1, 1e-1)
        assert t.tolist() == [0.0, h]
        z = h * M
        stability = sum(w * np.linalg.matrix_power(z, j) for j, w in enumerate(dyn._W))
        assert np.abs(y[:, 1] - stability @ y0).max() <= 1e-15

    @ADAPTIVE_CONFIGS
    def test_dense_output_at_step_ends_is_the_accepted_state(self, rng, tols):
        # the dense output sums the step's polynomial in the stepper's order,
        # so at x = 1 it is the state the stepper accepted, bit for bit
        # (adding 0.0 makes the signs of zeros agree)
        for p, init in _dopri_points(rng) + [(SINGLE_ATOM, InitialAmplitudes(1.0, 0.0))]:
            M = _system_matrix(p)
            y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)
            t, y = _dop853(M, y0, 10.0, *tols)
            out = dyn._dense_output(M, t, y, t)
            assert (out + 0.0).tobytes() == (y + 0.0).tobytes()

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
            _dop853(M, y0, 1.0, 1e-9, 1e-12)


def general_product(M, h):
    """``v -> (hM) v`` on Python complex scalars, the nine products of a
    general 3x3 matrix summed in row order."""
    (n00, n01, n02), (n10, n11, n12), (n20, n21, n22) = ([h * m for m in row] for row in M.tolist())

    def product(a, b, c):
        return (
            n00 * a + n01 * b + n02 * c,
            n10 * a + n11 * b + n12 * c,
            n20 * a + n21 * b + n22 * c,
        )

    return product


def _squared_norm(v, scale):
    r1, r2, r3 = (abs(x) / s for x, s in zip(v, scale))
    return r1 * r1 + r2 * r2 + r3 * r3


def dop853_polynomial_reference(M, y0, t_end, rtol, atol, times):
    """The polynomial DOP853 loop on a general 3x3 M, nine products per power,
    kept as the byte-for-byte reference for the four-entry step of ``_dop853``.

    Returns ``(t, y)`` as ``_dop853`` does with ``times`` None; on ``times``
    the dense output forms every step's coefficients and evaluates them
    unblocked.
    """
    f = general_product(M, 1.0)
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
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100.0 * h0, h1, t_end)

    t = 0.0
    starts = []
    states = []
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            assert h_abs >= min_step
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            product = general_product(M, h)
            z = y
            new = list(y)
            err5 = [0.0] * 3
            err3 = [0.0] * 3
            for j in range(1, 13):
                z = product(*z)
                for k in range(3):
                    new[k] += dyn._W[j] * z[k]
                    if j >= 4:
                        err3[k] += dyn._E3[j - 4] * z[k]
                    if j >= 6:
                        err5[k] += dyn._E5[j - 6] * z[k]
            s = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, new)]
            e5, e3 = _squared_norm(err5, s), _squared_norm(err3, s)
            error_norm = e5 / math.sqrt(3.0 * (e5 + 0.01 * e3)) if e5 or e3 else 0.0
            assert math.isfinite(error_norm)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = 10.0
                else:
                    factor = min(10.0, 0.9 * error_norm ** -0.125)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.125)
            rejected = True
        starts.append(t)
        states.append(y)
        t, y = t_new, tuple(new)

    bounds = np.array(starts + [t_end])
    ys = np.array(states + [y], dtype=complex).T
    if times is None:
        return bounds, ys
    return times, dense_unblocked_reference(bounds, dense_coefficients(M, bounds, ys), times)


def dense_coefficients(M, bounds, ys):
    """Every step's coefficients ``_W[j] z_j``, shape ``(13, 3, steps)``,
    formed one step at a time on Python complex scalars with the general
    product."""
    coef = []
    for h, y in zip(np.diff(bounds).tolist(), ys[:, :-1].T.tolist()):
        product = general_product(M, h)
        z = tuple(y)
        step = [z]
        for w in dyn._W[1:]:
            z = product(*z)
            step.append([w * v for v in z])
        coef.append(step)
    return np.array(coef, dtype=complex).transpose(1, 2, 0)


# K = 0 and R = 1/2: a double root at -1/2; atom 2 uncoupled with K = 0:
# c2 stays exactly c20
DOUBLE_ROOT = fig_params(K=0.0, R=0.5, r1=0.6)
SINGLE_ATOM = fig_params(K=0.0, r1=1.0)


class TestFourEntryStep:
    """The four-entry step of ``_dop853`` is the general-M loop, byte for byte."""

    @ADAPTIVE_CONFIGS
    def test_same_bytes_as_general_product(self, rng, tols):
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
            args = (M, y0, t_end, *tols)
            t, y = _dop853(*args)
            t_ref, y_ref = dop853_polynomial_reference(*args, None)
            assert t.tobytes() == t_ref.tobytes()
            assert y.tobytes() == y_ref.tobytes()
            on_grid = dyn._dense_output(M, t, y, grid)
            _, on_grid_ref = dop853_polynomial_reference(*args, grid)
            assert on_grid.tobytes() == on_grid_ref.tobytes()
        # with atom 2 uncoupled and no dipole, c2 never leaves zero
        assert not y[1].any() and not on_grid[1].any()


def dense_unblocked_reference(bounds, coef, times):
    """Every time at once: binary search for its step, then the step's
    polynomial summed in order of the powers of x."""
    idx = np.searchsorted(bounds[1:], times, side="left")
    step = np.diff(bounds)
    x = (times - bounds[idx]) / step[idx]
    acc = coef[0][:, idx]
    power = x
    for c in coef[1:]:
        acc = acc + power * c[:, idx]
        power = power * x
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
        # a step end is x = 1 of the step it closes: the coefficients summed
        # from the state up, as the stepper sums the step
        ends = np.searchsorted(times, bounds[1:])
        assert np.array_equal(out[:, ends], functools.reduce(np.add, coef))

    def test_forms_coefficients_for_the_steps_passed_only(self, rng):
        # every step's coefficients would take 13 x 3 x 16 B = 624 B a step,
        # 12.5 MB here; finding the steps that hold a time counts the times
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
        monkeypatch.setattr(dyn, "_BALANCE_BLOCK", 16)
        p, init = fig_params(K=2.0), bell_state("minus")
        steps = dyn._adaptive_run(p, init, 1.0, LEAK_IDENTITY_CONFIG)[1].size - 1
        assert steps > 2 * 16 and not passed
        # the grid passes only the two steps that hold t = 0 and t = 1
        integrate_pseudomode(p, init, 1.0, times=np.array([0.0, 1.0]))
        assert [a.size for a in passed] == [2]
        # the balance check passes every step once, a block at a time
        passed.clear()
        balance_residual(p, init, 1.0)
        assert [a.size for a in passed[:-1]] == [16] * (len(passed) - 1)
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


def balance_reference(M, bounds, ys):
    """The balance defect P' + 2 |b|^2 at the check's nodes, from the
    step polynomials and their derivatives, each evaluated by Horner on every
    step at once."""
    coef = dense_coefficients(M, bounds, ys)
    x = (np.arange(dyn._BALANCE_NODES) + 0.5) / dyn._BALANCE_NODES
    y = coef[-1][..., None]
    dy = (coef.shape[0] - 1) * coef[-1][..., None]
    for m in range(coef.shape[0] - 2, -1, -1):
        y = y * x + coef[m][..., None]
        if m:
            dy = dy * x + m * coef[m][..., None]
    h = np.diff(bounds)[:, None]
    dpop = 2.0 * (y.conj() * dy).real.sum(axis=0) / h
    return float(np.abs(dpop + 2.0 * np.abs(y[2]) ** 2).max())


def tight_run(M, init, t_end):
    y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)
    return _dop853(M, y0, t_end, *LEAK_IDENTITY_CONFIG)


# the step-heaviest corner of the verification box, run to HEAVY_T_END:
# about 8,400 steps at LEAK_IDENTITY_CONFIG
HEAVY_CORNER = (fig_params(K=-20.0, R=20.0, r1=0.6),
                InitialAmplitudes(0.6 + 0.3j, -0.2 + 0.714142842854285j))
HEAVY_T_END = 100.0


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
        # the residual walks the steps a block at a time and evaluates each
        # step's polynomial and its derivative; blocks of another size give
        # the same float, and the polynomials formed on Python scalars and
        # evaluated on every step at once agree to rounding of the rate scale
        resid = balance_residual(p, init, t_end)
        monkeypatch.setattr(dyn, "_BALANCE_BLOCK", 7)
        assert balance_residual(p, init, t_end) == resid
        M = _system_matrix(p)
        expected = balance_reference(M, *tight_run(M, init, t_end))
        assert abs(resid - expected) <= 1e-12 * np.abs(M).max()
        assert resid < 1e-8

    @pytest.mark.parametrize("corrupt", ["damping_sign", "coupling_phase"])
    @pytest.mark.parametrize(
        "p, init, t_end",
        [(fig_params(K=2.0), bell_state("minus"), 1.0),
         (HEAVY_CORNER[0], bell_state("plus"), HEAVY_T_END / 10.0),
         (SINGLE_ATOM, InitialAmplitudes(1.0, 0.0), 1.0)],
        ids=["reference", "corner", "single_atom"],
    )
    def test_corrupted_matrix_fails(self, p, init, t_end, corrupt):
        # negative controls: b growing where it should decay, and a coupling
        # that has lost its -i, each fail by orders of magnitude
        M = _system_matrix(p)
        if corrupt == "damping_sign":
            M[2, 2] = 1.0
        else:
            M[0, 2] = M[2, 0] = -p.W * p.alpha1
        resid = dyn._balance_residual(M, *tight_run(M, init, t_end))
        assert resid >= 1e3 * LEAK_IDENTITY_TOL

    def test_memory_does_not_grow_with_the_steps(self):
        # the coefficients of every step would take 13 x 3 x 16 B = 624 B a
        # step, 5.2 MB here, and their values and derivatives at the nodes
        # 1.5 kB a step more; a block of them stays below 1 MB
        p, init = HEAVY_CORNER
        M = _system_matrix(p)
        bounds, ys = tight_run(M, init, HEAVY_T_END)
        assert bounds.size > 8_000
        tracemalloc.start()
        try:
            resid = dyn._balance_residual(M, bounds, ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert resid < 1e-8


class TestVolterra:
    def test_rejects_coarse_grids(self):
        with pytest.raises(ValueError, match="n_steps"):
            integrate_volterra(fig_params(K=0.0), bell_state("minus"), 10.0, 99)

    def test_rejects_steps_past_the_ceiling_before_allocating(self, monkeypatch):
        monkeypatch.setattr(dyn, "_MAX_VOLTERRA_STEPS", 1000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n_steps must lie in \[100, 1000\], got 1001"):
                integrate_volterra(fig_params(K=0.0), bell_state("minus"), 10.0, 1001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1001  # less than one complex array of the nodes
        traj = integrate_volterra(fig_params(K=0.0), bell_state("minus"), 10.0, 1000)
        assert len(traj) == 1001

    def test_single_atom_damped_oscillation(self):
        p = SystemParams(W=10.0, alpha1=1.0, alpha2=0.0, K=0.0)
        traj = integrate_volterra(p, InitialAmplitudes(1.0, 0.0), 6.0, 2000)
        ref = damped_rabi_amplitude(traj.t, 10.0)
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
    K, W = params.K, params.W
    a1, a2 = params.alpha1, params.alpha2
    W2 = kernel_sign * W * W
    h = t_end / n_steps
    e1 = math.exp(-h)
    e2 = e1 * e1
    e3 = e2 * e1

    c1 = np.empty(n_steps + 1, dtype=complex)
    c2 = np.empty(n_steps + 1, dtype=complex)
    u = np.empty(n_steps + 1, dtype=complex)
    conv = np.empty(n_steps + 1, dtype=complex)
    c1[0], c2[0] = init.c10, init.c20
    u[0] = a1 * c1[0] + a2 * c2[0]
    conv[0] = 0.0

    g_row = [np.exp(h * (np.arange(4.0) - k)) for k in range(4)]
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
            init=init,
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

    def test_increasing_check_makes_no_full_length_temporary(self):
        # comparing neighbouring times holds a 1 MB mask at 1,000,001
        # samples; an array of their differences would add 8 MB
        init = bell_state("plus")
        t = np.linspace(0.0, 1.0, 1_000_001)
        c1, c2 = np.full(t.size, init.c10), np.full(t.size, init.c20)
        b = np.zeros(t.size, dtype=complex)
        tracemalloc.start()
        try:
            Trajectory(init=init, t=t, c1=c1, c2=c2, b=b, solver_tag="closed_form")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestLeak:
    def test_starts_at_zero(self):
        traj = integrate_pseudomode(fig_params(K=2.0), bell_state("minus"), 5.0)
        t, p_leak = leak_series(traj)
        assert p_leak[0] == 0.0

    def test_decoherence_free_case_never_leaks(self):
        p = equal_params(K=7.0)
        traj = adaptive_trajectory(p, bell_state("minus"), 20.0, LEAK_IDENTITY_CONFIG)
        _, p_leak = leak_series(traj)
        assert p_leak.max() < 1e-8

    def test_single_atom_leaks_everything(self):
        p = SystemParams(W=10.0, alpha1=1.0, alpha2=0.0, K=0.0)
        traj = integrate_pseudomode(p, InitialAmplitudes(1.0, 0.0), 40.0)
        _, p_leak = leak_series(traj)
        assert p_leak[-1] > 1.0 - 1e-8

    def test_leak_is_nondecreasing(self, rng):
        p = random_params(rng)
        traj = integrate_pseudomode(p, random_init(rng), 10.0)
        _, p_leak = leak_series(traj)
        assert np.all(np.diff(p_leak) >= -1e-8)

    def test_leak_rate_identity(self):
        resid = balance_residual(fig_params(K=2.0), bell_state("minus"), 5.0)
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
        # decaying pair sits at Re = -1/2, so the rule gives max(50, 20) = 50
        assert asymptotic_t_end(fig_params(K=0.0)) == pytest.approx(50.0, rel=1e-6)

    def test_slow_pole_stretches_horizon(self):
        t_end = asymptotic_t_end(fig_params(K=2.0))
        assert t_end > 800.0  # slowest root decays at ~0.0112

    def test_imaginary_pole_excluded(self):
        t_end = asymptotic_t_end(equal_params(K=5.0))
        assert t_end < 1000.0
