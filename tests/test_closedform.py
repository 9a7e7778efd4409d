import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from atompair import (
    InitialAmplitudes,
    SystemParams,
    bell_state,
    char_roots,
    integrate_pseudomode,
    residue_coefficients,
    sample_closed_form,
)
from atompair import closedform
from atompair.closedform import (
    _SEPARATED,
    _amplitudes,
    _clustered_differences,
    _cubic_roots,
    _exp_divided_differences,
    _newton_form,
    _separated_differences,
    char_cubic,
    evolve_over_K,
)

from conftest import INV_SQRT2, equal_params, fig_params, random_init, random_params


def cubic_scale(params: SystemParams) -> float:
    return max(1.0, 1.0 + params.R ** 3 + abs(params.K) ** 3)


def assert_root_invariants(params: SystemParams) -> None:
    """Residual, Vieta, and half-plane bounds from the root contract."""
    cubic = char_cubic(params)
    roots = char_roots(params)
    s1, s2, s3 = roots
    bound = 1e-9 * cubic_scale(params)
    for s in roots:
        assert abs(cubic(s)) <= bound
        assert s.real <= 1e-9
    scale = 1.0 + params.R + abs(params.K)
    assert abs((s1 + s2 + s3) + 1.0) <= 1e-9 * max(1.0, scale)
    assert abs((s1 * s2 + s1 * s3 + s2 * s3) - cubic.a1) <= 1e-9 * max(1.0, scale ** 2)
    assert abs((s1 * s2 * s3) + cubic.a0) <= 1e-9 * max(1.0, scale ** 3)


class TestCharPoly:
    def test_constant_term_vanishes_without_dipole(self):
        p = fig_params(K=0.0)
        assert char_cubic(p)(0.0) == 0.0

    def test_equal_coupling_imaginary_zero(self, rng):
        # D(iK) cancels exactly when r1 r2 = 1/2: the imaginary parts
        # K(R^2 + K^2) - K^3 - 2 K R^2 r1 r2 collapse to zero
        # R/lambda and K/lambda as quotients of a rate and a half-width
        for _ in range(20):
            lam = rng.uniform(0.2, 5.0)
            R = rng.uniform(0.5, 20.0) / lam
            K = rng.uniform(-20.0, 20.0) / lam
            p = equal_params(K=K, R=R)
            val = char_cubic(p)(1j * K)
            assert abs(val) <= 1e-9 * cubic_scale(p)

    def test_spot_value(self):
        p = fig_params(K=2.0)
        expected = complex(110.0, -100.0 * math.sqrt(3.0))
        assert char_cubic(p)(1.0) == pytest.approx(expected, abs=1e-10)


class TestCharRoots:
    def test_zero_root_without_dipole(self, rng):
        for _ in range(10):
            p = fig_params(K=0.0, R=rng.uniform(0.6, 20.0), r1=rng.uniform(0.05, 0.95))
            roots = char_roots(p)
            assert min(abs(s) for s in roots) <= 1e-12 * cubic_scale(p)

    def test_equal_coupling_root_at_iK(self):
        p = equal_params(K=5.0, R=10.0)
        roots = char_roots(p)
        assert min(abs(s - 5j) for s in roots) <= 1e-9

    def test_decaying_case_all_left_half_plane(self):
        p = fig_params(K=2.0)
        roots = char_roots(p)
        assert all(s.real < 0.0 for s in roots)
        assert_root_invariants(p)

    def test_random_suite_invariants(self, rng):
        for _ in range(50):
            assert_root_invariants(random_params(rng))

    def test_against_companion_matrix_oracle(self, rng):
        # numpy's eigenvalue-based solver as an independent reference
        for _ in range(30):
            p = random_params(rng)
            cubic = char_cubic(p)
            ours = list(char_roots(p))
            ref = np.roots([1.0, 1.0, cubic.a1, cubic.a0])
            scale = 1.0 + p.R + abs(p.K)
            for s in ref:
                assert min(abs(s - z) for z in ours) < 1e-9 * scale

    def test_real_cubic_keeps_exact_conjugate_pair(self, rng):
        # K = 0 makes the cubic real: its complex roots must be exact
        # conjugates, so that sorting by (real, imag) is stable
        pairs = 0
        for _ in range(300):
            # R/lambda as the quotient of a rate and a half-width
            R, r1, lam = rng.uniform(0.6, 20.0), rng.uniform(0.05, 0.95), rng.uniform(0.2, 5.0)
            p = fig_params(K=0.0, R=R / lam, r1=r1)
            pair = [s for s in char_roots(p) if abs(s.imag) > 1e-9]
            if pair:  # otherwise all three roots are real (overdamped)
                assert len(pair) == 2 and pair[0] == pair[1].conjugate()
                pairs += 1
        assert pairs > 250

    def test_roots_sorted_deterministically(self):
        p = fig_params(K=3.0)
        r1 = char_roots(p)
        r2 = char_roots(p)
        assert r1 == r2
        assert list(r1) == sorted(r1, key=lambda s: (s.real, s.imag))


class TestResidues:
    def test_initial_condition_reproduced(self, rng):
        for _ in range(20):
            p = random_params(rng)
            init = random_init(rng)
            sol = residue_coefficients(p, init)
            # the last Newton coefficient is the numerator's leading one
            assert abs(sol.newton[0, 2] - init.c10) < 1e-9
            assert abs(sol.newton[1, 2] - init.c20) < 1e-9
            assert abs(sol.newton[2, 2]) < 1e-9
            c1, c2, b = sol.evolve(0.0)
            assert abs(c1 - init.c10) < 1e-9
            assert abs(c2 - init.c20) < 1e-9
            assert abs(b) < 1e-9

    def test_holds_the_newton_form_row_read_only(self, rng):
        p, init = random_params(rng), random_init(rng)
        sol = residue_coefficients(p, init)
        roots, nodes, newton = _newton_form(p, init, [p.K])
        assert sol.roots == char_roots(p) == tuple(roots[0].tolist())
        assert np.array_equal(sol.nodes, nodes[0]) and np.array_equal(sol.newton, newton[0])
        assert not (sol.nodes.flags.writeable or sol.newton.flags.writeable)

    def test_uncoupled_unexcited_atom_stays_empty(self):
        # alpha2 = 0 and K = 0 with all weight on atom 1: the numerator of
        # the second amplitude vanishes identically
        p = SystemParams(W=10.0, alpha1=1.0, alpha2=0.0, K=0.0)
        sol = residue_coefficients(p, InitialAmplitudes(1.0, 0.0))
        assert all(abs(c) == 0.0 for c in sol.newton[1])

    def test_matches_ode_on_window(self):
        p = fig_params(K=2.0)
        init = bell_state("minus")
        sol = residue_coefficients(p, init)
        t = np.linspace(0.0, 10.0, 501)
        traj = integrate_pseudomode(p, init, 10.0, times=t)
        c1, c2, b = sol.evolve(t)
        assert np.abs(c1 - traj.c1).max() < 1e-6
        assert np.abs(c2 - traj.c2).max() < 1e-6
        assert np.abs(b - traj.b).max() < 1e-6


def triple_root_params() -> SystemParams:
    """Atom 2 uncoupled, K = 1/sqrt(27), R = sqrt(8/27): a triple root at -1/3."""
    return SystemParams(W=math.sqrt(8.0 / 27.0), alpha1=1.0, alpha2=0.0, K=1.0 / math.sqrt(27.0))


def damped_rabi_amplitude(t: np.ndarray, R: float) -> np.ndarray:
    """Single-atom reference: solve the reduced 2x2 system independently.

    For one coupled atom the Laplace transform is (s + 1) / (s^2 + s
    + R^2); inverting over the conjugate pole pair gives the damped
    oscillation below (underdamped branch, 4 R^2 > 1).
    """
    omega = math.sqrt(4.0 * R * R - 1.0)
    return np.exp(-0.5 * t) * (np.cos(0.5 * omega * t) + np.sin(0.5 * omega * t) / omega)


class TestClosedFormEvolution:
    def test_protected_state_keeps_unit_amplitudes(self):
        for K in (0.0, 2.0, 7.0, 20.0):
            p = equal_params(K=K)
            sol = residue_coefficients(p, bell_state("minus"))
            t = np.linspace(0.0, 50.0, 201)
            c1, c2, _ = sol.evolve(t)
            assert np.abs(np.abs(c1) - INV_SQRT2).max() < 1e-9
            assert np.abs(np.abs(c2) - INV_SQRT2).max() < 1e-9

    def test_single_atom_damped_oscillation(self):
        p = SystemParams(W=10.0, alpha1=1.0, alpha2=0.0, K=0.0)
        sol = residue_coefficients(p, InitialAmplitudes(1.0, 0.0))
        t = np.linspace(0.0, 6.0, 301)
        c1, c2, _ = sol.evolve(t)
        assert np.abs(c1 - damped_rabi_amplitude(t, 10.0)).max() < 1e-9
        assert np.abs(c2).max() == 0.0

    def test_critically_damped_single_atom(self):
        # K = 0 and R = 1/2: C1(s) = (s + 1) / (s + 1/2)^2, a double root
        p = SystemParams(W=0.5, alpha1=1.0, alpha2=0.0, K=0.0)
        t = np.linspace(0.0, 200.0, 2001)
        c1, c2, _ = residue_coefficients(p, InitialAmplitudes(1.0, 0.0)).evolve(t)
        assert np.abs(c1 - np.exp(-0.5 * t) * (1.0 + 0.5 * t)).max() <= 1e-12
        assert np.abs(c2).max() == 0.0

    def test_triple_root(self):
        # r2 = 0, K^2 = 1/27, R^2 = 8/27: D(s) = (s + 1/3)^3
        p = triple_root_params()
        t = np.linspace(0.0, 200.0, 2001)
        c1, _, _ = residue_coefficients(p, InitialAmplitudes(1.0, 0.0)).evolve(t)
        expected = np.exp(-t / 3.0) * (1.0 + t / 3.0 - t * t / 9.0)
        assert np.abs(c1 - expected).max() <= 1e-12

    def test_double_root_long_horizon(self):
        # the decaying double root at -1/2 next to the surviving pole at 0:
        # far out, only the dark-state projection remains
        p = SystemParams(W=0.5, alpha1=0.6, alpha2=0.8, K=0.0)
        init = bell_state("minus")
        c1, c2, b = residue_coefficients(p, init).evolve(np.array([1e3, 1e4, 1e5]))
        dark = 0.8 * init.c10 - 0.6 * init.c20
        assert np.abs(c1 - 0.8 * dark).max() <= 1e-12
        assert np.abs(c2 + 0.6 * dark).max() <= 1e-12
        assert np.abs(b).max() <= 1e-12

    @pytest.mark.parametrize("rel", [0.0, 1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("point", ["double", "triple"])
    def test_confluent_neighbourhood_matches_expm(self, point, rel):
        linalg = pytest.importorskip("scipy.linalg")
        from atompair.dynamics import _system_matrix

        base = (
            SystemParams(W=0.5, alpha1=1.0, alpha2=0.0, K=0.0)
            if point == "double" else triple_root_params()
        )
        t = np.linspace(0.0, 200.0, 101)
        for W, K, a2 in ((base.W * (1 + rel), base.K, 0.0),
                         (base.W * (1 - rel), base.K, 0.0),
                         (base.W, base.K + rel, rel)):
            p = SystemParams(W=W, alpha1=1.0, alpha2=a2, K=K)
            init = bell_state("minus")
            got = np.array(residue_coefficients(p, init).evolve(t))
            M = _system_matrix(p)
            y0 = np.array([init.c10, init.c20, 0.0])
            ref = np.array([linalg.expm(M * tk) @ y0 for tk in t]).T
            assert np.abs(got - ref).max() <= 1e-12

    def test_negative_time_rejected(self):
        sol = residue_coefficients(fig_params(K=0.0), bell_state("plus"))
        with pytest.raises(ValueError):
            sol.evolve(-1.0)

    def test_scalar_and_array_evaluation_agree(self):
        sol = residue_coefficients(fig_params(K=3.0), bell_state("plus"))
        c1s, c2s, bs = sol.evolve(2.5)
        c1a, c2a, ba = sol.evolve(np.array([0.0, 2.5]))
        assert c1a[1] == pytest.approx(c1s, rel=1e-14)
        assert c2a[1] == pytest.approx(c2s, rel=1e-14)
        assert ba[1] == pytest.approx(bs, rel=1e-14)

    @pytest.mark.parametrize("point", ["separated", "double", "triple"])
    def test_blocks_change_no_bit(self, monkeypatch, point):
        # the form of the divided differences is chosen per root set, so the
        # times evaluated a block at a time give the one-block bits
        p = {
            "separated": fig_params(K=2.0),
            "double": SystemParams(W=0.5, alpha1=1.0, alpha2=0.0, K=0.0),
            "triple": triple_root_params(),
        }[point]
        sol = residue_coefficients(p, bell_state("minus"))
        t = np.linspace(0.0, 50.0, 10_001)
        whole = _amplitudes(sol.nodes[None], sol.newton[None], t)[:, 0]
        monkeypatch.setattr(closedform, "_EVOLVE_BLOCK", 1000)
        assert np.array(sol.evolve(t)).tobytes() == whole.tobytes()

    def test_memory_does_not_grow_with_samples(self, monkeypatch):
        # beyond its (3, n) result of 48 B a sample, evolve holds one block's
        # working arrays; on the whole grid at once it held about twice the
        # result more, 7.7 MB at the larger size here
        monkeypatch.setattr(closedform, "_EVOLVE_BLOCK", 1000)
        sol = residue_coefficients(fig_params(K=2.0), bell_state("minus"))
        for n in (20_001, 80_001):
            t = np.linspace(0.0, 10.0, n)
            tracemalloc.start()
            try:
                sol.evolve(t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - 48 * n < 1e6


class TestSymmetries:
    def test_swap_exchanges_amplitude_coefficients(self, rng):
        p = fig_params(K=4.0, r1=0.8)
        init = random_init(rng)
        swapped_p = replace(p, alpha1=p.alpha2, alpha2=p.alpha1)
        swapped_init = InitialAmplitudes(init.c20, init.c10)
        a = residue_coefficients(p, init)
        b = residue_coefficients(swapped_p, swapped_init)
        # the cubic is symmetric under the swap, so the sorted roots coincide
        assert all(
            abs(x - y) < 1e-9 for x, y in zip(a.roots, b.roots)
        )
        assert all(abs(x - y) < 1e-9 for x, y in zip(a.newton[0], b.newton[1]))
        assert all(abs(x - y) < 1e-9 for x, y in zip(a.newton[1], b.newton[0]))

    def test_conjugation_symmetry(self, rng):
        p = fig_params(K=6.0)
        flipped = replace(p, K=-p.K)
        init = random_init(rng)
        conj_init = InitialAmplitudes(init.c10.conjugate(), init.c20.conjugate())
        t = np.linspace(0.0, 8.0, 81)
        c1, c2, b = residue_coefficients(p, init).evolve(t)
        d1, d2, db = residue_coefficients(flipped, conj_init).evolve(t)
        assert np.abs(d1 - np.conj(c1)).max() < 1e-9
        assert np.abs(d2 - np.conj(c2)).max() < 1e-9
        assert np.abs(db + np.conj(b)).max() < 1e-9
        # root sets reflect across the real axis
        ra = {complex(round(s.real, 9), round(s.imag, 9)) for s in char_roots(p)}
        rb = {
            complex(round(s.real, 9), round(-s.imag, 9))
            for s in char_roots(flipped)
        }
        assert ra == rb


class TestDividedDifferences:
    @staticmethod
    def nodes_at(product: float, kind: str):
        """Nodes (a, b, c), with (a, c) the widest pair, whose spacing product
        min(|a - b|, |b - c|) |a - c| / max|s|^2 is ``product``."""
        if kind == "pair":
            # b sits next to c, on the side that keeps (a, c) the widest pair
            a, c = -1.0 + 0.5j, -0.3 + 2.0j
            return a, c + product * abs(c) ** 2 / abs(a - c) * (0.6 - 0.8j), c
        # all three on the real axis, equally spaced over a width w
        w = math.sqrt(2.0 * product) / 3.0
        return -1.0 / 3.0, -1.0 / 3.0 + 0.5 * w, -1.0 / 3.0 + w

    @pytest.mark.parametrize("kind", ["pair", "triple"])
    @pytest.mark.parametrize("factor", [0.8, 1.25])
    def test_forms_agree_on_both_sides_of_switch(self, kind, factor):
        nodes = self.nodes_at(factor * _SEPARATED, kind)
        t = np.linspace(0.0, 50.0, 501)
        sep = _separated_differences(np.array([nodes]), t)[0]
        clu = _clustered_differences(np.array([nodes]), t)[0]
        scale = max(abs(s) for s in nodes)
        weights = np.array([[scale * scale], [scale], [1.0]])
        assert np.abs((sep - clu) * weights).max() <= 1e-12
        a, b, c = nodes
        assert min(abs(a - b), abs(b - c)) * abs(a - c) / scale ** 2 == pytest.approx(factor * _SEPARATED)
        chosen = _exp_divided_differences(np.array([nodes]), t)[0]
        assert np.array_equal(chosen, sep if factor > 1.0 else clu)


def _is_separated(nodes) -> bool:
    a, b, c = nodes
    return min(abs(a - b), abs(b - c)) * abs(a - c) >= _SEPARATED * max(abs(a), abs(b), abs(c)) ** 2


class TestBatchedOverK:
    """The closed form over an array of K agrees with its one-point case."""

    @staticmethod
    def axis(centre: float) -> np.ndarray:
        # a coarse sweep through ``centre`` plus points ever closer to it
        near = [centre + sign * d for d in (1e-3, 1e-6, 1e-9, 1e-12) for sign in (1, -1)]
        return np.concatenate([np.linspace(centre - 3.0, centre + 3.0, 25), [centre], near])

    @pytest.mark.parametrize("point", ["double", "triple"])
    def test_matches_per_point_closed_form(self, rng, point):
        # the double root: K = 0, R = 1/2; the triple root: r2 = 0,
        # K = 1/sqrt(27), R = sqrt(8/27)
        base = (
            SystemParams(W=0.5, alpha1=0.6, alpha2=0.8, K=0.0)
            if point == "double" else triple_root_params()
        )
        K = self.axis(base.K)
        t = np.linspace(0.0, 30.0, 301)
        init = random_init(rng)
        got = evolve_over_K(base, init, K, t)
        assert got.shape == (3, K.size, t.size)
        separated = []
        for j, k in enumerate(K):
            p = replace(base, K=float(k))
            ref = sample_closed_form(p, init, t)
            for row, amp in zip(got[:, j], (ref.c1, ref.c2, ref.b)):
                assert np.abs(row - amp).max() <= 1e-13
            separated.append(_is_separated(residue_coefficients(p, init).nodes))
        assert any(separated) and not all(separated)

    def test_real_cubic_keeps_exact_conjugate_pair_in_a_batch(self):
        p = fig_params(K=0.0, R=7.0, r1=0.6)
        K = np.array([-2.0, 0.0, 1e-3, 3.0, 0.0])
        roots = _cubic_roots(char_cubic(p, K))
        for row in (1, 4):
            pair = [s for s in roots[row] if abs(s.imag) > 1e-9]
            assert len(pair) == 2 and pair[0] == pair[1].conjugate()
        for k, row in zip(K, roots):
            assert tuple(row) == char_roots(replace(p, K=float(k)))

    def test_roots_are_sorted_by_real_then_imaginary_part(self, rng):
        for _ in range(20):
            p = random_params(rng)
            K = rng.uniform(-20.0, 20.0, 16)
            for row in _cubic_roots(char_cubic(p, K)):
                assert list(row) == sorted(row, key=lambda s: (s.real, s.imag))
