"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside pytest's own pass/fail report.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from atompair import (
    InitialAmplitudes,
    SystemParams,
    asymptotic_t_end,
    bell_state,
    char_roots,
    concurrence_series,
    disentanglement_time,
    integrate_pseudomode,
    leak_series,
    residue_coefficients,
    sample_closed_form,
    steady_state_verdict,
)
from atompair.cli import TRAJECTORY_COLUMNS
from atompair.verification import LEAK_IDENTITY_CONFIG, compare_solvers

from conftest import (
    SQRT3_2,
    adaptive_trajectory,
    balance_residual,
    equal_params,
    fig_params,
    largest_discrepancy,
    random_init,
    random_params,
)
from test_closedform import assert_root_invariants

THREE_SOLVER_TOL = 1e-5
LEAK_TOL = 1e-6
ASYMPTOTE_TOL = 1e-3
DFS_TOL = 1e-8
DARK_PLATEAU = (3.0 + 2.0 * math.sqrt(3.0)) / 8.0  # 0.80801270...

FIG_K_VALUES = (0.0, 2.0, 7.0, 20.0)


# --- deterministic parameter collections shared between criteria 1-8 and 9 ---


def double_root_set() -> SystemParams:
    # K = 0 with R = 1/2 collapses the decaying pair into a double root
    return fig_params(K=0.0, R=0.5, r1=0.6)


def triple_root_set() -> SystemParams:
    # r2 = 0, K = 1/sqrt(27), R = sqrt(8/27): D(s) = (s + 1/3)^3
    return fig_params(K=1.0 / math.sqrt(27.0), R=math.sqrt(8.0 / 27.0), r1=1.0)


def criterion1_sets():
    rng = np.random.default_rng(101)
    return [(random_params(rng), random_init(rng)) for _ in range(50)]


def fig_sets():
    return [
        (fig_params(K=k), bell_state(sign))
        for sign in ("minus", "plus")
        for k in FIG_K_VALUES
    ]


def criterion3_grid():
    rng = np.random.default_rng(303)
    cases = []
    for i in range(200):
        kind = i % 3
        if kind == 0:
            p = fig_params(K=0.0, R=rng.uniform(0.6, 20.0), r1=rng.uniform(0.05, 0.95))
            steady = True
        elif kind == 1:
            p = equal_params(K=rng.uniform(-20.0, 20.0), R=rng.uniform(0.6, 20.0))
            steady = True
        else:
            p = random_params(rng)
            while p.K == 0.0 or abs(p.alpha1 - p.alpha2) < 1e-3:
                p = random_params(rng)
            steady = False
        cases.append((p, random_init(rng), steady))
    return cases


def criterion4_draws():
    """(R, K, r1) in units of lambda: R/lambda and K/lambda are quotients of
    a rate and a half-width drawn in [0.2, 5]."""
    rng = np.random.default_rng(404)
    draws = [
        (rng.uniform(0.2, 5.0), rng.uniform(0.5, 20.0), rng.uniform(-20.0, 20.0),
         rng.uniform(0.05, 0.95))
        for _ in range(20)
    ]
    return [(R / lam, K / lam, r1) for lam, R, K, r1 in draws]


def criterion5_cases():
    rng = np.random.default_rng(505)
    cases = [
        (equal_params(K=3.0), InitialAmplitudes(1.0, 0.0)),
        (equal_params(K=-8.0), bell_state("minus")),
    ]
    for _ in range(18):
        cases.append((equal_params(K=rng.uniform(-20.0, 20.0),
                                   R=rng.uniform(2.0, 20.0)), random_init(rng)))
    return cases


def criterion6_cases():
    rng = np.random.default_rng(606)
    cases = [(fig_params(K=0.0), bell_state("minus"))]
    for _ in range(19):
        cases.append((fig_params(K=0.0, R=rng.uniform(2.0, 20.0)), random_init(rng)))
    return cases


def all_root_solved_params():
    seen = [double_root_set(), triple_root_set()]
    seen += [p for p, _ in criterion1_sets()]
    seen += [p for p, _ in fig_sets()]
    seen += [p for p, _, _ in criterion3_grid()]
    for R, K, r1 in criterion4_draws():
        seen.append(fig_params(K=0.0, R=R, r1=r1))
        seen.append(equal_params(K=K, R=R))
    seen += [p for p, _ in criterion5_cases()]
    seen += [p for p, _ in criterion6_cases()]
    seen += [equal_params(K=k) for k in FIG_K_VALUES]
    return seen


# --- criteria ---------------------------------------------------------------


def test_criterion_1_three_solver_equivalence():
    worst = 0.0
    for p, init in criterion1_sets():
        comp = compare_solvers(p, init, t_end=10.0, n_steps=20000)
        assert largest_discrepancy(comp) <= THREE_SOLVER_TOL
        worst = max(worst, largest_discrepancy(comp))
    # repeated roots: the closed form needs no fallback, and all three agree
    confluent = 0.0
    for p in (double_root_set(), triple_root_set()):
        for init in (bell_state("minus"), InitialAmplitudes(1.0, 0.0)):
            comp = compare_solvers(p, init, t_end=10.0, n_steps=20000)
            assert largest_discrepancy(comp) <= THREE_SOLVER_TOL
            confluent = max(confluent, largest_discrepancy(comp))
    print(f"\nPASS criterion 1: three-solver sup-norm <= {THREE_SOLVER_TOL:.0e} "
          f"on 50 random sets (worst {worst:.2e}) and at the double and triple "
          f"roots (worst {confluent:.2e})")


def test_criterion_2_leak_rate_identity():
    worst = 0.0
    for p, init in fig_sets():
        resid = balance_residual(p, init, 10.0)
        assert resid <= LEAK_TOL
        worst = max(worst, resid)
    print(f"\nPASS criterion 2: population-balance residual <= {LEAK_TOL:.0e} "
          f"on all figure configurations (worst {worst:.2e})")


def test_criterion_3_steady_state_criterion():
    n_steady = 0
    for p, init, expect_steady in criterion3_grid():
        verdict = steady_state_verdict(p, init)
        assert verdict.steady == expect_steady
        # (a) pure-imaginary root presence matches the verdict: one root within
        # 1e-8 of the axis when steady, none when decaying
        on_axis = [s for s in char_roots(p) if abs(s.real) <= 1e-8]
        assert len(on_axis) == int(expect_steady)
        # (b) long-time amplitude product survives iff steady
        t_end = asymptotic_t_end(p)
        c1, c2, _ = residue_coefficients(p, init).evolve(t_end)
        assert (abs(c1 * c2) > 1e-6) == expect_steady
        n_steady += int(expect_steady)
    print(f"\nPASS criterion 3: verdict == pole presence == long-time numerics "
          f"on 200 draws ({n_steady} steady, {200 - n_steady} decaying)")


def test_criterion_4_analytic_pole_identities():
    for R, K, r1 in criterion4_draws():
        scale_lin = max(1.0, 1.0 + R + abs(K))
        scale_cub = max(1.0, 1.0 + R ** 3 + abs(K) ** 3)
        p0 = fig_params(K=0.0, R=R, r1=r1)
        assert abs(char_roots(p0)[0] * 0.0) == 0.0  # no-op guard
        assert min(abs(s) for s in char_roots(p0)) <= 1e-12 * scale_lin
        pe = equal_params(K=K, R=R)
        roots = char_roots(pe)
        assert min(abs(s - 1j * K) for s in roots) <= 1e-9 * scale_lin
        from atompair.closedform import char_cubic

        assert abs(char_cubic(pe)(1j * K)) <= 1e-9 * scale_cub
    print("\nPASS criterion 4: s=0 root at K=0 and s=iK root at equal couplings "
          "for 20 random (R, K) in units of lambda")


def test_criterion_5_equal_coupling_asymptote():
    worst = 0.0
    for i, (p, init) in enumerate(criterion5_cases()):
        expected = 0.5 * abs(init.c10 - init.c20) ** 2
        t_end = asymptotic_t_end(p)
        if i < 2:
            # spot checks along the workhorse integrator
            traj = integrate_pseudomode(p, init, t_end)
            _, conc = concurrence_series(traj)
            got = conc[-1]
        else:
            c1, c2, _ = residue_coefficients(p, init).evolve(t_end)
            got = 2.0 * abs(c1) * abs(c2)
        assert abs(got - expected) <= ASYMPTOTE_TOL
        worst = max(worst, abs(got - expected))
    cases = criterion5_cases()
    assert 0.5 * abs(cases[0][1].c10 - cases[0][1].c20) ** 2 == pytest.approx(0.5)
    assert 0.5 * abs(cases[1][1].c10 - cases[1][1].c20) ** 2 == pytest.approx(1.0)
    print(f"\nPASS criterion 5: equal-coupling asymptote |c10 - c20|^2 / 2 matched "
          f"within {ASYMPTOTE_TOL:.0e} (worst {worst:.2e}); includes 0.5 and 1.0 cases")


def test_criterion_6_zero_dipole_asymptote():
    worst = 0.0
    for i, (p, init) in enumerate(criterion6_cases()):
        d1, d2 = p.r1, p.r2
        dark = 2.0 * d1 * d2 * abs(d2 * init.c10 - d1 * init.c20) ** 2
        if i == 0:
            # the stated oracle for the protected-projection value
            traj = integrate_pseudomode(p, init, 200.0)
            _, conc = concurrence_series(traj)
            got = conc[-1]
            assert abs(got - DARK_PLATEAU) <= ASYMPTOTE_TOL
        else:
            c1, c2, _ = residue_coefficients(p, init).evolve(asymptotic_t_end(p))
            got = 2.0 * abs(c1) * abs(c2)
        assert abs(got - dark) <= ASYMPTOTE_TOL
        worst = max(worst, abs(got - dark))
    # the published closed form does not match the numerics for the flagged case
    init = bell_state("minus")
    alpha = SQRT3_2 / 0.5
    published = (
        2.0 * abs(init.c10 / alpha - init.c20) * abs(alpha * init.c20 - init.c10)
        / (alpha ** 2 + alpha ** -2)
    )
    assert abs(published - DARK_PLATEAU) > 0.4
    print(f"\nPASS criterion 6: dark-projection asymptote matched within "
          f"{ASYMPTOTE_TOL:.0e} (worst {worst:.2e}); published form off by "
          f"{published - DARK_PLATEAU:+.3f} as documented")


def test_criterion_7_decoherence_free_subspace():
    worst_c = 0.0
    worst_leak = 0.0
    for K in FIG_K_VALUES:
        p = equal_params(K=K)
        traj = adaptive_trajectory(p, bell_state("minus"), 50.0, LEAK_IDENTITY_CONFIG)
        _, conc = concurrence_series(traj)
        _, p_leak = leak_series(traj)
        dev_c = np.abs(conc - 1.0).max()
        dev_l = p_leak.max()
        assert dev_c <= DFS_TOL
        assert dev_l <= DFS_TOL
        worst_c = max(worst_c, dev_c)
        worst_leak = max(worst_leak, dev_l)
    print(f"\nPASS criterion 7: protected Bell state keeps C = 1 (dev {worst_c:.2e}) "
          f"and p_leak = 0 (dev {worst_leak:.2e}) over t in [0, 50]")


def test_criterion_8_figure_ordering_claims():
    grid = np.linspace(0.0, 150.0, 15001)
    window = 1.0  # the reservoir correlation time

    def crossing(sign: str, K: float):
        traj = sample_closed_form(fig_params(K=K), bell_state(sign), grid)
        return disentanglement_time(concurrence_series(traj), 0.1, window=window)

    t_minus = {K: crossing("minus", K) for K in FIG_K_VALUES}
    assert t_minus[0.0] is None  # steady plateau never crosses
    assert t_minus[7.0] is not None
    assert t_minus[2.0] is not None and t_minus[20.0] is not None
    assert t_minus[7.0] < t_minus[2.0]
    assert t_minus[7.0] < t_minus[20.0]

    t_plus = {K: crossing("plus", K) for K in (2.0, 7.0, 20.0)}
    assert t_plus[2.0] < t_plus[7.0] < t_plus[20.0]
    print("\nPASS criterion 8: disentanglement orderings reproduced "
          f"(minus: K=7 fastest at {t_minus[7.0]:.2f}; "
          f"plus: {t_plus[2.0]:.2f} < {t_plus[7.0]:.2f} < {t_plus[20.0]:.2f})")


def test_criterion_9_root_invariants_everywhere():
    params = all_root_solved_params()
    for p in params:
        assert_root_invariants(p)
    assert len(params) > 300
    print(f"\nPASS criterion 9: residual and Vieta invariants hold on all "
          f"{len(params)} root solves used across criteria 1-8")


def test_criterion_10_cli_contract(tmp_path):
    fig1a = {
        "R_rel": 10.0, "K_rel": 0.0, "r1": SQRT3_2, "init": "phi_minus",
        "t_end": 50.0, "samples": 501,
    }
    cfg_run = tmp_path / "fig1a.json"
    cfg_run.write_text(json.dumps(fig1a))
    out = tmp_path / "traj.csv"

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "atompair", *args],
            capture_output=True, text=True, timeout=600,
        )

    proc = cli("run", "--config", str(cfg_run), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header = out.read_text().splitlines()[0]
    assert header == ",".join(TRAJECTORY_COLUMNS)

    cfg_verify = tmp_path / "verify.json"
    cfg_verify.write_text(json.dumps({**fig1a, "t_end": 5.0, "n_steps": 10000}))
    proc = cli("verify", "--config", str(cfg_verify))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = cli("verify", "--config", str(cfg_verify), "--corrupt-kernel-sign")
    assert proc.returncode == 1, proc.stdout + proc.stderr

    sweep = {
        "R_rel": 10.0, "r1": SQRT3_2, "init": "phi_minus",
        "K_values": [0.0, 2.0, 7.0], "tau_grid": [0.0, 10.0, 101],
    }
    cfg_sweep = tmp_path / "sweep.json"
    cfg_sweep.write_text(json.dumps(sweep))
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for path in (out1, out2):
        proc = cli("sweep", "--config", str(cfg_sweep), "--out", str(path))
        assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()
    print("\nPASS criterion 10: CSV schema exact, verify exit codes 0/1, "
          "sweep identical across two runs")
