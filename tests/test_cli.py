import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from atompair.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    TRAJECTORY_COLUMNS,
    _CSV_CELLS,
    _write_sweep_csv,
    _write_table,
    init_from_config,
    main,
    params_from_config,
    write_trajectory_csv,
)
from atompair import char_roots, dynamics, verification
from atompair.dynamics import integrate_pseudomode, leak_series, sample_closed_form
from atompair.model import bell_state

from conftest import SQRT3_2, fig_params, random_init

# K = 0, R = lam/2 gives a double root at -lam/2; r2 = 0, K = lam/sqrt(27),
# R = sqrt(8/27) lam a triple root at -lam/3
CONFLUENT = {
    "double": {"lambda": 1.0, "W": 0.5, "alpha1": 1.0, "alpha2": 0.0, "K": 0.0},
    "triple": {"lambda": 1.0, "W": math.sqrt(8.0 / 27.0), "alpha1": 1.0, "alpha2": 0.0,
               "K": 1.0 / math.sqrt(27.0)},
}


def expm_amplitudes(params, init, t):
    """Independent reference: (c1, c2, b) = expm(M t) (c10, c20, 0) at each t."""
    linalg = pytest.importorskip("scipy.linalg")
    from atompair.dynamics import _system_matrix

    M = _system_matrix(params)
    y0 = np.array([init.c10, init.c20, 0.0], dtype=complex)
    return np.array([linalg.expm(M * tk) @ y0 for tk in t]).T


FIG1A_K0 = {
    "R_rel": 10.0,
    "K_rel": 0.0,
    "r1": SQRT3_2,
    "init": "phi_minus",
    "t_end": 50.0,
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def _fmt_reference(x):
    return format(float(x), ".17g")


def write_trajectory_csv_reference(path, traj):
    """The per-cell trajectory writer, kept as the byte-for-byte reference."""
    tau = traj.params.lam * traj.t
    _, p_leak = leak_series(traj)
    conc = np.minimum(2.0 * np.abs(traj.c1) * np.abs(traj.c2), 1.0)
    clip = lambda a: np.clip(a, 0.0, 1.0)
    cols = [
        tau,
        traj.c1.real, traj.c1.imag,
        traj.c2.real, traj.c2.imag,
        traj.b.real, traj.b.imag,
        clip(traj.p1), clip(traj.p2), clip(traj.pb), p_leak, conc,
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt_reference(v) for v in row) + "\n")


def write_sweep_csv_reference(path, tau, k_values, columns):
    """The per-cell sweep writer, kept as the byte-for-byte reference."""
    header = ["tau"] + [f"K={_fmt_reference(k)}" for k in k_values]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i, tv in enumerate(tau):
            fh.write(",".join([_fmt_reference(tv)] + [_fmt_reference(col[i]) for col in columns]) + "\n")


class TestCsvBytes:
    def test_trajectory_csv_matches_per_cell_writer(self, tmp_path, rng):
        grid = np.linspace(0.0, 4.0, 41)
        trajs = [
            sample_closed_form(fig_params(K=2.0, lam=0.5), bell_state("minus"), grid),
            integrate_pseudomode(fig_params(K=-7.0, R=0.5, r1=0.3), random_init(rng), 4.0, times=grid),
        ]
        for k, traj in enumerate(trajs):
            ref, new = tmp_path / f"ref{k}.csv", tmp_path / f"new{k}.csv"
            write_trajectory_csv_reference(ref, traj)
            write_trajectory_csv(str(new), traj)
            assert new.read_bytes() == ref.read_bytes()

    def test_sweep_csv_matches_per_cell_writer(self, tmp_path, rng):
        tau = np.array([0.0, 1e-300, 0.1, 1.0 / 3.0, 7.0, 1e17])
        special = np.array([-0.0, 5e-324, 1.0, 0.1, math.nan, 2.0 / 3.0])
        columns = [rng.uniform(0.0, 1.0, tau.size) for _ in range(4)] + [special]
        k_values = [-20.0, 0.0, 0.1, 1.0 / 7.0, 1e-9]
        ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
        write_sweep_csv_reference(ref, tau, k_values, columns)
        _write_sweep_csv(str(new), tau, k_values, columns)
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("n_columns", [12, 402])  # a trajectory's width, the figure's
    def test_sweep_csv_matches_at_block_edges(self, tmp_path, rng, n_columns, offset):
        # the writer formats _CSV_CELLS // n_columns rows at a time
        rows = _CSV_CELLS // n_columns + offset
        tau = np.linspace(0.0, 10.0, rows)
        columns = [rng.uniform(0.0, 1.0, rows) for _ in range(n_columns - 1)]
        columns[0][-3:] = [math.nan, -0.0, 5e-324]
        k_values = np.linspace(-20.0, 20.0, n_columns - 1).tolist()
        ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
        write_sweep_csv_reference(ref, tau, k_values, columns)
        _write_sweep_csv(str(new), tau, k_values, np.array(columns))
        assert new.read_bytes() == ref.read_bytes()

    def test_table_memory_does_not_grow_with_rows(self, rng):
        # a list of every cell's Python float took about 10 MB per 20,000
        # rows of twelve columns; a block of rows takes a fixed amount
        header = [f"c{j}" for j in range(12)]
        peaks = []
        for rows in (20_001, 200_001):
            cols = [rng.uniform(-1.0, 1.0, rows) for _ in header]
            tracemalloc.start()
            try:
                _write_table(os.devnull, header, cols)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < 1.5 * peaks[0] + 100_000
        assert peaks[1] < 2_000_000


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_field_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {**FIG1A_K0, "lamda": 1.0})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "lamda" in capsys.readouterr().err

    def test_jobs_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", _SWEEP)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--jobs", "1"])
        assert exc.value.code == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err

    def test_missing_init(self, tmp_path, capsys):
        payload = {k: v for k, v in FIG1A_K0.items() if k != "init"}
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "init" in capsys.readouterr().err

    def test_missing_t_end(self, tmp_path, capsys):
        payload = {k: v for k, v in FIG1A_K0.items() if k != "t_end"}
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "t_end" in capsys.readouterr().err

    def test_mixed_parameterizations(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**FIG1A_K0, "W": 3.0})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    def test_invalid_physics_named(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"lambda": -1.0, "W": 1.0, "alpha1": 1.0, "alpha2": 0.0, "K": 0.0,
             "init": "phi_minus", "t_end": 1.0},
        )
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "lam" in capsys.readouterr().err

    def test_bad_init_pair(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {**FIG1A_K0, "init": {"c10": [1.0], "c20": [0.0, 0.0]}}
        )
        assert main(["run", "--config", cfg]) == EXIT_CONFIG


_RUN = {**FIG1A_K0, "K_rel": 2.0, "t_end": 2.0, "samples": 21}
_SWEEP = {
    "R_rel": 10.0, "r1": SQRT3_2, "init": "phi_minus",
    "K_rel_values": [0.0, 2.0], "tau_grid": [0.0, 2.0, 21],
}


# tau up to 1 is t up to 1e300: the closed form's exponentials overflow to NaN
_NAN_CLOSED_FORM = {"lambda": 1e-300, "W": 1.0, "alpha1": 0.8, "alpha2": 0.6, "K": 1.0,
                    "init": "phi_minus", "K_values": [0.0, 1.0], "tau_grid": [0.0, 1.0, 3]}
# the memory-kernel step t_end / 20000 = 5e295 is far too long for W = 1: its
# amplitudes overflow
_VOLTERRA_OVERFLOW = {"lambda": 1e-300, "W": 1, "alpha1": 0.8, "alpha2": 0.6, "K": 1,
                      "init": "phi_minus", "t_end": 1e300}


class TestFaultyInputs:
    """Each bad input exits 2 promptly, naming the offending field."""

    @pytest.mark.parametrize(
        "command, payload, extra, field",
        [
            ("run", {"lambda": 1.0, "W": math.nan, "alpha1": SQRT3_2, "alpha2": 0.5,
                     "K": 2.0, "init": "phi_minus", "t_end": 2.0}, [], "W"),
            ("run", {**_RUN, "K_rel": math.inf}, ["--solver", "closed"], "K_rel"),
            ("verify", {**_RUN, "K_rel": math.inf}, [], "K_rel"),
            ("run", {**_RUN, "t_end": math.nan}, [], "t_end"),
            ("run", {**_RUN, "fixed_dt": 1e-3}, [], "fixed_dt"),
            ("roots", {**_RUN, "R_rel": 1e200}, [], "R_rel"),
            ("roots", {**_RUN, "K_rel": -1e160}, [], "K_rel"),
            ("run", {**_RUN, "R_rel": 1e200}, ["--solver", "closed"], "R_rel"),
            ("run", {**_RUN, "R_rel": 1e60}, ["--solver", "closed"], "R_rel"),
            ("run", {**_RUN, "samples": "abc"}, [], "samples"),
            ("run", {**_RUN, "samples": 2.7}, [], "samples"),
            ("run", {**_RUN, "samples": True}, [], "samples"),
            ("run", {**_RUN, "sample_stride": 0}, [], "sample_stride"),
            ("run", {**_RUN, "n_steps": "many"}, ["--solver", "volterra"], "n_steps"),
            ("verify", {**_RUN, "n_steps": 0}, [], "n_steps"),
            ("sweep", {**_SWEEP, "jobs": 1}, [], "jobs"),
            ("sweep", {**_SWEEP, "jobs": None}, [], "jobs"),
            ("sweep", {**_SWEEP, "K_rel_values": [0.0, math.nan]}, [], "K_rel_values"),
            ("sweep", {**_SWEEP, "K_rel_values": [0.0, "2"]}, [], "K_rel_values"),
            ("sweep", {**_SWEEP, "K_rel_values": [1e200]}, [], "K_rel_values"),
            ("sweep", {**_SWEEP, "lambda": 10.0, "K_rel_values": [1e308]}, [], "K_rel_values"),
            ("sweep", {**_SWEEP, "tau_grid": [0.0, math.inf, 11]}, [], "tau_grid"),
            ("sweep", {**_SWEEP, "tau_grid": [0.0, 1.0, math.nan]}, [], "tau_grid"),
            # max_step is no config field: every value of it is refused as unknown
            ("run", {**_RUN, "max_step": "0.1"}, [], "max_step"),
            ("run", {**_RUN, "max_step": True}, [], "max_step"),
            ("run", {**_RUN, "max_step": math.nan}, [], "max_step"),
            ("run", {**_RUN, "max_step": -math.inf}, [], "max_step"),
            ("run", {**_RUN, "max_step": 0.0}, [], "max_step"),
            ("run", {**_RUN, "max_step": -0.5}, [], "max_step"),
            ("verify", {**_RUN, "rel_tol": "abc"}, [], "rel_tol"),
            ("run", _RUN, ["--out", ""], "out"),
            ("run", {**_RUN, "svg": "no"}, [], "svg"),
            ("sweep", {**_SWEEP, "svg": 1}, [], "svg"),
            ("run", {**_RUN, "renormalize": "yes"}, [], "renormalize"),
            ("run", {**_RUN, "solver": "rk4"}, [], "solver"),
            ("run", {**_RUN, "solver": "all"}, [], "solver"),
            ("verify", {**_RUN, "solver": "rk4"}, [], "solver"),
            ("run", {**_RUN, "n_steps": 5}, ["--solver", "volterra"], "n_steps"),
            ("run", {**_RUN, "t_end": 1e-320}, [], "t_end"),
            ("sweep", _NAN_CLOSED_FORM, [], "tau_grid"),
            ("sweep", _NAN_CLOSED_FORM, ["--svg"], "tau_grid"),
            ("run", {**_NAN_CLOSED_FORM, "t_end": 1e300, "samples": 3},
             ["--solver", "closed"], "t_end"),
            ("verify", _VOLTERRA_OVERFLOW, [], "n_steps"),
            ("run", _VOLTERRA_OVERFLOW, ["--solver", "volterra"], "n_steps"),
            ("run", {**_RUN, "omega0": 0.0}, [], "omega0"),
            ("verify", {**_RUN, "solver": "all"}, [], "solver"),
        ],
    )
    def test_exits_2_naming_field(self, tmp_path, capsys, command, payload, extra, field):
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o.csv"
        # verify writes no file, so it takes no --out
        out_flag = [] if command == "verify" else ["--out", str(out)]
        assert main([command, "--config", cfg, *out_flag, *extra]) == EXIT_CONFIG
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".svg").exists()

    @pytest.mark.parametrize("value", [True, "", None, ["o.csv"]])
    def test_out_must_be_a_nonempty_string(self, tmp_path, monkeypatch, capsys, value):
        # "out": true once opened file descriptor 1 and wrote the CSV to stdout
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "c.json", {**_RUN, "out": value})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "'out'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_step_underflow_names_the_integrator_fields(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {**_RUN, "abs_tol": 1e-300})
        out = tmp_path / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        for field in ("abs_tol", "rel_tol"):
            assert f"'{field}'" in err
        assert not out.exists()

    def test_non_finite_initial_amplitude(self, tmp_path, capsys):
        payload = {**_RUN, "init": {"c10": [math.nan, 0.0], "c20": [0.0, 0.8]}}
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(out), "--solver", "closed"]) == EXIT_CONFIG
        assert "invalid init" in capsys.readouterr().err
        assert not out.exists()

    def test_coarse_volterra_steps_exit_2(self, tmp_path, capsys):
        # at 100 steps the memory-kernel scheme is unstable for these rates
        payload = {"R_rel": 12.2131, "K_rel": 12.4332, "r1": 0.1708, "init": "phi_minus",
                   "t_end": 10, "n_steps": 100, "samples": 101}
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(out), "--solver", "volterra"]) == EXIT_CONFIG
        assert "'n_steps'" in capsys.readouterr().err
        assert not out.exists()
        # the default step count resolves the same rates
        del payload["n_steps"]
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["run", "--config", cfg, "--out", str(out), "--solver", "volterra"]) == EXIT_OK

    @pytest.mark.parametrize("command", [["verify"], ["run", "--solver", "volterra"]])
    def test_overflowing_volterra_step_is_named(self, tmp_path, capsys, command):
        # the refusal gives the step, so that t_end shows as what sets it
        cfg = write_config(tmp_path, "c.json", _VOLTERRA_OVERFLOW)
        out = tmp_path / "o.csv"
        out_flag = [] if command == ["verify"] else ["--out", str(out)]
        assert main([*command, "--config", cfg, *out_flag]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "'n_steps'" in captured.err and "t_end / 20000 = 5e+295" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, payload", [("run", _RUN), ("sweep", _SWEEP)])
    def test_chart_over_the_csv_is_refused(self, tmp_path, capsys, command, payload):
        # --svg writes the chart beside the CSV with the suffix .svg: an
        # 'out' that already has it would lose the CSV under the chart
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o.svg"
        assert main([command, "--config", cfg, "--out", str(out), "--svg"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "field 'out'" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, payload", [("run", _RUN), ("sweep", _SWEEP)])
    def test_unwritable_chart_path_is_named(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, "c.json", payload)
        chart = tmp_path / "o.svg"
        chart.mkdir()
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out), "--svg"]) == EXIT_CONFIG
        assert f"cannot write {chart}" in capsys.readouterr().err

    def test_max_step_is_an_unknown_field(self, tmp_path, capsys):
        # the adaptive step has no cap: a config that sets one is refused
        # before anything runs
        cfg = write_config(tmp_path, "c.json", {**_RUN, "max_step": 0.1})
        out = tmp_path / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "unknown config field(s): 'max_step'" in captured.err
        assert captured.out == "" and not out.exists()

    def test_integral_float_counts_as_integer(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**_RUN, "samples": 21.0})
        out = tmp_path / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 22


class TestStepBudget:
    """A run that would take more than _MAX_STEPS steps exits 2 naming the field."""

    def test_adaptive_budget_names_t_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 50)
        cfg = write_config(tmp_path, "c.json", _RUN)
        out = tmp_path / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(out), "--solver", "ode"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'t_end'" in err and "--solver closed" in err
        assert not out.exists()
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert "'t_end'" in capsys.readouterr().err
        # the closed form reaches the same horizon
        assert main(["run", "--config", cfg, "--out", str(out), "--solver", "closed"]) == EXIT_OK


class TestRateScale:
    """A tiny lambda either exits 2 naming it or reproduces lambda = 1 in tau units."""

    @staticmethod
    def _run(tmp_path, command, lam):
        payload = {
            "lambda": lam, "R_rel": 10.0, "K_rel": 2.0, "r1": SQRT3_2, "init": "phi_minus",
            "t_end": 10.0 / lam, "samples": 41, "solver": "closed",
            "K_rel_values": [0.0, 2.0, 7.0], "tau_grid": [0.0, 10.0, 41],
        }
        name = f"{command}_{lam:g}"
        out = tmp_path / f"{name}.csv"
        code = main([command, "--config", write_config(tmp_path, f"{name}.json", payload),
                     "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("k", [10, 50, 52, 53, 58, 80, 108, 110, 160, 200, 250, 300])
    def test_tiny_lambda(self, tmp_path, capsys, command, k):
        code, out = self._run(tmp_path, command, 10.0 ** -k)
        if code == EXIT_CONFIG:
            assert "'lambda'" in capsys.readouterr().err
            assert not out.exists()
            return
        assert code == EXIT_OK
        ref_code, ref = self._run(tmp_path, command, 1.0)
        assert ref_code == EXIT_OK
        assert np.abs(read_csv(out)[1][:, 1:] - read_csv(ref)[1][:, 1:]).max() <= 1e-12


class TestRun:
    def test_schema_and_plateau(self, tmp_path):
        cfg = write_config(tmp_path, "fig1a.json", FIG1A_K0)
        out = tmp_path / "traj.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == list(TRAJECTORY_COLUMNS)
        conc = rows[:, 11]
        tau = rows[:, 0]
        assert conc[tau > 40.0].min() > 0.7  # steady plateau, never decays
        assert np.all((conc >= 0.0) & (conc <= 1.0))
        for col in (7, 8, 9):
            assert np.all((rows[:, col] >= 0.0) & (rows[:, col] <= 1.0))
        p_leak = rows[:, 10]
        assert np.all(np.diff(p_leak) >= -1e-8)

    def test_explicit_amplitudes_and_solver_choice(self, tmp_path):
        payload = {
            "lambda": 1.0, "W": 10.0, "alpha1": SQRT3_2, "alpha2": 0.5, "K": 2.0,
            "init": {"c10": [0.6, 0.0], "c20": [0.0, 0.8]},
            "t_end": 5.0, "solver": "closed", "samples": 101,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "c.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert rows.shape == (101, 12)
        assert rows[0, 1] == pytest.approx(0.6)
        assert rows[0, 4] == pytest.approx(0.8)

    @staticmethod
    def _assert_solvers_agree(tmp_path, samples):
        outs = {}
        for solver in ("closed", "ode", "volterra"):
            payload = {**FIG1A_K0, "t_end": 5.0, "solver": solver, "samples": samples}
            cfg = write_config(tmp_path, f"{solver}.json", payload)
            out = tmp_path / f"{solver}.csv"
            assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
            outs[solver] = read_csv(out)[1]
        for a in ("ode", "volterra"):
            assert outs[a].shape == (samples, 12)
            assert np.abs(outs[a] - outs["closed"]).max() < 1e-5

    def test_solvers_agree_in_csv(self, tmp_path):
        self._assert_solvers_agree(tmp_path, 201)

    def test_solvers_agree_across_dense_output_blocks(self, tmp_path):
        # 20,001 samples span three blocks of the adaptive route's dense output
        self._assert_solvers_agree(tmp_path, 20001)

    @pytest.mark.parametrize("point", ["double", "triple"])
    def test_closed_form_at_confluent_roots(self, tmp_path, capsys, point):
        payload = {
            **CONFLUENT[point], "init": {"c10": [1.0, 0.0], "c20": [0.0, 0.0]},
            "t_end": 50.0, "solver": "closed", "samples": 201,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "c.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "(solver: closed_form)" in captured.out
        assert captured.err == ""
        _, rows = read_csv(out)
        ref = expm_amplitudes(
            params_from_config(payload), init_from_config(payload), rows[:, 0]
        )
        got = np.array([rows[:, 1] + 1j * rows[:, 2], rows[:, 3] + 1j * rows[:, 4],
                        rows[:, 5] + 1j * rows[:, 6]])
        assert np.abs(got - ref).max() <= 1e-12

    def test_svg_written(self, tmp_path):
        payload = {**FIG1A_K0, "t_end": 5.0, "samples": 101}
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "c.csv"
        assert main(["run", "--config", cfg, "--out", str(out), "--svg"]) == EXIT_OK
        svg = (tmp_path / "c.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestSweep:
    def test_dark_plateau_column(self, tmp_path):
        payload = {
            "R_rel": 10.0, "r1": SQRT3_2, "init": "phi_minus",
            "K_values": [0.0, 2.0], "tau_grid": [0.0, 60.0, 241],
        }
        cfg = write_config(tmp_path, "s.json", payload)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["tau", "K=0", "K=2"]
        tail = rows[rows[:, 0] > 50.0]
        plateau = (3.0 + 2.0 * math.sqrt(3.0)) / 8.0
        assert np.abs(tail[:, 1] - plateau).max() < 1e-3
        assert np.all(tail[:, 2] < tail[:, 1])  # dipole destroys the plateau

    def test_protected_column_all_ones(self, tmp_path):
        payload = {
            "R_rel": 10.0, "r1": 1.0 / math.sqrt(2.0), "init": "phi_minus",
            "K_rel_values": [5.0], "tau_grid": [0.0, 20.0, 101],
        }
        cfg = write_config(tmp_path, "s.json", payload)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert np.abs(rows[:, 1] - 1.0).max() < 1e-9

    def test_svg_heatmap_written(self, tmp_path):
        payload = {
            "R_rel": 10.0, "r1": SQRT3_2, "init": "phi_minus",
            "K_rel_values": [-2.0, 0.0, 2.0], "tau_grid": [0.0, 5.0, 11],
        }
        cfg = write_config(tmp_path, "s.json", payload)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--svg"]) == EXIT_OK
        svg = (tmp_path / "s.svg").read_text()
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<rect") == 3 * 11 + 2  # one per cell, background, frame

    def test_triple_root_column_matches_expm(self, tmp_path):
        k_triple = CONFLUENT["triple"]["K"]
        payload = {
            **CONFLUENT["triple"], "init": "phi_minus",
            "K_values": [0.0, k_triple, 0.5], "tau_grid": [0.0, 60.0, 121],
        }
        cfg = write_config(tmp_path, "s.json", payload)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header[2] == f"K={_fmt_reference(k_triple)}"
        params = params_from_config(payload)
        c1, c2, _ = expm_amplitudes(params, bell_state("minus"), rows[:, 0])
        assert np.abs(rows[:, 2] - 2.0 * np.abs(c1) * np.abs(c2)).max() <= 1e-12

    def test_empty_grid_is_config_error(self, tmp_path):
        payload = {
            "R_rel": 10.0, "r1": SQRT3_2, "init": "phi_minus",
            "K_values": [0.0], "tau_grid": [],
        }
        cfg = write_config(tmp_path, "s.json", payload)
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG

    def test_missing_axis_is_config_error(self, tmp_path):
        payload = {
            "R_rel": 10.0, "r1": SQRT3_2, "init": "phi_minus",
            "tau_grid": [0.0, 10.0, 11],
        }
        cfg = write_config(tmp_path, "s.json", payload)
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG


class TestRoots:
    def test_zero_dipole_report(self, tmp_path, capsys):
        payload = {"R_rel": 10.0, "K_rel": 0.0, "r1": SQRT3_2}
        cfg = write_config(tmp_path, "r.json", payload)
        assert main(["roots", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "zero_K" in out
        assert "surviving pole" in out

    def test_equal_coupling_report(self, tmp_path, capsys):
        payload = {"R_rel": 10.0, "K_rel": 5.0, "r1": 1.0 / math.sqrt(2.0)}
        cfg = write_config(tmp_path, "r.json", payload)
        assert main(["roots", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "equal_coupling" in out
        assert "+5" in out  # pole at 5i

    def test_decaying_report_and_csv(self, tmp_path, capsys):
        payload = {"R_rel": 10.0, "K_rel": 2.0, "r1": SQRT3_2}
        cfg = write_config(tmp_path, "r.json", payload)
        out = tmp_path / "roots.csv"
        assert main(["roots", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "decaying" in capsys.readouterr().out
        header, rows = read_csv(out)
        assert header == ["re_s", "im_s", "abs_D"]
        assert rows.shape == (3, 3)
        assert rows[:, 2].max() < 1e-8
        # one row per root, sorted by (real, imag) part
        roots = char_roots(params_from_config(payload))
        assert rows[:, :2].tolist() == [[s.real, s.imag] for s in roots]
        assert rows[:, :2].tolist() == sorted(rows[:, :2].tolist())


    @pytest.mark.parametrize("k_rel", [2.0, 0.0])
    def test_no_pole_line_without_reservoir_coupling(self, tmp_path, capsys, k_rel):
        # W = 0: D(s) = (s + lam)(s^2 + K^2) has two undamped roots, at +-iK
        # or doubly at 0, and no single one survives
        cfg = write_config(tmp_path, "r.json", {"R_rel": 0.0, "K_rel": k_rel, "r1": 0.8})
        assert main(["roots", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "surviving pole: not applicable\n" in out
        assert "verdict: not applicable" in out

    def test_pole_line_agrees_with_verdict(self, tmp_path, capsys):
        # the numerically smallest |Re s| is far below the root finder's axis
        # tolerance here, but the verdict is analytic: no surviving pole
        payload = {"R_rel": 1e30, "K_rel": 2.0, "r1": 0.8}
        cfg = write_config(tmp_path, "r.json", payload)
        assert main(["roots", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "surviving pole: none" in out
        assert "verdict: fully decaying" in out


class TestVerify:
    @pytest.mark.parametrize("t_end", [2.5e-5, 1e-6])
    def test_horizon_below_the_identity_step(self, tmp_path, capsys, t_end):
        # a population-balance check on nodes 2.5e-5 apart once had no pair
        # of them below that horizon; one adaptive step serves any horizon
        cfg = write_config(tmp_path, "v.json", {**FIG1A_K0, "t_end": t_end})
        assert main(["verify", "--config", cfg]) == EXIT_OK
        assert "[PASS] population-balance identity" in capsys.readouterr().out

    def test_passes_on_reference_config(self, tmp_path):
        payload = {**FIG1A_K0, "t_end": 5.0, "n_steps": 10000}
        cfg = write_config(tmp_path, "v.json", payload)
        assert main(["verify", "--config", cfg]) == EXIT_OK

    @pytest.mark.parametrize(
        "payload",
        [
            {**FIG1A_K0, "K_rel": 2.0, "t_end": 10.0},
            # the most adaptive steps in the verification box, with a complex state
            {"R_rel": 20.0, "K_rel": -20.0, "r1": 0.6,
             "init": {"c10": [0.6, 0.3], "c20": [-0.2, 0.714142842854285]}},
            # one coupled atom: with K = 0 and c20 = 0, c2 stays exactly 0
            {"R_rel": 10.0, "K_rel": 0.0, "r1": 1.0,
             "init": {"c10": [1.0, 0.0], "c20": [0.0, 0.0]}},
        ],
        ids=["reference", "corner", "single_atom"],
    )
    def test_passes_across_the_box(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, "v.json", payload)
        assert main(["verify", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out.endswith("all checks passed\n")

    @pytest.mark.parametrize(
        "payload",
        [
            {**FIG1A_K0, "K_rel": 2.0, "t_end": 10.0, "lambda": 10.0},
            {"R_rel": 20.0, "K_rel": -20.0, "r1": 0.6, "lambda": 3.0,
             "init": {"c10": [0.6, 0.3], "c20": [-0.2, 0.714142842854285]}},
        ],
        ids=["reference_lambda_10", "corner_lambda_3"],
    )
    def test_fast_rates_pass_the_balance(self, tmp_path, capsys, payload):
        # a difference quotient on nodes 2.5e-5 apart once read 2.8e-6 and
        # 3.0e-6 here, a differencing bias above the threshold on honest runs
        cfg = write_config(tmp_path, "v.json", payload)
        assert main(["verify", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] population-balance identity" in out
        assert out.endswith("all checks passed\n")

    def test_rounds_n_steps_up_to_the_comparison_grid(self, tmp_path, capsys, monkeypatch):
        # the memory-kernel route is put on the 2001-point grid as run puts it
        # on its samples: 3000 steps become 2 per interval, 4000 in all
        taken = []
        integrate = verification.integrate_volterra
        monkeypatch.setattr(verification, "integrate_volterra",
                            lambda *a, **k: taken.append(a[3]) or integrate(*a, **k))
        cfg = write_config(tmp_path, "v.json", {**FIG1A_K0, "K_rel": 2.0, "t_end": 5.0,
                                                "n_steps": 3000})
        assert main(["verify", "--config", cfg]) == EXIT_OK
        assert taken == [4000]
        assert "all checks passed" in capsys.readouterr().out
        # a refusal gives the steps taken
        cfg = write_config(tmp_path, "v.json", {**_VOLTERRA_OVERFLOW, "n_steps": 3000})
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'n_steps' = 3000" in err and "t_end / 4000 = 2.5e+296" in err

    def test_negative_control_fails(self, tmp_path, capsys):
        payload = {**FIG1A_K0, "t_end": 5.0, "n_steps": 10000}
        cfg = write_config(tmp_path, "v.json", payload)
        assert main(["verify", "--config", cfg, "--corrupt-kernel-sign"]) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_coarse_volterra_steps_exit_2(self, tmp_path, capsys):
        # at t_end = 1e5 the default 20,000 memory-kernel steps (h = 5) are
        # unstable on the README reference case; the population check runs
        # before the adaptive route, so the refusal comes at once
        payload = {**FIG1A_K0, "K_rel": 2.0, "t_end": 1e5}
        cfg = write_config(tmp_path, "v.json", payload)
        start = time.perf_counter()
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert "'n_steps'" in captured.err and "nan" in captured.err
        assert captured.out == ""

    def test_negative_control_fails_although_population_grows(self, tmp_path, capsys):
        # the corrupted kernel's population grows far past 1; that is the
        # failure the check must report, not a config error
        payload = {**FIG1A_K0, "K_rel": 2.0, "t_end": 10.0}
        cfg = write_config(tmp_path, "v.json", payload)
        assert main(["verify", "--config", cfg, "--corrupt-kernel-sign"]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "[FAIL] closed_form vs volterra" in out

    @pytest.mark.parametrize("point", ["double", "triple"])
    def test_all_pairs_checked_at_confluent_roots(self, tmp_path, capsys, point):
        payload = {
            **CONFLUENT[point], "init": {"c10": [1.0, 0.0], "c20": [0.0, 0.0]},
            "t_end": 5.0, "n_steps": 10000,
        }
        cfg = write_config(tmp_path, "v.json", payload)
        assert main(["verify", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        for pair in ("closed_form vs pseudomode_ode", "closed_form vs volterra",
                     "pseudomode_ode vs volterra"):
            assert f"[PASS] {pair}:" in out
        assert "FAIL" not in out and "note" not in out


class TestCommandFlags:
    """Each command takes only the flags it reads; any other is a usage error."""

    @pytest.mark.parametrize(
        "command, payload, flag",
        [
            ("sweep", _SWEEP, ["--t-end", "3"]),
            ("sweep", _SWEEP, ["--fixed-dt", "1e-3"]),
            ("roots", _RUN, ["--svg"]),
            ("roots", _RUN, ["--t-end", "3"]),
            ("roots", _RUN, ["--fixed-dt", "1e-3"]),
            ("verify", _RUN, ["--out", "o.csv"]),
            ("verify", _RUN, ["--svg"]),
            ("verify", _RUN, ["--fixed-dt", "1e-3"]),
            ("run", _RUN, ["--fixed-dt", "1e-3"]),
            ("verify", _RUN, ["--solver", "closed"]),
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, monkeypatch, capsys,
                                                     command, payload, flag):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "c.json", payload)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, *flag])
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_flags_the_command_reads_are_taken(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "c.json", _RUN)
        assert main(["run", "--config", cfg, "--out", "r.csv", "--svg", "--t-end", "1"]) == EXIT_OK
        assert main(["roots", "--config", cfg, "--out", "roots.csv"]) == EXIT_OK
        assert main(["verify", "--config", cfg, "--t-end", "1"]) == EXIT_OK
        sweep = write_config(tmp_path, "s.json", _SWEEP)
        assert main(["sweep", "--config", sweep, "--out", "s.csv", "--svg"]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.json", "r.csv", "r.svg", "roots.csv", "s.csv", "s.json", "s.svg"]

    def test_config_fields_the_command_does_not_read_are_named(self, tmp_path, monkeypatch,
                                                              capsys):
        # one config may serve several commands, so such a field is not refused
        monkeypatch.chdir(tmp_path)
        payload = {**FIG1A_K0, "t_end": 2.0}
        plain = write_config(tmp_path, "plain.json", payload)
        assert main(["verify", "--config", plain]) == EXIT_OK
        usual = capsys.readouterr()
        assert usual.err == ""
        unread = {"out": "x.csv", "svg": True, "rel_tol": 1e-3, "sample_stride": 5}
        cfg = write_config(tmp_path, "c.json", {**payload, **unread})
        assert main(["verify", "--config", cfg]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == usual.out
        assert captured.err.count("\n") == 1
        assert "verify does not read" in captured.err
        assert all(f"'{field}'" in captured.err for field in unread)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "plain.json"]


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_field_table_names_every_field():
    from atompair.cli import _FIELDS

    with open(README, encoding="utf-8") as fh:
        keys = re.findall(r"^\| `(\w+)` \|", fh.read(), flags=re.MULTILINE)
    assert sorted(keys) == sorted(_FIELDS)


def test_readme_run_config_verifies_all_four_checks(tmp_path, capsys):
    # the README runs verify on its run config, whose "solver" is run's
    # alone: verify names it as unread and still makes every check
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```json\n(.*?)^```", fh.read(), flags=re.MULTILINE | re.DOTALL)
    payload = next(json.loads(b) for b in blocks if '"solver"' in b and '"t_end"' in b)
    cfg = write_config(tmp_path, "run.json", payload)
    assert main(["verify", "--config", cfg]) == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [ln.split(":")[0] for ln in lines[:-1]] == [
        "[PASS] closed_form vs pseudomode_ode", "[PASS] closed_form vs volterra",
        "[PASS] pseudomode_ode vs volterra", "[PASS] population-balance identity"]
    assert lines[-1] == "all checks passed"
    assert "'samples'" in captured.err and "'solver'" in captured.err


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**FIG1A_K0, "t_end": 2.0, "samples": 51}))
        out = tmp_path / "t.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "atompair", "run", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    @pytest.mark.parametrize(
        "solver_args", [["--solver", "ode"], ["--solver", "closed"], ["--solver", "volterra"]],
        ids=["ode", "closed", "volterra"],
    )
    def test_csv_does_not_depend_on_blas_threads(self, tmp_path, solver_args):
        cfg = tmp_path / "ref.json"
        cfg.write_text(json.dumps({**FIG1A_K0, "K_rel": 2.0, "t_end": 10.0}))
        runs = {}
        for threads in ("1", "2"):  # the two children run side by side
            out = tmp_path / f"threads{threads}.csv"
            runs[out] = subprocess.Popen(
                [sys.executable, "-m", "atompair", "run", "--config", str(cfg),
                 "--out", str(out), *solver_args],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
        for proc in runs.values():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        one, two = (out.read_bytes() for out in runs)
        assert one == two

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, atompair.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "atompair", "frobnicate"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
