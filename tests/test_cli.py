import contextlib
import io
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
    _FIELDS,
    _csv_text,
    _write_sweep_csv,
    _write_table,
    build_parser,
    init_from_config,
    main,
    params_from_config,
    write_trajectory_csv,
)
from atompair import char_roots, concurrence_array, dynamics, svgplot, verification
from atompair.dynamics import integrate_pseudomode, leak_series, sample_closed_form
from atompair.model import bell_state

from conftest import SQRT3_2, fig_params, random_init

# K = 0, R = lambda/2 gives a double root at -lambda/2; r2 = 0,
# K = lambda/sqrt(27), R = sqrt(8/27) lambda a triple root at -lambda/3
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
    tau = traj.t
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


def csv_text_reference(block):
    """The CSV text of a float block, cell by cell with '%.17g'."""
    return "".join(",".join(_fmt_reference(v) for v in row) + "\n" for row in block.tolist()).encode()


def _csv_edge_values():
    """Doubles at every edge of the vectorised '%.17g', positive and negative."""
    values = [
        0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,  # subnormals, least normal
        1e-300, 1e300, 1.7976931348623157e308,
        # the fast path's magnitude bounds, each side
        1e-280, math.nextafter(1e-280, 0.0), 1e280, math.nextafter(1e280, 0.0),
        # exact ties, |x| * 10^(16 - E) an odd multiple of 1/2: half to even
        # rounds 2.5 down and 7.5 up
        1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 1e14 + 0.375, 3 * 2.0 ** -24, 5 * 2.0 ** -24,
        # '%.17g' switches to the exponent form below E = -4 and from E = 17
        1e-5, 1e-4, 1.2345e-5, 1.2345e-4, 1e16, 1e17, 1.2345e16, 1.2345e17,
        # two- and three-digit exponents
        1e99, 1e100, 1e-99, 1e-100, 9.9999999999999999e99, 1.5e-100,
        # 17 significant digits, and trailing zeros inside them
        1.0, 0.5, 10.0, 100.5, 123456.789, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1e15 + 1.0,
    ]
    # powers of ten and every value's neighbours, where log10 can misjudge E
    values += [10.0 ** k for k in range(-300, 300)]
    values += [math.nextafter(v, d) for v in values for d in (0.0, math.inf)]
    values = np.array(values)
    return np.concatenate([values, -values, [math.inf, -math.inf, math.nan]])


class TestCsvBytes:
    @pytest.mark.parametrize("n_columns", [1, 7])
    def test_csv_text_matches_format_at_the_edges(self, n_columns):
        values = _csv_edge_values()
        values = np.concatenate([values, np.full(-values.size % n_columns, 0.25)])
        block = values.reshape(-1, n_columns)
        assert _csv_text(block).tobytes() == csv_text_reference(block)

    def test_csv_text_matches_format_on_raw_bits(self, rng):
        # doubles from uniform 64-bit patterns: every exponent, NaNs included
        bits = rng.integers(0, 2 ** 64, 60_000, dtype=np.uint64, endpoint=False)
        block = bits.view(np.float64).reshape(-1, 12)
        assert _csv_text(block).tobytes() == csv_text_reference(block)

    def test_trajectory_csv_matches_per_cell_writer(self, tmp_path, rng):
        grid = np.linspace(0.0, 4.0, 41)
        trajs = [
            # lambda = 0.5 in units of lambda
            sample_closed_form(fig_params(K=4.0, R=20.0), bell_state("minus"), 0.5 * grid),
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
        for rows in (2_001, 20_001):
            cols = [rng.uniform(-1.0, 1.0, rows) for _ in header]
            tracemalloc.start()
            try:
                _write_table(os.devnull, header, rows,
                             lambda s: np.column_stack([c[s] for c in cols]))
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

    @pytest.mark.parametrize("command", ["run", "roots"])
    def test_dimensionless_config_with_K_exits_2(self, tmp_path, monkeypatch, capsys,
                                                 command):
        # K is an explicit parameter: a dimensionless config that gives it too
        # once ran at K = 0 with exit 0
        monkeypatch.chdir(tmp_path)
        payload = {"R_rel": 10, "r1": SQRT3_2, "K": 5, "init": "phi_minus", "t_end": 2.0}
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "not both" in captured.err and captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_invalid_physics_named(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"lambda": -1.0, "W": 1.0, "alpha1": 1.0, "alpha2": 0.0, "K": 0.0,
             "init": "phi_minus", "t_end": 1.0},
        )
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "'lambda'" in capsys.readouterr().err

    def test_bad_init_pair(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {**FIG1A_K0, "init": {"c10": [1.0], "c20": [0.0, 0.0]}}
        )
        assert main(["run", "--config", cfg]) == EXIT_CONFIG


_RUN = {**FIG1A_K0, "K_rel": 2.0, "t_end": 2.0, "samples": 21}
# the reference rates at r1 0.8, where a test makes one rate fast
_FAST = {"R_rel": 10.0, "K_rel": 0.0, "r1": 0.8, "init": "phi_minus"}
_SWEEP = {
    "R_rel": 10.0, "r1": SQRT3_2, "init": "phi_minus",
    "K_rel_values": [0.0, 2.0], "tau_grid": [0.0, 2.0, 21],
}
# the reference rates given explicitly, in units of lambda = 1
_EXPLICIT = {"lambda": 1.0, "W": 10.0, "alpha1": SQRT3_2, "alpha2": 0.5, "K": 2.0,
             "init": "phi_minus", "t_end": 2.0}


# equal couplings keep an undamped pole at i K_rel: at tau = 1e308 its phase
# overflows, and the closed form's amplitudes are NaN
_NAN_CLOSED_FORM = {"R_rel": 10.0, "K_rel": 10.0, "r1": 0.7071067811865476, "init": "phi_minus",
                    "K_rel_values": [0.0, 10.0], "tau_grid": [0.0, 1e308, 3]}
# the memory-kernel step t_end / 20000 = 5e295 is far too long for R_rel = 10:
# its amplitudes overflow
_VOLTERRA_OVERFLOW = {"R_rel": 10.0, "K_rel": 2.0, "r1": 0.8, "init": "phi_minus",
                      "t_end": 1e300}


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
            ("run", {**_NAN_CLOSED_FORM, "t_end": 1e308, "samples": 3},
             ["--solver", "closed"], "t_end"),
            ("verify", _VOLTERRA_OVERFLOW, [], "n_steps"),
            ("run", _VOLTERRA_OVERFLOW, ["--solver", "volterra"], "n_steps"),
            ("run", {**_RUN, "omega0": 0.0}, [], "omega0"),
            ("verify", {**_RUN, "solver": "all"}, [], "solver"),
            # the adaptive route's tolerances are fixed: neither is a config field
            *((command, {**_RUN, **_SWEEP, field: 1e-9}, [], field)
              for field in ("rel_tol", "abs_tol")
              for command in ("run", "sweep", "roots", "verify")),
            # a negative R_rel is refused as itself, not as the W it once became
            ("run", {"R_rel": -1, "r1": 0.5, "init": "phi_minus", "t_end": 2.0}, [], "R_rel"),
            # W / lambda overflows; a JSON integer too large for a float;
            # lambda * t_end underflows to zero
            ("run", {**_EXPLICIT, "lambda": 1e-300, "W": 1e300}, [], "W"),
            ("run", {**_RUN, "t_end": 10**400}, [], "t_end"),
            ("run", {**_EXPLICIT, "lambda": 1e-300, "W": 1e-300, "K": 0.0, "t_end": 1e-300},
             [], "t_end"),
            ("sweep", {**_SWEEP, "tau_grid": [0.0, 2.0, 1.5]}, [], "tau_grid"),
            ("sweep", {**_SWEEP, "K_values": [0.0, 2.0]}, [], "K_values"),
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

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", [_RUN])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
        assert "must be a JSON object" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("value", [True, "", None, ["o.csv"]])
    def test_out_must_be_a_nonempty_string(self, tmp_path, monkeypatch, capsys, value):
        # "out": true once opened file descriptor 1 and wrote the CSV to stdout
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "c.json", {**_RUN, "out": value})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "'out'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_non_finite_initial_amplitude(self, tmp_path, capsys):
        payload = {**_RUN, "init": {"c10": [math.nan, 0.0], "c20": [0.0, 0.8]}}
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(out), "--solver", "closed"]) == EXIT_CONFIG
        assert "invalid init" in capsys.readouterr().err
        assert not out.exists()

    def test_off_norm_initial_state_hint_names_the_config_field(self, tmp_path, capsys):
        # no CLI option takes the library's rescaling; the config field does
        payload = {**_RUN, "init": {"c10": [0.7071, 0.0], "c20": [0.7071, 0.0]}}
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "invalid init" in err and 'set "renormalize": true' in err
        assert "mode=" not in err and "normalized" not in err
        assert not out.exists()
        cfg = write_config(tmp_path, "c.json", {**payload, "renormalize": True})
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK

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

    @staticmethod
    def _assert_volterra_refusal(tmp_path, capsys, command, payload, line):
        # run and verify write the same line
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o.csv"
        out_flag = [] if command == ["verify"] else ["--out", str(out)]
        assert main([*command, "--config", cfg, *out_flag]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == line
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", [["verify"], ["run", "--solver", "volterra"]])
    def test_overflowing_volterra_step_is_named(self, tmp_path, capsys, command):
        # the refusal gives the step, so that t_end shows as what sets it
        self._assert_volterra_refusal(
            tmp_path, capsys, command, _VOLTERRA_OVERFLOW,
            "error: field 'n_steps' = 20000 is too coarse for these parameters: the "
            "memory-kernel route's tracked population grew to nan at the step "
            "t_end / 20000 = 5e+295; use more steps, or a shorter 't_end'")

    @pytest.mark.parametrize("command", [["verify"], ["run", "--solver", "volterra"]])
    def test_overflowing_volterra_step_is_the_one_taken(self, tmp_path, capsys, command):
        # the steps taken: 3000 rounded up to 2 per interval of a 2001-point grid
        self._assert_volterra_refusal(
            tmp_path, capsys, command, {**_VOLTERRA_OVERFLOW, "n_steps": 3000},
            "error: field 'n_steps' = 3000 is too coarse for these parameters: the "
            "memory-kernel route's tracked population grew to nan at the step "
            "t_end / 4000 = 2.5e+296; use more steps, or a shorter 't_end'")

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

    def test_unwritable_csv_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "o.csv"
        cfg = write_config(tmp_path, "c.json", _RUN)
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"cannot write {out}" in capsys.readouterr().err

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
        # run takes 47 steps to t_end = 2 at its tolerances, verify 79
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 20)
        cfg = write_config(tmp_path, "c.json", _RUN)
        out = tmp_path / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(out), "--solver", "ode"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: field 't_end' asks for too many steps (more than 20 adaptive steps tried "
            "by t = 0.8197449534227375, in units of 1/lambda): lower it, or use --solver closed\n")
        assert not out.exists()
        # verify has no closed-form alternative to offer
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "note: verify does not read config field(s) 'samples'\n"
            "error: field 't_end' asks for too many steps (more than 20 adaptive steps tried "
            "by t = 0.4887752899686609, in units of 1/lambda): lower it\n")
        # the closed form reaches the same horizon
        assert main(["run", "--config", cfg, "--out", str(out), "--solver", "closed"]) == EXIT_OK

    def test_volterra_ceiling_names_n_steps(self, tmp_path, capsys, monkeypatch):
        # the memory-kernel route refuses more than _MAX_VOLTERRA_STEPS steps
        # before it allocates its step arrays
        monkeypatch.setattr(dynamics, "_MAX_VOLTERRA_STEPS", 5000)
        cfg = write_config(tmp_path, "c.json", {**_RUN, "n_steps": 6000})
        out = tmp_path / "o.csv"
        argv = ["run", "--config", cfg, "--out", str(out), "--solver", "volterra"]
        line = ("error: field 'n_steps' = 6000, rounded up per sample interval, is out of "
                "range: n_steps must lie in [100, 5000], got 6000")
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == line + "\n"
        assert captured.out == "" and not out.exists()
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "note: verify does not read config field(s) 'samples'\n" + line + "\n"
        assert captured.out == ""
        # a count within the ceiling runs
        cfg = write_config(tmp_path, "c.json", {**_RUN, "n_steps": 4000})
        assert main(argv) == EXIT_OK

    def test_volterra_ceiling_names_samples(self, tmp_path, capsys, monkeypatch):
        # the route takes a step per sample interval at least, so samples - 1
        # above the ceiling is refused whatever n_steps is, and named
        monkeypatch.setattr(dynamics, "_MAX_VOLTERRA_STEPS", 5000)
        out = tmp_path / "o.csv"
        for samples in (5002, 10001):
            cfg = write_config(tmp_path, "c.json", {**_RUN, "n_steps": 200, "samples": samples})
            assert main(["run", "--config", cfg, "--out", str(out), "--solver", "volterra"]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert f"'samples' = {samples}" in captured.err and "its 5000 steps" in captured.err
            assert "n_steps" not in captured.err
            assert captured.out == "" and not out.exists()
        # one step per sample interval, up to the ceiling, runs
        cfg = write_config(tmp_path, "c.json", {**_RUN, "n_steps": 200, "samples": 5001})
        assert main(["run", "--config", cfg, "--out", str(out), "--solver", "volterra"]) == EXIT_OK


class TestRateScale:
    """A config is solved in units of lambda, so any normal lambda reproduces lambda = 1."""

    _COMMANDS = ("run", "sweep", "roots", "verify")
    _EXPONENTS = (10, 50, 52, 53, 58, 80, 108, 110, 160, 200, 250, 300)

    @staticmethod
    def _run(tmp_path, command, lam):
        """``command`` at ``lam`` over tau up to 10: its exit code, CSV rows and stdout."""
        payload = {
            "lambda": lam, "R_rel": 10.0, "K_rel": 2.0, "r1": SQRT3_2, "init": "phi_minus",
            "t_end": 10.0 / lam, "samples": 41, "solver": "closed",
            "K_rel_values": [0.0, 2.0, 7.0], "tau_grid": [0.0, 10.0, 41],
        }
        out = tmp_path / f"{command}_{lam:g}.csv"
        # verify writes no file, so it takes no --out
        out_flag = [] if command == "verify" else ["--out", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([command, "--config", write_config(tmp_path, "c.json", payload), *out_flag])
        rows = read_csv(out)[1] if out.exists() else None
        return code, rows, stdout.getvalue()

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("lambda_1")
        return {c: self._run(tmp_path, c, 1.0) for c in self._COMMANDS}

    @pytest.mark.parametrize("command", _COMMANDS)
    @pytest.mark.parametrize("k", _EXPONENTS)
    def test_tiny_lambda(self, tmp_path, reference, command, k):
        self._assert_matches(tmp_path, reference, command, 10.0 ** -k)

    @pytest.mark.parametrize("command", _COMMANDS)
    @pytest.mark.parametrize("k", _EXPONENTS)
    def test_huge_lambda(self, tmp_path, reference, command, k):
        self._assert_matches(tmp_path, reference, command, 10.0 ** k)

    def _assert_matches(self, tmp_path, reference, command, lam):
        code, rows, stdout = self._run(tmp_path, command, lam)
        ref_code, ref_rows, ref_stdout = reference[command]
        assert code == ref_code == EXIT_OK
        if command in ("run", "sweep"):
            assert np.abs(rows - ref_rows).max() <= 1e-12
        else:
            # the roots, their CSV, the verdict and every check's line
            assert stdout == ref_stdout
            if command == "roots":
                assert rows.tolist() == ref_rows.tolist()

    @staticmethod
    def _physical_amplitudes(lam, W, alpha1, alpha2, K, t):
        """(c1, c2, b) from phi_minus at the physical times ``t``, shape (3, t.size).

        The reference shares no code with atompair: numpy's eigendecomposition
        of the amplitude matrix in physical units, lambda included.
        """
        M = np.array([
            [0.0, -1j * K, -1j * W * alpha1],
            [-1j * K, 0.0, -1j * W * alpha2],
            [-1j * W * alpha1, -1j * W * alpha2, -lam],
        ])
        w, V = np.linalg.eig(M)
        init = bell_state("minus")
        weights = np.linalg.solve(V, np.array([init.c10, init.c20, 0.0]))
        return V @ (weights[:, None] * np.exp(np.outer(w, t)))

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_scaling_matches_the_unscaled_closed_form(self, tmp_path, command):
        # every route gets the same scaled parameters, so their agreement
        # cannot catch a mistake in the scaling: compare with the dynamics
        # of the unscaled parameters at t = tau / lambda
        lam = 2.5
        payload = {
            "lambda": lam, "W": 20.0, "alpha1": SQRT3_2, "alpha2": 0.5, "K": 5.0,
            "init": "phi_minus", "t_end": 4.0, "samples": 41, "solver": "closed",
            "K_values": [5.0, -12.5], "tau_grid": [0.0, 10.0, 41],
        }
        out = tmp_path / "o.csv"
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        tau = rows[:, 0]
        assert np.abs(tau - np.linspace(0.0, 10.0, 41)).max() <= 1e-12
        unscaled = {k: payload[k] for k in ("W", "alpha1", "alpha2", "K")}
        if command == "run":
            ref = self._physical_amplitudes(lam, **unscaled, t=tau / lam)
            got = rows[:, 1:7:2] + 1j * rows[:, 2:7:2]
            assert np.abs(got - ref.T).max() <= 1e-12
            return
        assert header == ["tau", "K=5", "K=-12.5"]
        for j, K in enumerate(payload["K_values"], start=1):
            c1, c2, _ = self._physical_amplitudes(lam, **{**unscaled, "K": K}, t=tau / lam)
            assert np.abs(rows[:, j] - concurrence_array(c1, c2)).max() <= 1e-12


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

    def test_chart_forms_only_the_rows_it_draws(self, tmp_path, monkeypatch):
        # a run keeps every (samples // 1600)-th row: all 3,199 rows, every
        # 2nd of 3,200 and every 25th of 40,001.  The chart's series are the
        # CSV's own columns at those rows, not full-length arrays, and
        # line_chart draws each of their points
        drawn = []
        line_chart = svgplot.line_chart
        monkeypatch.setattr(svgplot, "line_chart",
                            lambda *a, **k: drawn.append(a) or line_chart(*a, **k))
        out = tmp_path / "c.csv"
        for samples, stride, points in [(3199, 1, 3199), (3200, 2, 1600), (40001, 25, 1601)]:
            drawn.clear()
            payload = {**FIG1A_K0, "t_end": 5.0, "samples": samples}
            cfg = write_config(tmp_path, "c.json", payload)
            assert main(["run", "--config", cfg, "--out", str(out), "--solver", "closed",
                         "--svg"]) == EXIT_OK
            [(_, tau, series)] = drawn
            rows = np.loadtxt(out, delimiter=",", skiprows=1)[::stride]
            col = dict(zip(TRAJECTORY_COLUMNS, rows.T))
            assert list(series) == ["concurrence", "p1 + p2", "pb", "p_leak"]
            expected = {"concurrence": col["concurrence"], "p1 + p2": col["p1"] + col["p2"],
                        "pb": col["pb"], "p_leak": col["p_leak"]}
            for y, want in [(tau, col["tau"]), *zip(series.values(), expected.values())]:
                assert y.shape == (points,)
                np.testing.assert_array_equal(y, want)
            svg = out.with_suffix(".svg").read_text()
            polylines = re.findall(r'points="([^"]*)"', svg)
            assert [p.count(",") for p in polylines] == [points] * 4


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

    def test_equal_coupling_with_a_strong_dipole_term(self, tmp_path, capsys):
        # the bright mode decays at about 1e-8 lam, within the axis
        # tolerance, so two roots lie on the axis; the verdict's pole is
        # the one at i K
        payload = {"R_rel": 10, "K_rel": 1e5, "r1": 1.0 / math.sqrt(2.0), "init": "phi_minus"}
        cfg = write_config(tmp_path, "r.json", payload)
        assert main(["roots", "--config", cfg]) == EXIT_OK
        assert "verdict: steady (regime equal_coupling" in capsys.readouterr().out

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
            {**_FAST, "R_rel": 1e7, "t_end": 1e-6},
            {**_FAST, "K_rel": 1e6, "t_end": 1e-5},
            {**_FAST, "R_rel": 1e20, "t_end": 1e-19},
        ],
        ids=["reference_lambda_10", "corner_lambda_3", "R_rel_1e7", "K_rel_1e6", "R_rel_1e20"],
    )
    def test_fast_rates_pass_the_balance(self, tmp_path, capsys, payload):
        # a difference quotient on nodes 2.5e-5 apart once read 2.8e-6 and
        # 3.0e-6 on the first two; the defect grows with the fastest rate,
        # and read per unit time of lambda it was 3.3e-6, 1.0e-6 and 3.3e7
        # on the other three, whose routes agree to 6e-12
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

    def test_negative_control_fails_at_a_fast_rate(self, tmp_path, capsys):
        # the balance is read per unit time of the fastest rate; the flipped
        # kernel still moves the amplitudes far past the sup-norm threshold
        cfg = write_config(tmp_path, "v.json", {**_FAST, "R_rel": 1e7, "t_end": 1e-6})
        assert main(["verify", "--config", cfg, "--corrupt-kernel-sign"]) == EXIT_CHECK_FAILED
        assert "[FAIL] closed_form vs volterra" in capsys.readouterr().out

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
        unread = {"out": "x.csv", "svg": True, "samples": 21, "sample_stride": 5}
        cfg = write_config(tmp_path, "c.json", {**payload, **unread})
        assert main(["verify", "--config", cfg]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == usual.out
        assert captured.err.count("\n") == 1
        assert "verify does not read" in captured.err
        assert all(f"'{field}'" in captured.err for field in unread)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "plain.json"]


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_field_table() -> list[tuple[str, str]]:
    """(field, flag) of each row of the README's config field table; the flag
    is empty where the row names none."""
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^\| `(\w+)` \|.*\| (?:`(--[a-z-]+)`)? ?\|$", fh.read(),
                          flags=re.MULTILINE)


def test_readme_field_table_names_every_field():
    assert [field for field, _ in _readme_field_table()] == list(_FIELDS)


def test_readme_field_table_flags_match_the_parser():
    # the flag a command takes for a field has the field as its dest
    commands = build_parser()._subparsers._group_actions[0].choices
    flags = {action.dest: action.option_strings for sub in commands.values()
             for action in sub._actions if action.dest in _FIELDS}
    assert {field: [flag] for field, flag in _readme_field_table() if flag} == flags


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


def test_readme_library_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library quick start", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, flags=re.MULTILINE | re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    verdict, regime = capsys.readouterr().out.splitlines()
    assert verdict.startswith("SteadyStateVerdict(steady=False")
    assert regime == "decaying"


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
