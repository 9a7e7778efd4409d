"""Property tests of the CLI input boundary.

Any config built from the known fields, with values drawn from per-field edge
lists, run through any subcommand, either succeeds (exit 0), fails a
verification check (exit 1, ``verify`` only) or exits 2; it never raises,
writes only inside its own directory, and an exit-0 CSV holds no NaN.  The
edge lists keep every case's work bounded: t_end <= 10, samples <= 2001 and
n_steps <= 20000.

Any parameters, initial state and horizon the CLI accepts, at either of the
adaptive route's tolerance pairs, either give a finite run of that route or
use up its step budget, cut to ``ADAPTIVE_BUDGET`` steps to bound the work.

Any block of doubles, drawn from raw 64-bit patterns, is written by the CSV
formatter as ``'%.17g'`` writes each cell.
"""

import builtins
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, reject, settings, strategies as st  # noqa: E402

from atompair import dynamics  # noqa: E402
from atompair.cli import (  # noqa: E402
    EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, _FIELDS, ConfigError, _csv_text, _horizon,
    init_from_config, main, params_from_config,
)
from atompair.dynamics import StepBudgetError, _adaptive_run  # noqa: E402
from atompair.verification import LEAK_IDENTITY_CONFIG  # noqa: E402

from conftest import INV_SQRT2, SQRT3_2  # noqa: E402

BAD = [None, "x", True, [], {}, math.nan, -math.inf]

# per field: (values its parser accepts, values it refuses besides BAD)
EDGES = {
    "lambda": ([1.0, 0.5, 1e-60, 1e-300, 1e200], [0.0, -1.0]),
    "W": ([10.0, 0.5, 0.0, 1e200], [-1.0]),
    "alpha1": ([SQRT3_2, 1.0, 0.0], [-0.5]),
    "alpha2": ([0.5, 0.0, 1.0], [-0.5]),
    "K": ([2.0, 0.0, -20.0, 1e160], []),
    "R_rel": ([10.0, 0.5, 0.0, 1e60, 1e200], [-1.0]),
    "K_rel": ([2.0, 0.0, -20.0, 1e160], []),
    "r1": ([SQRT3_2, 0.0, 1.0], [1.5, -0.1]),
    "init": (
        ["phi_minus", "phi_plus", {"c10": [0.6, 0.0], "c20": [0.0, 0.8]},
         {"c10": [1.0, 0.0], "c20": [1.0, 0.0]}, {"c10": [0.0, 0.0], "c20": [0.0, 0.0]},
         {"c10": [1e200, 0.0], "c20": [0.0, 0.0]}],
        ["psi_plus", {"c10": [10**400, 0], "c20": [0, 0]}, {"c10": [1.0]},
         {"c10": [0.6, 0.0], "c20": [0.0, 0.8], "c30": [0.0, 0.0]}],
    ),
    "renormalize": ([True, False], [1, "no"]),
    "t_end": ([2.0, 10.0, 2.5e-5, 1e-9], [5e-324, 0.0, -1.0]),
    "solver": (["closed", "ode", "volterra"], ["rk4", 3, "all"]),
    "samples": ([2, 21, 2001, 21.0], [1, 2.5]),
    "n_steps": ([1, 5, 100, 2000, 20000, 3000], [0, 2.5]),
    "sample_stride": ([1, 5], [0]),
    "out": (["o.csv", "missing/o.csv", "."], ["", True]),
    "svg": ([True, False], ["no", 0]),
    "K_values": ([[0.0, 2.0], [-20.0], [1e200]], [[], [math.nan], ["2"]]),
    "K_rel_values": ([[0.0, 2.0], [20.0], [1e308]], [[0.0, "2"]]),
    "tau_grid": (
        [[0.0, 2.0, 21], [0.0, 5.0, 2], [0.0, 0.5, 1.0]],
        [[1.0, 0.0, 5], [0.0, 2.0, 1], [], [1.0, 0.5], [0.0, math.inf, 11]],
    ),
}
KEYS = sorted(EDGES)

# the two parameterizations, each with what every subcommand needs
BASES = [
    {"R_rel": 10.0, "K_rel": 2.0, "r1": SQRT3_2, "init": "phi_minus", "t_end": 2.0,
     "samples": 21, "n_steps": 2000, "K_rel_values": [0.0, 2.0], "tau_grid": [0.0, 2.0, 21]},
    {"lambda": 1.0, "W": 10.0, "alpha1": SQRT3_2, "alpha2": 0.5, "K": 2.0,
     "init": "phi_plus", "t_end": 2.0, "samples": 21, "n_steps": 2000,
     "K_values": [0.0, 2.0], "tau_grid": [0.0, 2.0, 21]},
]


def _values(keys, pick):
    return st.fixed_dictionaries({k: st.sampled_from(pick(k)) for k in keys})


# a base with a few fields dropped, up to six accepted edge values and at
# most one refused value: mostly configs that reach a solver, each refusal
# on its own
configs = st.builds(
    lambda base, drop, good, bad: {**{k: v for k, v in base.items() if k not in drop},
                                   **good, **bad},
    st.sampled_from(BASES),
    st.sets(st.sampled_from(KEYS), max_size=2),
    st.lists(st.sampled_from(KEYS), max_size=6, unique=True).flatmap(
        lambda keys: _values(keys, lambda k: EDGES[k][0])),
    st.lists(st.sampled_from(KEYS), max_size=1).flatmap(
        lambda keys: _values(keys, lambda k: EDGES[k][1] + BAD)),
)
# each command with each solver flag it takes, and without one
argvs = st.sampled_from(
    [["run"], ["run", "--solver", "closed"], ["run", "--solver", "ode"],
     ["run", "--solver", "volterra"], ["sweep"], ["roots"], ["verify"]]
)


def test_edge_lists_cover_every_field():
    assert EDGES.keys() == _FIELDS.keys()


@pytest.fixture
def write_spy(monkeypatch):
    """Record the path of every file the package opens for writing."""
    written = []
    real_open = builtins.open

    def spy(file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+"):
            written.append(file)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    monkeypatch.setattr(io, "open", spy)
    return written


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=argvs, cfg=configs)
def test_every_config_exits_cleanly(tmp_path, write_spy, argv, cfg):
    work = tmp_path / f"case{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    write_spy.clear()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        code = main([*argv, "--config", str(path)])
    finally:
        os.chdir(cwd)
    allowed = {EXIT_OK, EXIT_CONFIG} | ({EXIT_CHECK_FAILED} if argv[0] == "verify" else set())
    assert code in allowed
    for file in write_spy:
        assert (work / file).resolve().is_relative_to(work.resolve())
    if code == EXIT_OK:
        for csv in Path(work).glob("**/*.csv"):
            assert "nan" not in csv.read_text().lower()


def _powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# rates of order one, and from 1e-300 up past the cubic-range check's
# refusal near 1e51; horizons of order one, and from 1e-300 to 1e300
rates = st.one_of(st.just(0.0), _powers_of_ten(-3.0, 3.0), _powers_of_ten(-300.0, 60.0))
signed = st.builds(lambda x, sign: sign * x, rates, st.sampled_from([1.0, -1.0]))
amplitude = st.lists(signed, min_size=2, max_size=2)
adaptive_configs = st.builds(
    lambda params, init, t_end: {**params, "init": init, "renormalize": True, "t_end": t_end},
    st.one_of(
        st.fixed_dictionaries({
            "R_rel": rates, "K_rel": signed,
            "r1": st.one_of(st.sampled_from([0.0, 1.0, INV_SQRT2]), st.floats(0.0, 1.0)),
        }),
        st.fixed_dictionaries({"lambda": rates.filter(bool), "W": rates, "alpha1": rates,
                               "alpha2": rates, "K": signed}),
    ),
    st.one_of(st.sampled_from(["phi_plus", "phi_minus"]),
              st.fixed_dictionaries({"c10": amplitude, "c20": amplitude})),
    st.one_of(_powers_of_ten(-3.0, 4.0), _powers_of_ten(-300.0, 300.0)),
)
ADAPTIVE_BUDGET = 2000


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cfg=adaptive_configs,
       tolerances=st.sampled_from([dynamics._TOLERANCES, LEAK_IDENTITY_CONFIG]))
# a step whose fifth-order estimate is zero and whose third-order one is
# subnormal, where the error norm once divided zero by zero
@example(cfg={"R_rel": 0.0, "K_rel": -3.678922008877585e-64, "r1": 0.42638917557228273,
              "init": "phi_minus", "t_end": 6.483479610274663e157},
         tolerances=LEAK_IDENTITY_CONFIG)
def test_adaptive_route_finishes_or_uses_up_its_budget(monkeypatch, cfg, tolerances):
    # the step budget is the route's one refusal: no input the CLI passes
    # on makes a non-finite state or a step that does not advance
    try:
        params, init = params_from_config(cfg), init_from_config(cfg)
        tau = _horizon(cfg, cfg["t_end"])
    except ConfigError:
        reject()
    monkeypatch.setattr(dynamics, "_MAX_STEPS", ADAPTIVE_BUDGET)
    try:
        _, bounds, ys = _adaptive_run(params, init, tau, tolerances)
    except StepBudgetError:
        return
    assert bounds[0] == 0.0 and bounds[-1] == tau
    assert np.all(np.diff(bounds) > 0.0)
    assert np.isfinite(bounds).all() and np.isfinite(ys).all()


# a double's 64 bits from its sign, its biased exponent and its 52-bit
# significand, so that every exponent is drawn, not only the extreme ones
raw_doubles = st.builds(lambda sign, exponent, significand: sign << 63 | exponent << 52 | significand,
                        st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2 ** 52 - 1))


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(raw_doubles, min_size=1, max_size=48), n_columns=st.integers(1, 4))
def test_csv_text_matches_format_on_any_double(bits, n_columns):
    bits += [0] * (-len(bits) % n_columns)
    block = np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, n_columns)
    expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist())
    assert _csv_text(block).tobytes() == expected.encode()
