"""Command-line surface: single runs, parameter sweeps, root reports, verification.

Configuration is a single JSON document; command-line flags override file
values.  Parameters can be given either explicitly (lambda, W, alpha1,
alpha2, K) or dimensionlessly as (R_rel, K_rel, r1) with lambda = 1 implied,
matching how the regimes of interest are usually quoted.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import concurrence_array, concurrence_series, steady_state_verdict
from .closedform import char_cubic, char_roots, evolve_over_K
from .dynamics import (
    IntegratorConfig,
    StepBudgetError,
    StepUnderflowError,
    Trajectory,
    integrate_pseudomode,
    leak_series,
    sample_closed_form,
)
from .model import InitialAmplitudes, SystemParams, bell_state, validate_initial
from .verification import (
    LEAK_IDENTITY_TOL,
    THREE_SOLVER_TOL,
    PopulationGrowthError,
    compare_solvers,
    sample_volterra,
)
from . import svgplot

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

TRAJECTORY_COLUMNS = (
    "tau", "re_c1", "im_c1", "re_c2", "im_c2", "re_b", "im_b",
    "p1", "p2", "pb", "p_leak", "concurrence",
)


class ConfigError(Exception):
    """Bad configuration; maps to exit code 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# configuration handling


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(cfg) - _FIELDS.keys()
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(map(repr, sorted(unknown)))}")
    return cfg


def _finite(key: str, v) -> float:
    """``v`` as a float, if it is a finite number; otherwise a ConfigError naming ``key``."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"field '{key}' must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"field '{key}' must be finite, got {v!r}")
    return x


def _integer(key: str, v) -> int:
    """``v`` as an int, if it is an integer (an integral JSON float counts)."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"field '{key}' must be an integer, got {v!r}")
    return v


def _rule(test, text: str, convert=lambda key, v: v):
    """Parser of the values ``convert`` accepts and ``test`` passes, as ``text`` says."""

    def parse(key: str, v):
        x = convert(key, v)
        if not test(x):
            raise ConfigError(f"field '{key}' must {text}, got {x!r}")
        return x

    return parse


_tolerance = _rule(lambda x: 0.0 < x <= 1e-2, "lie in (0, 1e-2]", _finite)
_boolean = _rule(lambda v: isinstance(v, bool), "be true or false")


def _init(key: str, v):
    """A state name, or ``{"c10": [re, im], "c20": [re, im]}`` with finite parts."""
    if v in ("phi_plus", "phi_minus"):
        return v
    shaped = isinstance(v, dict) and set(v) == {"c10", "c20"}
    if shaped and all(isinstance(pair, list) and len(pair) == 2 for pair in v.values()):
        try:
            return {amp: [_finite(key, x) for x in pair] for amp, pair in v.items()}
        except ConfigError:
            pass
    raise ConfigError(
        f"invalid init: field '{key}' must be 'phi_plus', 'phi_minus' or "
        f"{{\"c10\": [re, im], \"c20\": [re, im]}} with finite parts, got {v!r}"
    )


def _number_list(key: str, v) -> list[float]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"field '{key}' must be a nonempty list of numbers")
    return [_finite(key, x) for x in v]


def _tau_grid(key: str, v) -> np.ndarray:
    """``[start, stop, num]`` with an integer num, or an explicit list of times."""
    if isinstance(v, list) and len(v) == 3 and isinstance(v[2], int) and not isinstance(v[2], bool):
        start, stop, num = _finite(key, v[0]), _finite(key, v[1]), v[2]
        if num < 2 or stop <= start or start < 0.0:
            raise ConfigError(f"field '{key}' [start, stop, num] must satisfy 0 <= start < stop, num >= 2")
        return np.linspace(start, stop, num)
    grid = np.array(_number_list(key, v))
    if np.any(np.diff(grid) <= 0.0) or grid[0] < 0.0:
        raise ConfigError(f"field '{key}' must be strictly increasing and nonnegative")
    return grid


_ALL = frozenset({"run", "sweep", "roots", "verify"})

# Every config field: its parser, which returns the checked value or raises a
# ConfigError naming the field, its default where every command shares it,
# and the commands that read it; a command takes a flag only for a field it
# reads.  The parameter fields' defaults depend on the parameterization and
# live in params_from_config; a command that reads t_end, solver, out or init
# has its own default for it.
_FIELDS = {
    "lambda": (_finite, None, _ALL),
    "W": (_finite, None, _ALL),
    "alpha1": (_finite, None, _ALL),
    "alpha2": (_finite, None, _ALL),
    "K": (_finite, None, _ALL),
    "R_rel": (_finite, None, _ALL),
    "K_rel": (_finite, None, _ALL),
    "r1": (_rule(lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]", _finite), None, _ALL),
    "init": (_init, None, _ALL),
    "renormalize": (_boolean, False, _ALL),
    # a subnormal t_end leaves no room for distinct sample times
    "t_end": (_rule(lambda x: x >= sys.float_info.min, "be positive and normal", _finite), None,
              {"run", "verify"}),
    "solver": (_rule(lambda v: v in ("closed", "ode", "volterra"),
                     "be one of closed|ode|volterra"), None, {"run"}),
    "samples": (_rule(lambda n: n >= 2, "be >= 2", _integer), 2001, {"run"}),
    "n_steps": (_rule(lambda n: n >= 1, "be >= 1", _integer), 20000, {"run", "verify"}),
    "rel_tol": (_tolerance, 1e-9, {"run"}),
    "abs_tol": (_tolerance, 1e-12, {"run"}),
    # read by no command, but accepted: existing configs, the benchmark's among them, carry it
    "sample_stride": (_rule(lambda n: n >= 1, "be >= 1", _integer), None, set()),
    "out": (_rule(lambda v: isinstance(v, str) and v != "", "be a nonempty path"), None,
            {"run", "sweep", "roots"}),
    "svg": (_boolean, False, {"run", "sweep"}),
    "K_values": (_number_list, None, {"sweep"}),
    "K_rel_values": (_number_list, None, {"sweep"}),
    "tau_grid": (_tau_grid, None, {"sweep"}),
}


def _required(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required field '{key}'")
    return cfg[key]


def params_from_config(cfg: dict) -> SystemParams:
    dimless = {"R_rel", "K_rel", "r1"} & set(cfg)
    explicit = {"W", "alpha1", "alpha2"} & set(cfg)
    if dimless and explicit:
        raise ConfigError(
            "give either dimensionless (R_rel, K_rel, r1) or explicit "
            "(W, alpha1, alpha2, K) parameters, not both"
        )
    try:
        if dimless:
            lam = cfg.get("lambda", 1.0)
            r1 = _required(cfg, "r1")
            fields = ("R_rel", "K_rel")
            values = (lam, _required(cfg, "R_rel") * lam, r1, math.sqrt(max(0.0, 1.0 - r1 * r1)),
                      cfg.get("K_rel", 0.0) * lam)
        else:
            fields = ("W", "K")
            values = [_required(cfg, k) for k in ("lambda", "W", "alpha1", "alpha2", "K")]
        # (lam, W, alpha1, alpha2, K), in SystemParams' order
        params = SystemParams(*values)
    except ValueError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc
    _check_cubic_range(params, [params.K], *fields)
    return params


def _check_cubic_range(params: SystemParams, K, r_field: str, k_field: str) -> None:
    """Refuse parameters outside the range of Cardano's formula, naming a field.

    ``K`` is the array of dipole strengths to check in place of ``params.K``;
    the first one out of range is reported.  Once a cube of the cubic's
    coefficients overflows, the roots come out NaN or the complex cube root
    raises.  Once the roots' size to the sixth power, that of Cardano's p^3
    and q^2, underflows, the roots come out wrong; a dimensionless config's
    only scale is then lambda.
    """
    K = np.asarray(K, dtype=float)
    cubic = char_cubic(params, K)
    coefficients = {"a2": np.full(K.shape, cubic.a2), "a1": cubic.a1, "a0": cubic.a0}
    with np.errstate(over="ignore", under="ignore"):
        sizes = {name: np.abs(c) for name, c in coefficients.items()}
        overflows = {name: ~np.isfinite(v * v * v) for name, v in sizes.items()}
        cube = np.maximum.reduce([sizes["a2"] ** 3, sizes["a1"] ** 1.5, sizes["a0"]])  # the roots' size, cubed
        underflows = cube * cube < sys.float_info.min
    bad = np.logical_or.reduce([*overflows.values(), underflows])
    if not bad.any():
        return
    i = int(np.argmax(bad))
    inputs = {r_field: params.R, k_field: float(K[i]), "lambda": params.lam}
    largest = max(inputs, key=lambda k: abs(inputs[k]))
    for name, over in overflows.items():
        if over[i]:
            raise ConfigError(
                f"field '{largest}' is too large: the characteristic cubic's coefficient "
                f"{name} = {coefficients[name][i]} overflows when cubed"
            )
    field = "lambda" if r_field == "R_rel" else largest
    raise ConfigError(
        f"field '{field}' is too small: the characteristic cubic's roots are of the "
        f"order of {cube[i] ** (1 / 3):.3e}, and their sixth power underflows"
    )


def init_from_config(cfg: dict, default: str | None = None) -> InitialAmplitudes:
    value = cfg.get("init", default)
    if value is None:
        raise ConfigError("missing required field 'init'")
    if isinstance(value, str):
        return bell_state(value.removeprefix("phi_"))
    mode = "renormalize" if cfg.get("renormalize") else "strict"
    try:
        return validate_initial(
            InitialAmplitudes(complex(*value["c10"]), complex(*value["c20"])), mode
        )
    except ValueError as exc:
        raise ConfigError(f"invalid init: {exc}") from exc


def _merged_config(args: argparse.Namespace) -> dict:
    """The config file with the flags given over it, every field parsed once.

    The fields of the file that ``args.command`` does not read are named on
    stderr, since one config may serve several commands.
    """
    cfg = load_config(args.config) if args.config else {}
    unread = sorted(k for k in cfg if args.command not in _FIELDS[k][2])
    cfg.update((k, v) for k, v in vars(args).items() if k in _FIELDS)
    merged = {k: default for k, (_, default, _) in _FIELDS.items() if default is not None}
    merged.update((k, _FIELDS[k][0](k, v)) for k, v in cfg.items())
    if unread:
        print(f"note: {args.command} does not read config field(s) "
              f"{', '.join(map(repr, unread))}", file=sys.stderr)
    return merged


# ---------------------------------------------------------------------------
# CSV emission


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """Write the canonical trajectory table; tau is lam * t."""
    lam = traj.params.lam
    tau = lam * traj.t
    _, p_leak = leak_series(traj)
    _, conc = concurrence_series(traj)
    clip = lambda a: np.clip(a, 0.0, 1.0)
    cols = [
        tau,
        traj.c1.real, traj.c1.imag,
        traj.c2.real, traj.c2.imag,
        traj.b.real, traj.b.imag,
        clip(traj.p1), clip(traj.p2), clip(traj.pb), p_leak, conc,
    ]
    _write_table(path, TRAJECTORY_COLUMNS, cols)


def _write_sweep_csv(path: str, tau: np.ndarray, k_values, columns) -> None:
    # the K columns go in as one (tau, K) block, so a block of rows is one slice
    _write_table(path, ["tau"] + [f"K={_fmt(k)}" for k in k_values], [tau, np.transpose(columns)])


# CSV rows are turned into Python floats and text in blocks of about this
# many cells, so that no list spanning the whole table is ever held.
_CSV_CELLS = 1 << 12


def _write_table(path: str, header, cols) -> None:
    """Write ``cols`` as CSV columns under ``header``, every cell formatted like :func:`_fmt`.

    Each entry of ``cols`` is one column or a 2-D block of columns, as
    :func:`numpy.column_stack` takes them, with one row per table row.
    """
    row = ",".join(["%.17g"] * len(header)) + "\n"
    block = max(1, _CSV_CELLS // len(header))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(cols[0]), block):
                rows = np.column_stack([c[start:start + block] for c in cols]).tolist()
                fh.writelines(row % tuple(r) for r in rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# run


def _run_trajectory(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float,
    solver: str,
    cfg: dict,
) -> Trajectory:
    samples = cfg["samples"]
    grid = np.linspace(0.0, t_end, samples)
    if solver == "closed":
        with np.errstate(all="ignore"):
            traj = sample_closed_form(params, init, grid)
        _check_closed_form("t_end", t_end, traj.c1, traj.c2, traj.b)
        return traj
    if solver == "ode":
        icfg = IntegratorConfig(rel_tol=cfg["rel_tol"], abs_tol=cfg["abs_tol"])
        try:
            return integrate_pseudomode(params, init, t_end, cfg=icfg, times=grid)
        except StepUnderflowError as exc:
            raise ConfigError(
                f"the adaptive route cannot proceed ({exc}): loosen 'rel_tol' or 'abs_tol'"
            ) from exc
        except StepBudgetError as exc:
            raise _too_many_steps(exc, ", or use --solver closed") from exc
    # the memory-kernel route, the one left
    n_steps = cfg["n_steps"]
    try:
        return sample_volterra(params, init, t_end, n_steps, samples)
    except ValueError as exc:
        raise ConfigError(f"field 'n_steps' = {n_steps} is too few: {exc}") from exc
    except PopulationGrowthError as exc:
        raise _too_coarse(n_steps, t_end, exc) from exc


def _check_closed_form(field: str, t_max: float, *amplitudes: np.ndarray) -> None:
    """Raise :class:`ConfigError` naming ``field`` unless every closed-form amplitude is finite."""
    if not all(np.isfinite(a).all() for a in amplitudes):
        raise ConfigError(
            f"field '{field}' reaches t = {t_max:g}, where the closed form is not finite "
            f"for these parameters: shorten it"
        )


def _too_coarse(n_steps: int, t_end: float, exc: PopulationGrowthError) -> ConfigError:
    """The refusal of a memory-kernel run to ``t_end`` whose population grew, asked
    for with ``n_steps`` steps and run with ``exc.steps``."""
    return ConfigError(
        f"field 'n_steps' = {n_steps} is too coarse for these parameters: {exc} at the step "
        f"t_end / {exc.steps} = {t_end / exc.steps:.3g}; use more steps, or a shorter 't_end'"
    )


def _too_many_steps(exc: StepBudgetError, alternative: str = "") -> ConfigError:
    """The refusal of an adaptive run that used up its step budget short of
    ``t_end``; ``alternative`` follows the advice to lower it."""
    return ConfigError(f"field 't_end' asks for too many steps ({exc}): lower it{alternative}")


def _chart_path(cfg: dict, out: str) -> str | None:
    """The chart path for the CSV ``out`` when ``svg`` is set, else None: ``out``
    with the suffix .svg.  One equal to ``out`` would overwrite the CSV, and is
    refused."""
    if not cfg["svg"]:
        return None
    path = os.path.splitext(out)[0] + ".svg"
    if path == out:
        raise ConfigError(
            f"field 'out' = {out!r} ends in .svg, so the chart would be written over "
            f"the CSV: give the CSV another suffix"
        )
    return path


def _write_chart(path: str, chart, *args, **kwargs) -> None:
    """Draw ``chart(path, *args, **kwargs)``; a path that cannot be written is a
    ConfigError, as for the CSV."""
    try:
        chart(path, *args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    params = params_from_config(cfg)
    init = init_from_config(cfg)
    t_end = _required(cfg, "t_end")
    solver = cfg.get("solver", "ode")
    out = cfg.get("out", "trajectory.csv")
    svg_path = _chart_path(cfg, out)
    traj = _run_trajectory(params, init, t_end, solver, cfg)
    write_trajectory_csv(out, traj)
    print(f"wrote {len(traj)} samples to {out} (solver: {traj.solver_tag})")
    if svg_path:
        tau, conc = concurrence_series(traj)
        tau = params.lam * tau
        _, p_leak = leak_series(traj)
        _write_chart(
            svg_path,
            svgplot.line_chart,
            tau,
            {
                "concurrence": conc,
                "p1 + p2": traj.p1 + traj.p2,
                "pb": traj.pb,
                "p_leak": p_leak,
            },
            title="time evolution",
            xlabel="tau = lam * t",
            ylabel="concurrence / population",
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


# The closed form runs over the K axis in blocks of about this many (K, tau)
# cells, so that a block's (block, 3, tau) arrays stay small whatever the axes.
_SWEEP_CELLS = 1 << 14


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    base = params_from_config(cfg)
    init = init_from_config(cfg)
    tau = _required(cfg, "tau_grid")
    if "K_values" in cfg and "K_rel_values" in cfg:
        raise ConfigError("give 'K_values' or 'K_rel_values', not both")
    if "K_values" in cfg:
        axis = "K_values"
        k_values = cfg[axis]
    elif "K_rel_values" in cfg:
        axis = "K_rel_values"
        k_values = [_finite(axis, v * base.lam) for v in cfg[axis]]
    else:
        raise ConfigError("missing required field 'K_values' (or 'K_rel_values')")
    K = np.asarray(k_values)
    _check_cubic_range(base, K, "R_rel" if "R_rel" in cfg else "W", axis)
    out = cfg.get("out", "sweep.csv")
    svg_path = _chart_path(cfg, out)

    # one concurrence row per dipole strength, from the closed form
    times = tau / base.lam
    block = max(1, _SWEEP_CELLS // times.size)
    z = np.empty((K.size, times.size))
    for start in range(0, K.size, block):
        with np.errstate(all="ignore"):
            c1, c2, _ = evolve_over_K(base, init, K[start:start + block], times)
        _check_closed_form("tau_grid", times[-1], c1, c2)
        z[start:start + block] = concurrence_array(c1, c2)

    _write_sweep_csv(out, tau, k_values, z)
    print(f"wrote {tau.size} x {len(k_values)} sweep to {out}")
    if svg_path:
        _write_chart(
            svg_path, svgplot.heatmap, tau, K, z,
            title="concurrence vs dipole strength",
            xlabel="tau = lam * t", ylabel="K",
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# roots


def cmd_roots(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    params = params_from_config(cfg)
    init = init_from_config(cfg, default="phi_minus")
    cubic = char_cubic(params)
    roots = char_roots(params)
    e1 = sum(roots)
    e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    e3 = roots[0] * roots[1] * roots[2]
    print(
        f"characteristic cubic: s^3 + {cubic.a2:g} s^2 + {cubic.a1:g} s + "
        f"({cubic.a0.real:g}{cubic.a0.imag:+g}i)"
    )
    for i, s in enumerate(roots, start=1):
        print(f"  s_{i} = {s.real:+.12e} {s.imag:+.12e}i   |D(s)| = {abs(cubic(s)):.3e}")
    print(
        "Vieta residuals: "
        f"|e1 + a2| = {abs(e1 + cubic.a2):.3e}, "
        f"|e2 - a1| = {abs(e2 - cubic.a1):.3e}, "
        f"|e3 + a0| = {abs(e3 + cubic.a0):.3e}"
    )
    try:
        verdict = steady_state_verdict(params, init)
    except ValueError as exc:
        # W = 0: two undamped poles on the imaginary axis, and no verdict
        print("surviving pole: not applicable")
        print(f"verdict: not applicable ({exc})")
    else:
        pole = verdict.surviving_pole
        if pole is None:
            print("surviving pole: none")
        else:
            print(f"surviving pole: {pole.real:+.3e} {pole.imag:+.6e}i")
        print(
            f"verdict: {'steady' if verdict.steady else 'fully decaying'} "
            f"(regime {verdict.regime}, asymptotic concurrence "
            f"{verdict.asymptotic_concurrence:.6f})"
        )
    if "out" in cfg:
        _write_table(cfg["out"], ("re_s", "im_s", "abs_D"), [
            [s.real for s in roots],
            [s.imag for s in roots],
            [abs(cubic(s)) for s in roots],
        ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    params = params_from_config(cfg)
    init = init_from_config(cfg)
    t_end = cfg.get("t_end", 10.0)
    n_steps = cfg["n_steps"]
    kernel_sign = -1.0 if args.corrupt_kernel_sign else 1.0

    try:
        comp = compare_solvers(
            params, init, t_end=t_end, n_steps=n_steps, _kernel_sign=kernel_sign
        )
    except StepBudgetError as exc:
        raise _too_many_steps(exc) from exc
    except PopulationGrowthError as exc:
        raise _too_coarse(n_steps, t_end, exc) from exc

    failures = 0
    sup = ("sup-norm", THREE_SOLVER_TOL)
    checks = [  # name, value, what it measures, threshold
        ("closed_form vs pseudomode_ode", comp.closed_vs_ode, *sup),
        ("closed_form vs volterra", comp.closed_vs_volterra, *sup),
        ("pseudomode_ode vs volterra", comp.ode_vs_volterra, *sup),
        ("population-balance identity", comp.balance, "max residual", LEAK_IDENTITY_TOL),
    ]
    for name, val, measure, tol in checks:
        ok = val <= tol
        failures += 0 if ok else 1
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {measure} {val:.3e} (threshold {tol:.0e})")

    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_CHECK_FAILED
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atompair",
        description=(
            "Entanglement dynamics of two dipole-coupled two-level atoms in a "
            "common Lorentzian reservoir"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the config field behind each flag, --t-end for t_end
    flags = {
        "solver": {"choices": ("closed", "ode", "volterra"), "help": "solution route"},
        "out": {"help": "output path (overrides config)"},
        "svg": {"action": "store_true", "help": "also write an SVG chart"},
        "t_end": {"type": float, "help": "integration horizon"},
    }

    def command(name: str, func, **kw) -> argparse.ArgumentParser:
        # a command takes the flags of the fields it reads; one absent sets
        # nothing, so each flag's dest, its field, merges over the file by name
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS, **kw)
        p.set_defaults(func=func)
        p.add_argument("--config", default=None, help="JSON config file")
        for field, spec in flags.items():
            if name in _FIELDS[field][2]:
                p.add_argument("--" + field.replace("_", "-"), **spec)
        return p

    command("run", cmd_run, help="integrate one configuration and write a trajectory CSV")
    command("sweep", cmd_sweep, help="concurrence over a grid of dipole strengths")
    command("roots", cmd_roots, help="report characteristic roots and the steady-state verdict")
    p_verify = command("verify", cmd_verify,
                       help="cross-check the solution routes on one configuration")
    p_verify.add_argument(
        "--corrupt-kernel-sign", action="store_true", default=False, help=argparse.SUPPRESS
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
