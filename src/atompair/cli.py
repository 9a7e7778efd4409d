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
from dataclasses import replace

import numpy as np

from . import __version__
from .analysis import concurrence_series, steady_state_verdict
from .closedform import (
    char_cubic,
    char_roots,
    residue_coefficients,
    surviving_pole,
)
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    integrate_pseudomode,
    integrate_volterra,
    leak_series,
    sample_closed_form,
)
from .model import InitialAmplitudes, SystemParams, bell_state, derive, validate_initial
from .verification import (
    COMPARE_POINTS,
    LEAK_IDENTITY_TOL,
    THREE_SOLVER_TOL,
    compare_solvers,
    leak_identity_residual,
)
from . import svgplot

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

TRAJECTORY_COLUMNS = (
    "tau", "re_c1", "im_c1", "re_c2", "im_c2", "re_b", "im_b",
    "p1", "p2", "pb", "p_leak", "concurrence",
)

_KNOWN_KEYS = {
    "lambda", "W", "alpha1", "alpha2", "K", "omega0",
    "R_rel", "K_rel", "r1",
    "init", "renormalize",
    "t_end", "solver", "samples", "n_steps",
    "rel_tol", "abs_tol", "fixed_dt", "max_step", "sample_stride",
    "out", "svg", "jobs",
    "K_values", "K_rel_values", "tau_grid",
}


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
    unknown = set(cfg) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
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


def _number(cfg: dict, key: str, default: float | None = None) -> float:
    """Finite number field ``key``; required unless ``default`` is given."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required field '{key}'")
        return default
    return _finite(key, cfg[key])


def _integer(cfg: dict, key: str, default: int, minimum: int) -> int:
    """Integer field ``key`` (an integral JSON float counts) of at least ``minimum``."""
    v = cfg.get(key, default)
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"field '{key}' must be an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(f"field '{key}' must be >= {minimum}, got {v}")
    return v


def _number_list(cfg: dict, key: str) -> list[float]:
    value = cfg[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"field '{key}' must be a nonempty list of numbers")
    return [_finite(key, v) for v in value]


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
            lam = _number(cfg, "lambda", 1.0)
            r1 = _number(cfg, "r1")
            if not 0.0 <= r1 <= 1.0:
                raise ConfigError(f"field 'r1' must lie in [0, 1], got {r1}")
            r2 = math.sqrt(max(0.0, 1.0 - r1 * r1))
            fields = ("R_rel", "K_rel")
            params = SystemParams(
                lam=lam,
                W=_number(cfg, "R_rel") * lam,
                alpha1=r1,
                alpha2=r2,
                K=_number(cfg, "K_rel", 0.0) * lam,
                omega0=_number(cfg, "omega0", 0.0),
            )
        else:
            fields = ("W", "K")
            params = SystemParams(
                lam=_number(cfg, "lambda"),
                W=_number(cfg, "W"),
                alpha1=_number(cfg, "alpha1"),
                alpha2=_number(cfg, "alpha2"),
                K=_number(cfg, "K"),
                omega0=_number(cfg, "omega0", 0.0),
            )
    except ValueError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc
    _check_cubic_finite(params, *fields)
    return params


def _check_cubic_finite(params: SystemParams, r_field: str, k_field: str) -> None:
    """Refuse parameters too large for the characteristic cubic, naming the largest input.

    Cardano's formula cubes the cubic's coefficients.  Once one of those
    cubes overflows, the roots come out NaN or the complex cube root raises.
    """
    cubic = char_cubic(params)
    for name, c in (("a2", cubic.a2), ("a1", cubic.a1), ("a0", cubic.a0)):
        size = math.hypot(c.real, c.imag)
        if not math.isfinite(size * size * size):
            inputs = {r_field: derive(params).R, k_field: params.K, "lambda": params.lam}
            field = max(inputs, key=lambda k: abs(inputs[k]))
            raise ConfigError(
                f"field '{field}' is too large: the characteristic cubic's coefficient "
                f"{name} = {c} overflows when cubed"
            )


def init_from_config(cfg: dict, default: str | None = None) -> InitialAmplitudes:
    value = cfg.get("init", default)
    if value is None:
        raise ConfigError("missing required field 'init'")
    if isinstance(value, str):
        if value not in ("phi_plus", "phi_minus"):
            raise ConfigError(
                f"named initial state must be 'phi_plus' or 'phi_minus', got {value!r}"
            )
        return bell_state(value.removeprefix("phi_"))
    if isinstance(value, dict):
        extra = set(value) - {"c10", "c20"}
        if extra:
            raise ConfigError(f"unknown init field(s): {', '.join(sorted(extra))}")
        amps = []
        for key in ("c10", "c20"):
            pair = value.get(key)
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
            ):
                raise ConfigError(f"init field '{key}' must be a [re, im] pair")
            amps.append(complex(pair[0], pair[1]))
        mode = "renormalize" if cfg.get("renormalize", False) else "strict"
        try:
            return validate_initial(InitialAmplitudes(amps[0], amps[1]), mode)
        except ValueError as exc:
            raise ConfigError(f"invalid init: {exc}") from exc
    raise ConfigError("field 'init' must be a state name or {c10, c20} pairs")


def integrator_from_config(cfg: dict) -> IntegratorConfig:
    # max_step alone may be Infinity, its default (no cap on the step)
    max_step = cfg.get("max_step", math.inf)
    if max_step != math.inf:
        max_step = _finite("max_step", max_step)
        if max_step <= 0.0:
            raise ConfigError(f"field 'max_step' must be positive, got {max_step}")
    try:
        return IntegratorConfig(
            rel_tol=_number(cfg, "rel_tol", 1e-9),
            abs_tol=_number(cfg, "abs_tol", 1e-12),
            dt=_number(cfg, "fixed_dt") if cfg.get("fixed_dt") is not None else None,
            max_step=max_step,
            sample_stride=_integer(cfg, "sample_stride", 1, 1),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid integrator settings: {exc}") from exc


def _merged_config(args: argparse.Namespace) -> dict:
    cfg = load_config(args.config) if args.config else {}
    overrides = {
        "out": getattr(args, "out", None),
        "solver": getattr(args, "solver", None),
        "t_end": getattr(args, "t_end", None),
        "fixed_dt": getattr(args, "fixed_dt", None),
        "jobs": getattr(args, "jobs", None),
    }
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    if getattr(args, "svg", False):
        cfg["svg"] = True
    return cfg


# ---------------------------------------------------------------------------
# CSV emission


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """Write the canonical trajectory table; tau is lam * t."""
    lam = traj.params.lam
    tau = lam * traj.t
    p1, p2, pb = traj.p1, traj.p2, traj.pb
    _, p_leak = leak_series(traj)
    conc = np.minimum(2.0 * np.abs(traj.c1) * np.abs(traj.c2), 1.0)
    clip = lambda a: np.clip(a, 0.0, 1.0)
    cols = [
        tau,
        traj.c1.real, traj.c1.imag,
        traj.c2.real, traj.c2.imag,
        traj.b.real, traj.b.imag,
        clip(p1), clip(p2), clip(pb), p_leak, conc,
    ]
    _write_table(path, TRAJECTORY_COLUMNS, cols)


def _write_sweep_csv(path: str, tau: np.ndarray, k_values, columns) -> None:
    _write_table(path, ["tau"] + [f"K={_fmt(k)}" for k in k_values], [tau, *columns])


def _write_table(path: str, header, cols) -> None:
    """Write ``cols`` as CSV columns under ``header``, every cell formatted like :func:`_fmt`."""
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(row % tuple(r) for r in np.column_stack(cols).tolist())
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# run


def _run_trajectory(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float,
    solver: str,
    cfg_json: dict,
) -> Trajectory:
    samples = _integer(cfg_json, "samples", 2001, 2)
    grid = np.linspace(0.0, t_end, samples)
    icfg = integrator_from_config(cfg_json)
    if solver == "closed":
        return sample_closed_form(params, init, grid)
    if solver == "ode":
        if icfg.dt is not None:
            return integrate_pseudomode(params, init, t_end, cfg=icfg)
        return integrate_pseudomode(params, init, t_end, cfg=icfg, times=grid)
    if solver == "volterra":
        n_steps = _integer(cfg_json, "n_steps", 20000, 1)
        per = max(1, math.ceil(n_steps / (samples - 1)))
        traj = integrate_volterra(params, init, t_end, per * (samples - 1))
        # dP/dt = -2 lam |b|^2 <= 0: growth means the step outran the fastest rate
        peak = float(traj.tracked_population.max())
        if not peak <= 1.0 + 1e-6:
            raise ConfigError(
                f"field 'n_steps' = {n_steps} is too coarse for these parameters: the "
                f"memory-kernel route's tracked population grew to {peak:.3e}; use more steps"
            )
        idx = slice(None, None, per)
        return Trajectory(
            params=params,
            derived=traj.derived,
            init=init,
            t=traj.t[idx],
            c1=traj.c1[idx],
            c2=traj.c2[idx],
            b=traj.b[idx],
            solver_tag="volterra",
        )
    raise ConfigError(
        f"solver for 'run' must be one of closed|ode|volterra, got {solver!r}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    params = params_from_config(cfg)
    init = init_from_config(cfg)
    if "t_end" not in cfg:
        raise ConfigError("missing required field 't_end' (or --t-end)")
    t_end = _number(cfg, "t_end")
    if t_end <= 0.0:
        raise ConfigError(f"field 't_end' must be positive, got {t_end}")
    solver = cfg.get("solver", "ode")
    traj = _run_trajectory(params, init, t_end, solver, cfg)
    out = cfg.get("out", "trajectory.csv")
    write_trajectory_csv(out, traj)
    print(f"wrote {len(traj)} samples to {out} (solver: {traj.solver_tag})")
    if cfg.get("svg", False):
        svg_path = os.path.splitext(out)[0] + ".svg"
        tau, conc = concurrence_series(traj)
        tau = params.lam * tau
        _, p_leak = leak_series(traj)
        svgplot.line_chart(
            svg_path,
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
        print(f"wrote {svg_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _sweep_column(params: SystemParams, init: InitialAmplitudes, times: np.ndarray) -> np.ndarray:
    """Concurrence column for one dipole strength, from the closed form."""
    c1, c2, _ = residue_coefficients(params, init).evolve(times)
    return np.minimum(2.0 * np.abs(c1) * np.abs(c2), 1.0)


def _tau_grid_from_config(cfg: dict) -> np.ndarray:
    value = cfg.get("tau_grid")
    if value is None:
        raise ConfigError("missing required field 'tau_grid'")
    if (
        isinstance(value, (list, tuple))
        and len(value) == 3
        and isinstance(value[2], int)
        and not isinstance(value[2], bool)
    ):
        start, stop, num = _finite("tau_grid", value[0]), _finite("tau_grid", value[1]), value[2]
        if num < 2 or stop <= start or start < 0.0:
            raise ConfigError("field 'tau_grid' [start, stop, num] must satisfy 0 <= start < stop, num >= 2")
        return np.linspace(start, stop, num)
    if isinstance(value, (list, tuple)) and value:
        grid = np.array([_finite("tau_grid", v) for v in value])
        if np.any(np.diff(grid) <= 0.0) or grid[0] < 0.0:
            raise ConfigError("field 'tau_grid' must be strictly increasing and nonnegative")
        return grid
    raise ConfigError("field 'tau_grid' must be [start, stop, num] or a nonempty list")


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    base = params_from_config(cfg)
    init = init_from_config(cfg)
    tau = _tau_grid_from_config(cfg)
    if "K_values" in cfg and "K_rel_values" in cfg:
        raise ConfigError("give 'K_values' or 'K_rel_values', not both")
    if "K_values" in cfg:
        axis = "K_values"
        k_values = _number_list(cfg, axis)
    elif "K_rel_values" in cfg:
        axis = "K_rel_values"
        k_values = [_finite(axis, v * base.lam) for v in _number_list(cfg, axis)]
    else:
        raise ConfigError("missing required field 'K_values' (or 'K_rel_values')")
    # accepted so that existing command lines keep working; sweeps run in
    # one process, since the columns cost less than a worker pool's start-up
    _integer(cfg, "jobs", 1, 1)
    points = [replace(base, K=k) for k in k_values]
    r_field = "R_rel" if "R_rel" in cfg else "W"
    for p in points:
        _check_cubic_finite(p, r_field, axis)

    times = tau / base.lam
    columns = [_sweep_column(p, init, times) for p in points]

    out = cfg.get("out", "sweep.csv")
    _write_sweep_csv(out, tau, k_values, columns)
    print(f"wrote {tau.size} x {len(k_values)} sweep to {out}")
    if cfg.get("svg", False):
        svg_path = os.path.splitext(out)[0] + ".svg"
        z = np.vstack(columns)
        svgplot.heatmap(
            svg_path, tau, np.asarray(k_values), z,
            title="concurrence vs dipole strength",
            xlabel="tau = lam * t", ylabel="K",
        )
        print(f"wrote {svg_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# roots


def cmd_roots(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    params = params_from_config(cfg)
    init = init_from_config(cfg, default="phi_minus")
    cubic = char_cubic(params)
    roots = char_roots(params)
    e1 = sum(roots.roots)
    e2 = (
        roots.roots[0] * roots.roots[1]
        + roots.roots[0] * roots.roots[2]
        + roots.roots[1] * roots.roots[2]
    )
    e3 = roots.roots[0] * roots.roots[1] * roots.roots[2]
    print(
        f"characteristic cubic: s^3 + {cubic.a2:g} s^2 + {cubic.a1:g} s + "
        f"({cubic.a0.real:g}{cubic.a0.imag:+g}i)"
    )
    for i, s in enumerate(roots.roots, start=1):
        print(f"  s_{i} = {s.real:+.12e} {s.imag:+.12e}i   |D(s)| = {abs(cubic(s)):.3e}")
    print(
        "Vieta residuals: "
        f"|e1 + a2| = {abs(e1 + cubic.a2):.3e}, "
        f"|e2 - a1| = {abs(e2 - cubic.a1):.3e}, "
        f"|e3 + a0| = {abs(e3 + cubic.a0):.3e}"
    )
    try:
        verdict = steady_state_verdict(params, init)
        pole = verdict.surviving_pole
        verdict_line = (
            f"verdict: {'steady' if verdict.steady else 'fully decaying'} "
            f"(regime {verdict.regime}, asymptotic concurrence "
            f"{verdict.asymptotic_concurrence:.6f})"
        )
    except ValueError as exc:
        # no analytic verdict (W = 0): report the numerically located pole
        pole = surviving_pole(roots, params.lam)
        verdict_line = f"verdict: not applicable ({exc})"
    if pole is None:
        print("surviving pole: none")
    else:
        print(f"surviving pole: {pole.real:+.3e} {pole.imag:+.6e}i")
    print(verdict_line)
    if cfg.get("out"):
        _write_table(cfg["out"], ("re_s", "im_s", "abs_D"), [
            [s.real for s in roots.roots],
            [s.imag for s in roots.roots],
            [abs(cubic(s)) for s in roots.roots],
        ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    params = params_from_config(cfg)
    init = init_from_config(cfg)
    t_end = _number(cfg, "t_end", 10.0)
    if t_end <= 0.0:
        raise ConfigError(f"field 't_end' must be positive, got {t_end}")
    n_steps = _integer(cfg, "n_steps", 20000, COMPARE_POINTS - 1)
    if n_steps % (COMPARE_POINTS - 1):
        raise ConfigError(
            f"field 'n_steps' must be a multiple of {COMPARE_POINTS - 1} for 'verify', got {n_steps}"
        )
    solver = cfg.get("solver", "all")
    if solver not in ("closed", "ode", "volterra", "all"):
        raise ConfigError(
            f"solver for 'verify' must be one of closed|ode|volterra|all, got {solver!r}"
        )
    kernel_sign = -1.0 if args.corrupt_kernel_sign else 1.0

    failures = 0

    comp = compare_solvers(
        params, init, t_end=t_end, n_steps=n_steps, _kernel_sign=kernel_sign
    )
    pairs = [
        ("closed_form vs pseudomode_ode", ("closed", "ode"), comp.closed_vs_ode),
        ("closed_form vs volterra", ("closed", "volterra"), comp.closed_vs_volterra),
        ("pseudomode_ode vs volterra", ("ode", "volterra"), comp.ode_vs_volterra),
    ]
    for name, members, val in pairs:
        if solver != "all" and solver not in members:
            continue
        ok = val <= THREE_SOLVER_TOL
        failures += 0 if ok else 1
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: sup-norm {val:.3e} "
              f"(threshold {THREE_SOLVER_TOL:.0e})")

    if solver in ("all", "ode"):
        leak_t_end = min(t_end, 10.0)
        resid = leak_identity_residual(params, init, t_end=leak_t_end)
        ok = resid <= LEAK_IDENTITY_TOL
        failures += 0 if ok else 1
        print(f"[{'PASS' if ok else 'FAIL'}] population-balance identity: "
              f"max residual {resid:.3e} (threshold {LEAK_IDENTITY_TOL:.0e})")

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

    def common(p: argparse.ArgumentParser, solver_choices=None) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (overrides config)")
        p.add_argument("--svg", action="store_true", help="also write an SVG chart")
        if solver_choices:
            p.add_argument("--solver", choices=solver_choices, help="solution route")
        p.add_argument("--jobs", type=int,
                       help="accepted for compatibility; has no effect (sweeps run in one process)")
        p.add_argument("--t-end", dest="t_end", type=float, help="integration horizon")
        p.add_argument("--fixed-dt", dest="fixed_dt", type=float,
                       help="fixed RK4 step (reproducible grids)")

    p_run = sub.add_parser("run", help="integrate one configuration and write a trajectory CSV")
    common(p_run, solver_choices=("closed", "ode", "volterra"))
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="concurrence over a grid of dipole strengths")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_roots = sub.add_parser("roots", help="report characteristic roots and the steady-state verdict")
    common(p_roots)
    p_roots.set_defaults(func=cmd_roots)

    p_verify = sub.add_parser("verify", help="cross-check the solution routes on one configuration")
    common(p_verify, solver_choices=("closed", "ode", "volterra", "all"))
    p_verify.add_argument(
        "--corrupt-kernel-sign", action="store_true", help=argparse.SUPPRESS
    )
    p_verify.set_defaults(func=cmd_verify)
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
