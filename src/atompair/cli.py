"""Command-line surface: single runs, parameter sweeps, root reports, verification.

Configuration is a single JSON document; command-line flags override file
values.  Parameters can be given either explicitly (lambda, W, alpha1,
alpha2, K) or dimensionlessly as (R_rel, K_rel, r1) with lambda = 1 implied,
matching how the regimes of interest are usually quoted.

Every config is solved in units of lambda, since the dynamics depends only
on R/lambda, K/lambda, r1 and tau = lambda t, and the library works in those
units (see :mod:`atompair.model`): params_from_config divides the rates by
lambda, the horizons are lambda * t_end, and a sweep's K_values are divided
by lambda.  This is the one module that reads lambda, so the roots that
``roots`` reports are s/lambda and ``verify``'s balance is dP/dtau + 2|b|^2
over the fastest rate in units of lambda.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import concurrence_array, steady_state_verdict
from .closedform import char_cubic, char_roots, evolve_over_K
from .dynamics import StepBudgetError, Trajectory, integrate_pseudomode, sample_closed_form
from .model import InitialAmplitudes, SystemParams, bell_state
from .verification import (
    LEAK_IDENTITY_TOL,
    THREE_SOLVER_TOL,
    PopulationGrowthError,
    compare_solvers,
    sample_volterra,
)
from . import dynamics, svgplot

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

TRAJECTORY_COLUMNS = (
    "tau", "re_c1", "im_c1", "re_c2", "im_c2", "re_b", "im_b",
    "p1", "p2", "pb", "p_leak", "concurrence",
)

# the solution routes ``run`` offers, as the solver field and --solver spell them
_SOLVERS = ("closed", "ode", "volterra")


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


_boolean = _rule(lambda v: isinstance(v, bool), "be true or false")
_nonnegative = _rule(lambda x: x >= 0.0, "be nonnegative", _finite)


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
    "lambda": (_rule(lambda x: x > 0.0, "be positive", _finite), None, _ALL),
    "W": (_nonnegative, None, _ALL),
    "alpha1": (_finite, None, _ALL),
    "alpha2": (_finite, None, _ALL),
    "K": (_finite, None, _ALL),
    "R_rel": (_nonnegative, None, _ALL),
    "K_rel": (_finite, None, _ALL),
    "r1": (_rule(lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]", _finite), None, _ALL),
    "init": (_init, None, _ALL),
    "renormalize": (_boolean, False, _ALL),
    # a subnormal t_end leaves no room for distinct sample times
    "t_end": (_rule(lambda x: x >= sys.float_info.min, "be positive and normal", _finite), None,
              {"run", "verify"}),
    "solver": (_rule(lambda v: v in _SOLVERS, "be one of " + "|".join(_SOLVERS)), None, {"run"}),
    "samples": (_rule(lambda n: n >= 2, "be >= 2", _integer), 2001, {"run"}),
    "n_steps": (_rule(lambda n: n >= 1, "be >= 1", _integer), 20000, {"run", "verify"}),
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
    """The config's parameters in units of lambda: an explicit config's W and
    K are divided by its lambda, and R_rel and K_rel are taken as written."""
    dimless = {"R_rel", "K_rel", "r1"} & set(cfg)
    explicit = {"W", "alpha1", "alpha2", "K"} & set(cfg)
    if dimless and explicit:
        raise ConfigError(
            "give either dimensionless (R_rel, K_rel, r1) or explicit "
            "(W, alpha1, alpha2, K) parameters, not both"
        )
    if dimless:
        r1 = _required(cfg, "r1")
        fields = ("R_rel", "K_rel")
        values = (_required(cfg, "R_rel"), r1, math.sqrt(max(0.0, 1.0 - r1 * r1)),
                  cfg.get("K_rel", 0.0))
    else:
        lam = _required(cfg, "lambda")
        fields = ("W", "K")
        ratios = {k: _required(cfg, k) / lam for k in fields}
        for field, ratio in ratios.items():
            if not math.isfinite(ratio):
                raise ConfigError(f"field '{field}' is too large: {field} / lambda overflows")
        values = (ratios["W"], _required(cfg, "alpha1"), _required(cfg, "alpha2"), ratios["K"])
    try:
        # (W, alpha1, alpha2, K), in SystemParams' order
        params = SystemParams(*values)
    except ValueError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc
    _check_cubic_range(params, [params.K], *fields)
    return params


def _check_cubic_range(params: SystemParams, K, r_field: str, k_field: str) -> None:
    """Refuse parameters outside the range of Cardano's formula, naming a field.

    ``K`` is the array of dipole strengths to check in place of ``params.K``;
    the first one out of range is reported, under whichever of ``r_field``
    (for R) and ``k_field`` is the larger.  Once a cube of the cubic's
    coefficients overflows, the roots come out NaN or the complex cube root
    raises.  In units of lambda the cubic is monic, so only a1 and a0 can;
    its roots sum to -1, so the largest has a size of at least 1/3, and no
    parameter is too small for the formula.
    """
    K = np.asarray(K, dtype=float)
    cubic = char_cubic(params, K)
    coefficients = {"a1": cubic.a1, "a0": cubic.a0}
    with np.errstate(over="ignore"):
        sizes = {name: np.abs(c) for name, c in coefficients.items()}
        overflows = {name: ~np.isfinite(v * v * v) for name, v in sizes.items()}
    bad = overflows["a1"] | overflows["a0"]
    if not bad.any():
        return
    i = int(np.argmax(bad))
    inputs = {r_field: params.R, k_field: float(K[i])}
    largest = max(inputs, key=lambda k: abs(inputs[k]))
    name = "a1" if overflows["a1"][i] else "a0"
    raise ConfigError(
        f"field '{largest}' is too large: the characteristic cubic's coefficient "
        f"{name} = {coefficients[name][i]} overflows when cubed"
    )


def _horizon(cfg: dict, t_end: float) -> float:
    """The horizon ``t_end`` in units of 1/lambda, lambda * t_end; refused,
    naming the field, unless it is a finite normal number."""
    tau = cfg.get("lambda", 1.0) * t_end
    if not sys.float_info.min <= tau < math.inf:
        raise ConfigError(
            f"field 't_end' = {t_end!r} gives lambda * t_end = {tau!r}, "
            f"which is not a finite normal number"
        )
    return tau


def init_from_config(cfg: dict, default: str | None = None) -> InitialAmplitudes:
    value = cfg.get("init", default)
    if value is None:
        raise ConfigError("missing required field 'init'")
    if isinstance(value, str):
        return bell_state(value.removeprefix("phi_"))
    c10, c20 = complex(*value["c10"]), complex(*value["c20"])
    try:
        if cfg.get("renormalize"):
            return InitialAmplitudes.normalized(c10, c20)
        return InitialAmplitudes(c10, c20)
    except ValueError as exc:
        # an off-norm pair's message names the library's rescaling; a config sets a field
        reason = str(exc).replace("use InitialAmplitudes.normalized", 'set "renormalize": true')
        raise ConfigError(f"invalid init: {reason}") from exc


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


def _trajectory_rows(traj: Trajectory, s: slice) -> np.ndarray:
    """The rows ``s`` of the trajectory table, one column per TRAJECTORY_COLUMNS entry."""
    c1, c2, b = traj.c1[s], traj.c2[s], traj.b[s]
    p1, p2, pb = np.abs(c1) ** 2, np.abs(c2) ** 2, np.abs(b) ** 2
    # the leak and the concurrence as leak_series and concurrence_series form them
    p_leak = np.maximum(1.0 - (p1 + p2 + pb), 0.0)
    return np.column_stack((
        traj.t[s],
        c1.real, c1.imag, c2.real, c2.imag, b.real, b.imag,
        *np.clip((p1, p2, pb), 0.0, 1.0), p_leak, concurrence_array(c1, c2),
    ))


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """Write the canonical trajectory table; its times are already tau, in units of 1/lambda.

    The derived columns are formed a block of rows at a time, so only the
    trajectory's own arrays span every sample.  ``run --svg`` draws its
    chart from the same rows, formed only for the samples the chart keeps.
    """
    _write_table(path, TRAJECTORY_COLUMNS, len(traj), functools.partial(_trajectory_rows, traj))


def _write_sweep_csv(path: str, tau: np.ndarray, k_values, columns) -> None:
    # the K columns go in as one (tau, K) block, so a block of rows is one slice
    by_tau = np.transpose(columns)
    _write_table(path, ["tau"] + [f"K={_fmt(k)}" for k in k_values], len(tau),
                 lambda s: np.column_stack((tau[s], by_tau[s])))


# CSV rows are formed and formatted in blocks of about this many cells, so
# that no array or text spanning the whole table is ever held.  _csv_text's
# buffers take about 300 bytes a cell; 8,192 cells a block formatted the
# figure's sweep no faster and doubled the writer's peak, to 2.4 MB.
_CSV_CELLS = 1 << 12


def _write_table(path: str, header, n_rows: int, rows) -> None:
    """Write ``n_rows`` CSV rows under ``header``, every cell formatted like :func:`_fmt`.

    ``rows(s)`` returns the float rows of the slice ``s``, one column per
    header entry; it is asked for about ``_CSV_CELLS`` cells at a time.
    """
    block = max(1, _CSV_CELLS // len(header))
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for start in range(0, n_rows, block):
                fh.write(_csv_text(rows(slice(start, start + block))))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# _csv_text's fast path takes +-0 and a finite |x| in [_FAST_MIN, _FAST_MAX),
# whose decimal exponent E = floor(log10 |x|) lies in [_E_MIN, -_E_MIN]:
# there the double-double power of ten 10^(16 - E) and its split parts are
# finite and normal.  Every other cell goes through '%.17g' itself.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_E_MIN = -281
# a scaled cell whose fraction lies within this of one half is rounded by
# '%.17g' itself; the fast path's error is below 1e-14
_TIE_BAND = 1e-6
# Veltkamp's constant 2^27 + 1, which splits a double into two 26-bit halves
_SPLIT = 134217729.0
# Each cell is laid out in a row of _CSV_WIDTH bytes.  Its first 8 bytes end
# with the first digit, right after the sign and any "0.000", or with the
# first digit and a point; the other sixteen digits follow four to a 4-byte
# word, then the exponent and the separator.
_CSV_WIDTH = 32


@functools.cache
def _decimal_tables() -> dict:
    """The fast path's tables, most of them per decimal exponent E from _E_MIN
    to -_E_MIN.

    ``p_hi`` + ``p_lo`` is 10^(16 - E) to about 2^-106 relative, from exact
    integer arithmetic, and ``p_hi_1`` + ``p_hi_2`` is ``p_hi`` split for
    Dekker's product.  ``int_digits`` counts the digits before the point: 1
    in the exponent form, 0 when the text starts "0.".  ``first`` is the
    column of the first digit, ``start`` that of a positive cell's first
    byte, and ``suffix`` the exponent, "e+XX" or "e-XXX", with ``suffix_len``
    its length, 0 where there is none.  ``prefix[form + 60 * sign + first
    digit]`` is a row's first 8 bytes; ``digits[q]`` is q < 10^4 as four
    ASCII digits, and ``zeros4[q]`` counts q's trailing zeros, 4 for 0.
    ``spans[start * _CSV_WIDTH + end]`` selects the columns start..end of a row.
    """
    E = np.arange(_E_MIN, 1 - _E_MIN)
    p_hi, p_lo = np.empty(E.size), np.empty(E.size)
    for j, e in enumerate(E.tolist()):
        n = 16 - e
        # num / den, the power of ten as a fraction of integers
        num, den = (10 ** n, 1) if n >= 0 else (1, 10 ** -n)
        p_hi[j] = num / den
        hi_num, hi_den = p_hi[j].as_integer_ratio()
        p_lo[j] = (num * hi_den - hi_num * den) / (den * hi_den)
    c = _SPLIT * p_hi
    p_hi_1 = c - (c - p_hi)
    exp_form = (E < -4) | (E > 16)
    int_digits = np.where(exp_form, 1, np.maximum(E + 1, 0))
    zeros = np.where(exp_form, 0, np.maximum(-E, 0))  # "0." and zeros - 1 more
    # a row's first 8 bytes, per prefix form: 0 the first digit alone, 1-4 so
    # many zeros before it, 5 the first digit and a point
    form = np.where(int_digits == 1, 5, zeros)
    first = np.where(form == 5, 6, 7)
    prefix = np.zeros((2, 6, 10, 8), np.uint8)
    for sign in range(2):
        for f in range(6):
            text = "-" * sign + ("0." + "0" * (f - 1) if 0 < f < 5 else "")
            at = 6 if f == 5 else 7
            prefix[sign, f, :, at - len(text):at] = list(text.encode())
            prefix[sign, f, :, at] = np.arange(10) + ord("0")
    prefix[:, 5, :, 7] = ord(".")
    suffix = np.array([list(f"e{e:+03d}".ljust(5).encode()) for e in E.tolist()], np.uint8)
    q = np.arange(10 ** 4)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + ord("0")
    cols = np.arange(_CSV_WIDTH)
    spans = (cols >= cols[:, None, None]) & (cols <= cols[:, None])
    return {
        "p_hi": p_hi, "p_hi_1": p_hi_1, "p_hi_2": p_hi - p_hi_1, "p_lo": p_lo,
        "int_digits": int_digits,
        "first": first,
        "start": first - np.where(zeros > 0, zeros + 1, 0),
        "form": 10 * form,
        "suffix": suffix,
        "suffix_len": np.where(exp_form, 4 + (np.abs(E) >= 100), 0),
        "prefix": prefix.view("<u8").ravel(),
        "digits": digits.astype(np.uint8).view("<u4").ravel(),
        "zeros4": (q % 10 == 0).astype(np.intp) + (q % 100 == 0) + (q % 1000 == 0) + (q == 0),
        "spans": spans.reshape(_CSV_WIDTH ** 2, _CSV_WIDTH),
    }


def _csv_text(block: np.ndarray) -> np.ndarray:
    """The CSV text of the float rows ``block`` as a uint8 array: each cell
    as ``'%.17g' % cell`` writes it, cells joined by commas, rows ended by
    newlines.

    A cell with a finite, moderate |x| takes the 17-digit integer
    round(|x| * 10^(16 - E)) from Dekker's exact product with a double-double
    power of ten (Numer. Math. 18, 1971), correct to 1e-14, and is laid out
    from those digits.  The cells the product cannot settle go through
    ``'%.17g'`` itself: a scaled fraction within _TIE_BAND of one half (so
    exact ties too), an exponent guess that misses, inf, nan, and nonzero
    magnitudes outside [_FAST_MIN, _FAST_MAX).
    """
    t = _decimal_tables()
    block = np.asarray(block, dtype=float)
    n_cols = block.shape[1]
    a = block.ravel()
    x = np.abs(a)
    fast = (x >= _FAST_MIN) & (x < _FAST_MAX)
    x[~fast] = 1.0
    e = (np.floor(np.log10(x)) - _E_MIN).astype(np.intp)  # E - _E_MIN
    # y = x * 10^(16 - E) as hi + lo, with Dekker's error-free product
    p = t["p_hi"].take(e)
    hi = x * p
    c = _SPLIT * x
    x1 = c - (c - x)
    x2 = x - x1
    p1, p2 = t["p_hi_1"].take(e), t["p_hi_2"].take(e)
    lo = (((x1 * p1 - hi) + x1 * p2 + x2 * p1) + x2 * p2) + x * t["p_lo"].take(e)
    # hi is an integer once y >= 2^53; then digits = floor(y) + (frac > 1/2)
    floor_lo = np.floor(lo)
    frac = lo - floor_lo
    digits = hi.astype(np.int64) + floor_lo.astype(np.int64)
    ok = fast & (np.abs(frac - 0.5) >= _TIE_BAND) & (digits >= 10 ** 16)
    digits += frac > 0.5
    # E guessed one low reaches 10^17, and one high stays below 10^16
    ok &= digits < 10 ** 17
    # +-0 is the digits 0 with E = 0, written "0"
    zero = a == 0.0
    digits[zero] = 0
    ok |= zero
    slow = np.flatnonzero(~ok)
    digits[slow] = 10 ** 16

    # the 17 digits as a first digit and four groups of four
    first = digits // 10 ** 16
    rest = digits - first * 10 ** 16
    groups = []
    for scale in (10 ** 12, 10 ** 8, 10 ** 4):
        g = rest // scale
        rest -= g * scale
        groups.append(g)
    groups.append(rest)
    kept = 17 - t["zeros4"].take(groups[3])  # digits up to the last nonzero one
    bare = np.flatnonzero(groups[3] == 0)
    if bare.size:
        trailing = np.full(bare.size, 4)
        going = np.ones(bare.size, bool)
        for g in groups[2::-1]:
            gb = g[bare]
            trailing += going * t["zeros4"].take(gb)
            going &= gb == 0
        kept[bare] = 17 - trailing

    negative = np.signbit(a)
    text = np.empty((a.size, _CSV_WIDTH), np.uint8)
    text.view("<u8")[:, 0] = t["prefix"].take(t["form"].take(e) + 60 * negative + first)
    words = text.view("<u4")
    for j, g in enumerate(groups):
        words[:, 2 + j] = t["digits"].take(g)
    int_digits = t["int_digits"].take(e)
    # from 10 up, a point inside the digits: those after it move one column right
    pointed = np.flatnonzero((int_digits > 1) & (int_digits < 17))
    if pointed.size:
        at = int_digits[pointed, None]
        cols = np.arange(1, 18)
        stay = text[pointed, 8:25]
        moved = text[pointed, 7:24]
        text[pointed, 8:25] = np.where(cols < at, stay, np.where(cols == at, ord("."), moved))
    end = t["first"].take(e) + np.maximum(kept, int_digits) + (
        (kept > int_digits) & (int_digits > 0))
    row_start = np.arange(0, a.size * _CSV_WIDTH, _CSV_WIDTH)
    flat = text.reshape(-1)
    suffix_len = t["suffix_len"].take(e)
    with_exp = np.flatnonzero(suffix_len > 0)
    with_exp = with_exp[ok[with_exp]]
    if with_exp.size:
        at = row_start[with_exp] + end[with_exp]
        flat[at[:, None] + np.arange(5)] = t["suffix"].take(e[with_exp], axis=0)
    end += suffix_len
    start = t["start"].take(e) - negative
    if slow.size:
        # a 24-byte text, at most, from column 6
        cells = ["%.17g" % v for v in a[slow].tolist()]
        text[slow, 6:30] = np.array(cells, dtype="S24").view(np.uint8).reshape(-1, 24)
        start[slow] = 6
        end[slow] = [6 + len(cell) for cell in cells]
    flat[row_start + end] = ord(",")
    flat[row_start[n_cols - 1::n_cols] + end[n_cols - 1::n_cols]] = ord("\n")
    return text[t["spans"].take(start * _CSV_WIDTH + end, axis=0)]


# ---------------------------------------------------------------------------
# run


def _run_trajectory(
    params: SystemParams,
    init: InitialAmplitudes,
    t_end: float,
    solver: str,
    cfg: dict,
) -> Trajectory:
    """The trajectory over the config's ``t_end``, which a refusal quotes; the
    routes run to lambda * t_end, in units of 1/lambda as ``params``' rates are."""
    samples = cfg["samples"]
    tau_end = _horizon(cfg, t_end)
    grid = np.linspace(0.0, tau_end, samples)
    if solver == "closed":
        with np.errstate(all="ignore"):
            traj = sample_closed_form(params, init, grid)
        _check_closed_form("t_end", t_end, traj.c1, traj.c2, traj.b)
        return traj
    # the memory-kernel route takes a step per sample interval at least
    if solver == "volterra" and samples - 1 > dynamics._MAX_VOLTERRA_STEPS:
        raise ConfigError(f"field 'samples' = {samples} asks the memory-kernel route for more "
                          f"than its {dynamics._MAX_VOLTERRA_STEPS} steps, one per interval")
    with _route_refusals(cfg["n_steps"], t_end, ", or use --solver closed"):
        if solver == "ode":
            return integrate_pseudomode(params, init, tau_end, times=grid)
        return sample_volterra(params, init, tau_end, cfg["n_steps"], samples)


def _check_closed_form(field: str, reach: float, *amplitudes: np.ndarray) -> None:
    """Raise :class:`ConfigError` naming ``field``, which reaches ``reach``,
    unless every closed-form amplitude is finite."""
    if not all(np.isfinite(a).all() for a in amplitudes):
        raise ConfigError(
            f"field '{field}' reaches {reach:g}, where the closed form is not finite "
            f"for these parameters: shorten it"
        )


@contextlib.contextmanager
def _route_refusals(n_steps: int, t_end: float, alternative: str = ""):
    """Refuse, naming the field, a route that gives up inside the block: the adaptive
    route's spent step budget names ``t_end``, with ``alternative`` after the advice
    to lower it, and the memory-kernel route's step count, out of range
    (ValueError) or too coarse (PopulationGrowthError), names ``n_steps``."""
    try:
        yield
    except StepBudgetError as exc:
        raise ConfigError(f"field 't_end' asks for too many steps ({exc}, in units of "
                          f"1/lambda): lower it{alternative}") from exc
    except ValueError as exc:
        raise ConfigError(f"field 'n_steps' = {n_steps}, rounded up per sample interval, "
                          f"is out of range: {exc}") from exc
    except PopulationGrowthError as exc:
        raise ConfigError(
            f"field 'n_steps' = {n_steps} is too coarse for these parameters: {exc} at the step "
            f"t_end / {exc.steps} = {t_end / exc.steps:.3g}; use more steps, or a shorter 't_end'"
        ) from exc


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
        # the chart's one thinning: every (n // 1600)-th row, plenty for 880 px
        rows = _trajectory_rows(traj, slice(None, None, max(1, len(traj) // 1600)))
        col = dict(zip(TRAJECTORY_COLUMNS, rows.T))
        _write_chart(
            svg_path,
            svgplot.line_chart,
            col["tau"],
            {
                "concurrence": col["concurrence"],
                "p1 + p2": col["p1"] + col["p2"],
                "pb": col["pb"],
                "p_leak": col["p_leak"],
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
        axis, lam = "K_values", cfg.get("lambda", 1.0)
    elif "K_rel_values" in cfg:
        axis, lam = "K_rel_values", 1.0
    else:
        raise ConfigError("missing required field 'K_values' (or 'K_rel_values')")
    k_values = cfg[axis]
    with np.errstate(over="ignore"):
        K = np.asarray(k_values) / lam
    _check_cubic_range(base, K, "R_rel" if "R_rel" in cfg else "W", axis)
    out = cfg.get("out", "sweep.csv")
    svg_path = _chart_path(cfg, out)

    # one concurrence row per dipole strength, from the closed form
    block = max(1, _SWEEP_CELLS // tau.size)
    z = np.empty((K.size, tau.size))
    for start in range(0, K.size, block):
        with np.errstate(all="ignore"):
            c1, c2, _ = evolve_over_K(base, init, K[start:start + block], tau)
        _check_closed_form("tau_grid", tau[-1], c1, c2)
        z[start:start + block] = concurrence_array(c1, c2)

    _write_sweep_csv(out, tau, k_values, z)
    print(f"wrote {tau.size} x {len(k_values)} sweep to {out}")
    if svg_path:
        _write_chart(
            svg_path, svgplot.heatmap, tau, k_values, z,
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
        f"characteristic cubic: s^3 + 1 s^2 + {cubic.a1:g} s + "
        f"({cubic.a0.real:g}{cubic.a0.imag:+g}i)"
    )
    for i, s in enumerate(roots, start=1):
        print(f"  s_{i} = {s.real:+.12e} {s.imag:+.12e}i   |D(s)| = {abs(cubic(s)):.3e}")
    print(
        "Vieta residuals: "
        f"|e1 + a2| = {abs(e1 + 1.0):.3e}, "
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
        table = np.array([[s.real, s.imag, abs(cubic(s))] for s in roots])
        _write_table(cfg["out"], ("re_s", "im_s", "abs_D"), len(roots), table.__getitem__)
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

    with _route_refusals(n_steps, t_end):
        comp = compare_solvers(
            params, init, t_end=_horizon(cfg, t_end), n_steps=n_steps, _kernel_sign=kernel_sign
        )

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
        "solver": {"choices": _SOLVERS, "help": "solution route"},
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
