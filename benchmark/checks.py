"""Output checks against a reference that shares no code with atompair.

The README's equations of motion (lambda = 1, and W alpha_j = R_rel r_j)

    dc1/dt = -i R r1 b - i K c2
    dc2/dt = -i R r2 b - i K c1
    db/dt  = -lambda b - i R (r1 c1 + r2 c2)

form one constant 3x3 matrix M, so the exact solution is
y(t) = expm(M t) y0.  It is evaluated with ``scipy.linalg.expm``, not with the
package's Cardano roots or its ``solve_ivp`` route.  Every check returns a list
of messages; an empty list means the output passed.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np
from scipy.linalg import expm

from workloads import SAMPLES, SWEEP_K_REL, SWEEP_TAU, T_END, Call

# The package's three-solver tolerance.
TOL = 1e-5
# 2|c1||c2| recomputed from the printed amplitudes; only rounding differs.
CONCURRENCE_IDENTITY_TOL = 1e-12

TRAJECTORY_HEADER = (
    "tau,re_c1,im_c1,re_c2,im_c2,re_b,im_b,p1,p2,pb,p_leak,concurrence"
)


def system_matrix(point: dict) -> np.ndarray:
    """M of dy/dt = M y for y = (c1, c2, b), with lambda = 1."""
    R, K, r1 = point["R_rel"], point["K_rel"], point["r1"]
    r2 = math.sqrt(max(0.0, 1.0 - r1 * r1))
    return np.array(
        [
            [0.0, -1j * K, -1j * R * r1],
            [-1j * K, 0.0, -1j * R * r2],
            [-1j * R * r1, -1j * R * r2, -1.0],
        ]
    )


def initial_vector(point: dict) -> np.ndarray:
    init = point["init"]
    if init == "phi_plus":
        c10, c20 = 1.0, 1.0
    elif init == "phi_minus":
        c10, c20 = 1.0, -1.0
    else:
        c10, c20 = complex(*init["c10"]), complex(*init["c20"])
    y0 = np.array([c10, c20, 0.0], dtype=complex)
    return y0 / np.linalg.norm(y0)


def reference(point: dict, tau) -> np.ndarray:
    """Exact (c1, c2, b) at each tau, shape (len(tau), 3)."""
    tau = np.asarray(tau, dtype=float)
    props = expm(system_matrix(point)[None] * tau[:, None, None])
    return props @ initial_vector(point)


def _read_table(path: str, header: str | None) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header is not None and first != header:
        raise ValueError(f"{path}: header {first[:80]!r} is not {header!r}")
    return first.split(","), data


def check_trajectory(point: dict, path: str, rng, rows: int, t_end: float) -> list[str]:
    """Sampled cells against expm, then the concurrence and population properties."""
    try:
        _, data = _read_table(path, TRAJECTORY_HEADER)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    errors = []
    if data.shape != (rows, 12):
        return [f"{path}: shape {data.shape}, expected ({rows}, 12)"]
    if not np.all(np.isfinite(data)):
        return [f"{path}: non-finite cells"]
    tau = data[:, 0]
    if tau[0] != 0.0 or abs(tau[-1] - t_end) > 1e-12 * t_end:
        errors.append(f"{path}: tau runs from {tau[0]} to {tau[-1]}, expected 0 to {t_end}")
    c1 = data[:, 1] + 1j * data[:, 2]
    c2 = data[:, 3] + 1j * data[:, 4]
    b = data[:, 5] + 1j * data[:, 6]

    idx = sorted({0, rows - 1, *rng.sample(range(rows), 14)})
    ref = reference(point, tau[idx])
    got = np.stack([c1[idx], c2[idx], b[idx]], axis=1)
    worst = float(np.abs(got - ref).max())
    if worst > TOL:
        errors.append(f"{path}: amplitudes differ from expm by {worst:.3e}")
    ref_conc = np.minimum(2.0 * np.abs(ref[:, 0]) * np.abs(ref[:, 1]), 1.0)
    worst = float(np.abs(data[idx, 11] - ref_conc).max())
    if worst > TOL:
        errors.append(f"{path}: concurrence differs from expm by {worst:.3e}")

    conc = data[:, 11]
    identity = np.minimum(2.0 * np.abs(c1) * np.abs(c2), 1.0)
    worst = float(np.abs(conc - identity).max())
    if worst > CONCURRENCE_IDENTITY_TOL:
        errors.append(f"{path}: concurrence differs from 2|c1||c2| by {worst:.3e}")
    if conc.min() < 0.0 or conc.max() > 1.0:
        errors.append(f"{path}: concurrence leaves [0, 1]")
    pop = data[:, 7] + data[:, 8] + data[:, 9]
    rise = float((pop - np.minimum.accumulate(pop)).max())
    if rise > TOL:
        errors.append(f"{path}: tracked population rises by {rise:.3e}")
    return errors


def check_sweep(point: dict, k_rel: list[float], tau: np.ndarray, path: str, rng) -> list[str]:
    """Sampled concurrence cells of a tau x K table against expm."""
    try:
        header, data = _read_table(path, None)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if data.shape != (tau.size, len(k_rel) + 1):
        return [f"{path}: shape {data.shape}, expected ({tau.size}, {len(k_rel) + 1})"]
    errors = []
    if header[0] != "tau" or [float(h.removeprefix("K=")) for h in header[1:]] != k_rel:
        errors.append(f"{path}: header does not list the K axis")
    if np.abs(data[:, 0] - tau).max() > 1e-12 * tau[-1]:
        errors.append(f"{path}: tau column is not the requested grid")
    conc = data[:, 1:]
    if not np.all(np.isfinite(conc)) or conc.min() < 0.0 or conc.max() > 1.0:
        errors.append(f"{path}: concurrence not finite or outside [0, 1]")
    worst = 0.0
    for _ in range(8):
        j = rng.randrange(len(k_rel))
        rows = sorted(rng.sample(range(tau.size), 4))
        ref = reference({**point, "K_rel": k_rel[j]}, tau[rows])
        ref_conc = np.minimum(2.0 * np.abs(ref[:, 0]) * np.abs(ref[:, 1]), 1.0)
        worst = max(worst, float(np.abs(conc[rows, j] - ref_conc).max()))
    if worst > TOL:
        errors.append(f"{path}: concurrence differs from expm by {worst:.3e}")
    return errors


def check_svg(path: str, element: str) -> list[str]:
    """A complete SVG document that draws at least one ``element``."""
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        return [str(exc)]
    if not (text.startswith(b"<svg") and text.rstrip().endswith(b"</svg>")):
        return [f"{path}: not a complete SVG document"]
    if f"<{element} ".encode() not in text:
        return [f"{path}: draws no <{element}>"]
    return []


def _verify_lines(stdout: str) -> list[str]:
    """``verify`` must print only [PASS] lines, at least the three solver pairs
    and the population balance, each within its threshold."""
    lines = stdout.splitlines()
    checks = [ln for ln in lines if ln.startswith("[")]
    errors = []
    if lines != checks + ["all checks passed"]:
        errors.append(f"verify printed more than [PASS] lines: {stdout!r}")
    if len(checks) < 4 or not all(ln.startswith("[PASS] ") for ln in checks):
        errors.append(f"verify did not pass all four checks: {checks}")
    for ln in checks:
        m = re.search(r"(?:sup-norm|residual) (\S+) \(threshold (\S+)\)$", ln)
        if m is None or not float(m[1]) <= float(m[2]):
            errors.append(f"verify line without a value within its threshold: {ln}")
    return errors


def check_call(call: Call, point: dict, rc: int, stdout: str, rng) -> list[str]:
    """Check one CLI call's stdout and files; ``rc`` matters only for ``corrupt``,
    since the other calls are checked only after they exited 0."""
    if call.check == "corrupt":
        if rc != 1 or not any(ln.startswith("[FAIL]") for ln in stdout.splitlines()):
            return [f"corrupted kernel sign went undetected (exit {rc}): {stdout!r}"]
        return []
    if call.check == "verify":
        return _verify_lines(stdout)
    errors = []
    if call.solver_tags and not any(f"(solver: {t})" in stdout for t in call.solver_tags):
        errors.append(f"expected solver {' or '.join(call.solver_tags)}: {stdout!r}")
    if call.check == "trajectory":
        errors += check_trajectory(point, call.out, rng, SAMPLES, T_END)
    else:
        errors += check_sweep(point, SWEEP_K_REL, np.linspace(*SWEEP_TAU), call.out, rng)
    if call.svg:
        errors += check_svg(os.path.splitext(call.out)[0] + ".svg", call.svg)
    return errors
