"""The workloads: seeded inputs and the CLI calls that make up one operation.

Only the standard library is imported here, so that a fresh interpreter can
write its first operation's inputs before the timed ``import atompair.cli``.

The first operation of every run is the README's reference case, the same for
every seed, so that ``setup_s`` compares like with like.  The timed
operations then repeat one round of parameter points for the whole run: the
first points of a Halton sequence over R_rel in [0.5, 20], K_rel in [-20, 20]
and r1 in (0, 1), each coordinate moved by a seeded jitter of at most
HALTON_JITTER / 2 of its range.  The Halton points spread over the box, and
the jitter is too small to change which points are cheap or costly, so every
run holds the same mix of operations whatever its seed.  The initial state
cycles through phi_plus, phi_minus, random, random.  A ``trajectory`` round
adds one point that lies exactly on the double-root set K = 0, R = lambda/2.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("trajectory", "verify", "figure")

R_REL = (0.5, 20.0)
K_REL = (-20.0, 20.0)
HALTON_BASES = (2, 3, 5)  # R_rel, K_rel, r1
HALTON_JITTER = 1.0 / 32
HALTON_PER_ROUND = {"trajectory": 4, "verify": 4, "figure": 2}
INIT_KINDS = ("phi_plus", "phi_minus", "random", "random")
DOUBLE_ROOT = {"R_rel": 0.5, "K_rel": 0.0}  # K = 0, R = lambda/2
REFERENCE = {"R_rel": 10.0, "K_rel": 2.0, "r1": math.sqrt(3.0) / 2.0, "init": "phi_minus"}

T_END = 10.0
SAMPLES = 2001
FIXED_DT = 1e-3
SAMPLE_STRIDE = 5  # keeps the fixed-step CSV at SAMPLES rows
SWEEP_K_REL = [K_REL[0] + (K_REL[1] - K_REL[0]) * i / 400 for i in range(401)]
SWEEP_TAU = [0.0, T_END, 301]


@dataclass(frozen=True)
class Call:
    """One ``atompair.cli.main(argv)`` call and what its output must satisfy."""

    argv: tuple[str, ...]
    check: str  # trajectory | sweep | verify | corrupt
    out: str | None = None
    svg: str | None = None  # element the SVG next to ``out`` must draw
    solver_tags: tuple[str, ...] = ()  # stdout must name one of these solvers


@dataclass(frozen=True)
class Op:
    """One timed operation: a parameter point and the calls run on it."""

    point: dict
    calls: tuple[Call, ...]
    check_seed: str


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * f
        f /= base
    return inv


def _random_init(rng: random.Random) -> dict:
    v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(x * x for x in v))
    return {"c10": [v[0] / n, v[1] / n], "c20": [v[2] / n, v[3] / n]}


class Workload:
    """Writes each operation's configs into ``workdir`` and lists the operations."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.workdir = name, seed, workdir
        # the run's points, repeated in every round; a trajectory round adds
        # one double-root point to its Halton points
        self.points = [self._halton_point(j) for j in range(HALTON_PER_ROUND[name])]
        if name == "trajectory":
            self.points.append(self._double_root_point())

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _config(self, name: str, cfg: dict) -> str:
        path = self._path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path

    def _op(self, point: dict, slot: int, check_seed: str) -> Op:
        # configs are named by the op's slot in its round, so that writing a
        # round's configs up front overwrites none of them
        calls = getattr(self, f"_{self.name}_op")(point, f"{slot}.json")
        return Op(point, tuple(calls), check_seed)

    def _init(self, rng: random.Random, i: int):
        kind = INIT_KINDS[i % len(INIT_KINDS)]
        return kind if kind != "random" else _random_init(rng)

    def _halton_point(self, j: int) -> dict:
        rng = random.Random(f"atompair-bench/{self.name}/{self.seed}/{j}")
        u = [_radical_inverse(j + 1, b) + HALTON_JITTER * (rng.random() - 0.5)
             for b in HALTON_BASES]
        u = [min(max(x, 1e-3), 1.0 - 1e-3) for x in u]
        return {
            "R_rel": R_REL[0] + (R_REL[1] - R_REL[0]) * u[0],
            "K_rel": K_REL[0] + (K_REL[1] - K_REL[0]) * u[1],
            "r1": u[2],
            "init": self._init(rng, j),
        }

    def _double_root_point(self) -> dict:
        rng = random.Random(f"atompair-bench/{self.name}/{self.seed}/double-root/0")
        return {**DOUBLE_ROOT, "r1": rng.uniform(0.05, 0.95), "init": self._init(rng, 0)}

    def first(self) -> Op:
        """The reference case; its cost is the same for every seed."""
        return self._op(REFERENCE, 0, f"{self.seed}/first")

    def round(self, index: int) -> list[Op]:
        """One operation on each of the run's points; slot k is point k."""
        return [self._op(p, k, f"{self.seed}/{index}/{k}") for k, p in enumerate(self.points)]

    def corrupt_call(self, point: dict) -> Call:
        """``verify --corrupt-kernel-sign``, which must report a failure."""
        cfg = self._config("corrupt.json", point)
        return Call(("verify", "--config", cfg, "--corrupt-kernel-sign"), "corrupt")

    def _run_config(self, point: dict, suffix: str) -> str:
        return self._config("run" + suffix, {
            **point, "t_end": T_END, "samples": SAMPLES, "sample_stride": SAMPLE_STRIDE,
        })

    def _sweep_config(self, point: dict, suffix: str) -> str:
        cfg = {k: point[k] for k in ("R_rel", "r1", "init")}
        return self._config("sweep" + suffix, {
            **cfg, "K_rel_values": SWEEP_K_REL, "tau_grid": SWEEP_TAU,
        })

    def _trajectory_op(self, point: dict, suffix: str):
        cfg = self._run_config(point, suffix)
        # today the closed form refuses the double root and falls back to RK45;
        # a closed form that handles it is just as correct
        double_root = all(point[k] == v for k, v in DOUBLE_ROOT.items())
        closed_tags = ("closed_form", "pseudomode_ode") if double_root else ("closed_form",)
        routes = (
            ("closed", (), closed_tags),
            ("ode", (), ("pseudomode_ode",)),
            ("ode", ("--fixed-dt", repr(FIXED_DT)), ("pseudomode_ode",)),
            ("volterra", (), ("volterra",)),
        )
        for k, (solver, extra, tags) in enumerate(routes):
            out = self._path(f"run_{k}_{solver}.csv")
            yield Call(("run", "--config", cfg, "--solver", solver, *extra, "--out", out),
                       "trajectory", out, solver_tags=tags)

    def _verify_op(self, point: dict, suffix: str):
        yield Call(("verify", "--config", self._config("verify" + suffix, point)), "verify")

    def _figure_op(self, point: dict, suffix: str):
        out = self._path("figure_sweep.csv")
        yield Call(("sweep", "--config", self._sweep_config(point, suffix), "--out", out, "--svg"),
                   "sweep", out, svg="rect")
        out = self._path("figure_run.csv")
        yield Call(("run", "--config", self._run_config(point, suffix), "--solver", "closed",
                    "--out", out, "--svg"),
                   "trajectory", out, svg="polyline", solver_tags=("closed_form",))
