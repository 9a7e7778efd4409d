"""Spans around the package's functions, recorded from outside the package.

``install`` replaces each public function of the traced modules, plus a few
private stages that the per-layer metrics need, by a wrapper that records a
span.  The wrapper is bound under every name an ``atompair`` module looks the
function up by, because ``cli``, ``dynamics`` and ``verification`` import
functions by name.  Nothing in ``src/`` changes.

``sweep`` fans its columns out to a process pool that forks.  A forked worker
appends its spans to a spool file of its own, and the parent merges the spool
files after each operation (``collect``), so the worker-side ``closedform``
spans are counted too.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import os
import sys
import time

TRACED_MODULES = ("closedform", "dynamics", "verification", "cli", "svgplot")


def _nbytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _csv(args, kwargs, result) -> dict:
    return {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}


def _evolve(args, kwargs, result) -> dict:
    t = args[1] if len(args) > 1 else kwargs["t"]
    return {"samples": int(getattr(t, "size", 1))}


# span name -> function of (args, kwargs, result) giving the span's counts
COUNTS = {
    "closedform.ResidueSolution.evolve": _evolve,
    "dynamics.rk45": lambda a, k, r: {"samples": int(r.t.size)},
    "dynamics.rk4": lambda a, k, r: {"steps": int(r[0].size - 1)},
    "dynamics.integrate_volterra": lambda a, k, r: {"steps": int(r.t.size - 1)},
    "cli.write_trajectory_csv": _csv,
    "cli._write_sweep_csv": _csv,
    "svgplot.heatmap": _nbytes,
    "svgplot.line_chart": _nbytes,
}

# private or foreign callables traced besides the public functions:
# (module, attribute, span name); one the package no longer has is skipped
EXTRA = (
    ("dynamics", "solve_ivp", "dynamics.rk45"),
    ("dynamics", "_rk4_fixed", "dynamics.rk4"),
    ("cli", "_write_sweep_csv", "cli._write_sweep_csv"),
)


class Tracer:
    """Records spans in memory: (op, name, start, end, self seconds, counts)."""

    def __init__(self, spool_dir: str):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list[float]] = []
        self._spool_dir = spool_dir
        self._spool = None

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._finish(name, start, child, {"error": type(exc).__name__})
                raise
            self._finish(name, start, child, counts(args, kwargs, result) if counts else {})
            return result

        return traced

    def _finish(self, name: str, start: float, child: list[float], extra: dict) -> None:
        end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += end - start
        span = (self.op, name, start, end, end - start - child[0], extra)
        if self._spool is None:
            self.spans.append(span)
        else:
            self._spool.write(json.dumps(span) + "\n")
            self._spool.flush()

    def _after_fork(self) -> None:
        # pool workers end with os._exit, so every span is flushed as written
        self._stack = []
        self.spans = []
        path = os.path.join(self._spool_dir, f"spans-{os.getpid()}.jsonl")
        self._spool = open(path, "a", encoding="utf-8")

    def collect(self) -> None:
        """Merge and delete the spool files of forked workers."""
        for path in glob.glob(os.path.join(self._spool_dir, "spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)
            os.remove(path)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(spool_dir: str) -> Tracer:
    """Wrap the traced callables of the already imported ``atompair`` package."""
    tracer = Tracer(spool_dir)
    package = sys.modules["atompair"]
    targets = []  # (original, wrapper)
    for short in TRACED_MODULES:
        mod = sys.modules.get(f"atompair.{short}")
        for attr, obj in vars(mod).items() if mod else ():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                targets.append((obj, tracer.wrap(f"{short}.{attr}", obj)))
    for short, attr, name in EXTRA:
        obj = getattr(sys.modules.get(f"atompair.{short}"), attr, None)
        if obj is not None:
            targets.append((obj, tracer.wrap(name, obj)))
    solution = getattr(sys.modules.get("atompair.closedform"), "ResidueSolution", None)
    if solution is not None:
        solution.evolve = tracer.wrap("closedform.ResidueSolution.evolve", solution.evolve)

    modules = [package] + [m for n, m in sys.modules.items() if n.startswith("atompair.")]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            for original, wrapper in targets:
                if obj is original:
                    setattr(mod, attr, wrapper)
    os.register_at_fork(after_in_child=tracer._after_fork)
    return tracer


def _sum(spans, name: str, field: str | None = None) -> float:
    if field is None:
        return float(sum(s[3] - s[2] for s in spans if s[1] == name))
    if field == "self":
        return float(sum(s[4] for s in spans if s[1] == name))
    if field == "calls":
        return float(sum(1 for s in spans if s[1] == name))
    return float(sum(s[5].get(field, 0) for s in spans if s[1] == name))


def layer_metrics(spans, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from the spans of ``n_ops`` timed operations."""
    spans = [s for s in spans if s[0] >= 0]
    per_op = lambda v: v / n_ops
    attempts = _sum(spans, "closedform.residue_coefficients", "calls")
    refused = sum(1 for s in spans if s[1] == "closedform.residue_coefficients"
                  and s[5].get("error") == "DegenerateRootsError")
    csv = ("cli.write_trajectory_csv", "cli._write_sweep_csv")
    out = {
        "closedform.char_roots.calls": (per_op(_sum(spans, "closedform.char_roots", "calls")), "count"),
        "closedform.char_roots.s": (per_op(_sum(spans, "closedform.char_roots")), "s"),
        "closedform.residue_coefficients.calls": (per_op(attempts), "count"),
        "closedform.residue_coefficients.s": (per_op(_sum(spans, "closedform.residue_coefficients")), "s"),
        "closedform.evolve.samples": (per_op(_sum(spans, "closedform.ResidueSolution.evolve", "samples")), "count"),
        "closedform.evolve.s": (per_op(_sum(spans, "closedform.ResidueSolution.evolve")), "s"),
        "closedform.refused": (per_op(refused), "count"),
        "closedform.accepted_ratio": ((attempts - refused) / attempts if attempts else 1.0, "ratio"),
        "dynamics.rk45.calls": (per_op(_sum(spans, "dynamics.rk45", "calls")), "count"),
        "dynamics.rk45.samples": (per_op(_sum(spans, "dynamics.rk45", "samples")), "count"),
        "dynamics.rk45.s": (per_op(_sum(spans, "dynamics.rk45")), "s"),
        "dynamics.rk4.steps": (per_op(_sum(spans, "dynamics.rk4", "steps")), "count"),
        "dynamics.rk4.s": (per_op(_sum(spans, "dynamics.rk4")), "s"),
        "dynamics.volterra.steps": (per_op(_sum(spans, "dynamics.integrate_volterra", "steps")), "count"),
        "dynamics.volterra.s": (per_op(_sum(spans, "dynamics.integrate_volterra")), "s"),
        "verification.compare_solvers.self_s": (per_op(_sum(spans, "verification.compare_solvers", "self")), "s"),
        "verification.leak_identity_residual.self_s": (per_op(_sum(spans, "verification.leak_identity_residual", "self")), "s"),
        "cli.csv.rows": (per_op(sum(_sum(spans, n, "rows") for n in csv)), "count"),
        "cli.csv.bytes": (per_op(sum(_sum(spans, n, "bytes") for n in csv)), "B"),
        "cli.csv.s": (per_op(sum(_sum(spans, n) for n in csv)), "s"),
        "cli.sweep.self_s": (per_op(_sum(spans, "cli.cmd_sweep", "self")), "s"),
        "svgplot.heatmap.s": (per_op(_sum(spans, "svgplot.heatmap")), "s"),
        "svgplot.heatmap.bytes": (per_op(_sum(spans, "svgplot.heatmap", "bytes")), "B"),
        "svgplot.line_chart.s": (per_op(_sum(spans, "svgplot.line_chart")), "s"),
        "svgplot.line_chart.bytes": (per_op(_sum(spans, "svgplot.line_chart", "bytes")), "B"),
    }
    return out


def import_times(stderr: str) -> tuple[float, float]:
    """Cumulative seconds of ``atompair.cli`` and ``scipy.integrate`` from -X importtime.

    ``scipy.integrate`` counts 0 when importing the CLI no longer imports it.
    """
    found = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("atompair.cli", "scipy.integrate"):
            found[parts[2].strip()] = int(parts[1]) * 1e-6
    return found["atompair.cli"], found.get("scipy.integrate", 0.0)
