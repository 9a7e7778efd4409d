"""Benchmark of the atompair command-line interface.

    python3 benchmark/run.py --workload figure --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout.  Every run starts fresh interpreters
that import ``atompair`` from ``src/``.  Each one times ``import atompair.cli``
plus the workload's first operation (``setup_s``).  One of them then times
whole rounds of operations in process, each a set of ``atompair.cli.main(argv)``
calls with stdout and stderr captured, until ``--seconds`` of operation time
have passed.  Every output is checked against an independent matrix
exponential reference (``checks.py``), outside the timed calls.  With
``--trace 1`` the same operations run with spans around the package's
functions (``spans.py``) and the run reports per-layer metrics instead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 3  # fresh interpreters per run whose set-up time is measured
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# child: one fresh interpreter


def _run_op(cli, calls) -> tuple[float, list[tuple]]:
    """Time one operation; returns its seconds and (call, exit code, stdout, stderr) per call."""
    results = []
    start = time.perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(call.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                traceback.print_exc()
                rc = -1
        results.append((call, rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, results


def _check_op(op, results) -> list[str]:
    import checks

    errors = []
    for k, (call, rc, stdout, _) in enumerate(results):
        rng = random.Random(f"{op.check_seed}/{k}")
        errors += checks.check_call(call, op.point, rc, stdout, rng)
    return errors


def _failed(results) -> bool:
    return any(rc != 0 for _, rc, _, _ in results)


def _describe_failure(results) -> str:
    return "; ".join(
        f"{' '.join(call.argv)} exited {rc}: {err.strip()[-300:]}"
        for call, rc, _, err in results if rc != 0
    )


def child(args) -> int:
    workload = Workload(args.workload, args.seed, args.workdir)
    first = workload.first()

    start = time.perf_counter()
    import atompair.cli as cli

    _, results = _run_op(cli, first.calls)
    setup_s = time.perf_counter() - start

    import atompair

    if os.path.dirname(atompair.__file__) != os.path.join(SRC, "atompair"):
        print(f"error: atompair imported from {atompair.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if _failed(results):
        print(f"error: first operation failed: {_describe_failure(results)}", file=sys.stderr)
        return 1
    if args.child == "setup":  # the measuring interpreter checks the same operation
        print(json.dumps({"setup_s": setup_s}))
        return 0
    errors = _check_op(first, results)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.install(args.workdir)
    times, slots, failed, index = [], [], 0, 0
    while sum(times) < args.seconds:
        for slot, op in enumerate(workload.round(index)):
            if tracer:
                tracer.op = len(times)
            seconds, results = _run_op(cli, op.calls)
            if tracer:
                tracer.op = -1
                tracer.collect()
            times.append(seconds)
            slots.append(slot)
            if _failed(results):
                failed += 1
                print(f"failed: {_describe_failure(results)}", file=sys.stderr)
            else:
                errors += _check_op(op, results)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.workload == "verify":
        import checks

        call = workload.corrupt_call(first.point)
        _, ((_, rc, stdout, _),) = _run_op(cli, [call])
        errors += checks.check_call(call, first.point, rc, stdout, None)

    report = {"setup_s": setup_s, "op_s": times, "slots": slots, "failed": failed,
              "errors": errors, "peak_rss_mb": peak_rss_mb}
    if tracer:
        import spans

        report["layers"] = spans.layer_metrics(tracer.spans, len(times))
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# parent: orchestrates the fresh interpreters of one run


def _spawn(argv: list[str], deadline: float) -> tuple[str, str]:
    """Run a fresh interpreter; returns its stdout and stderr.

    It gets a process group of its own, so that on timeout the sweep's pool
    workers are killed along with it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    with subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{err[-2000:]}")
    return out, err


def _child(args, role: str, workdir: str, deadline: float) -> dict:
    argv = [os.path.join(HERE, "run.py"), "--child", role, "--workdir", workdir,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    out, err = _spawn(argv, deadline)
    sys.stderr.write(err)
    return json.loads(out.splitlines()[-1])


def op_s_p50(times: list[float], slots: list[int]) -> float:
    """Mean over the round's points of the median time of each point's repetitions.

    Every round repeats the same points, so each point's median compares like
    with like, and the mean over points weighs every point once, so the figure
    does not jump between a cheap and a costly group of points.
    """
    per_slot: dict[int, list[float]] = {}
    for t, slot in zip(times, slots):
        per_slot.setdefault(slot, []).append(t)
    return statistics.fmean(statistics.median(v) for v in per_slot.values())


def parent(args, workdir: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        imports = [
            _spawn(["-X", "importtime", "-c", "import atompair.cli"], deadline)[1]
            for _ in range(IMPORTTIME_SAMPLES)
        ]
        import spans

        cli_s, scipy_s = zip(*(spans.import_times(text) for text in imports))
        setups = []
    else:
        setups = [_child(args, "setup", workdir, deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = _child(args, "measure", workdir, deadline)

    errors = main["errors"]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    times = main["op_s"]
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in main["layers"].items()}
        metrics["cli.import.s"] = {"value": statistics.median(cli_s), "unit": "s"}
        metrics["cli.import_scipy.s"] = {"value": statistics.median(scipy_s), "unit": "s"}
        metrics["trace.op_s.p50"] = {"value": op_s_p50(times, main["slots"]), "unit": "s"}
    else:
        setup_s = [main["setup_s"]] + [s["setup_s"] for s in setups]
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "op_s.p50": {"value": op_s_p50(times, main["slots"]), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not errors, "attempted": len(times), "failed": main["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return child(args)
    if not os.path.isfile(os.path.join(SRC, "atompair", "cli.py")):
        print(f"error: no atompair sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = parent(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
