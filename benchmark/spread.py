"""Repeat benchmark runs over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workloads verify figure --seeds 1-10 --seconds 45
    python3 benchmark/spread.py --workloads figure --seeds 1-3 --seconds 45 --trace

For every workload and metric it prints the median over the runs and the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of that median.  Before each run it times a fixed pure-Python
loop; the loop's spread is the machine's own drift, against which the
program's spread can be judged.  With ``--trace`` every seed also gets a
traced run, and the tracing overhead is the traced minus the untraced median
operation time.  The summary is also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", action="store_true", help="also make a traced run per seed")
    args = p.parse_args()

    summary = {}
    for workload in args.workloads:
        runs, traced, loops = [], [], []
        for seed in args.seeds:
            loops.append(calibration_loop())
            runs.append(_run(workload, seed, args.seconds, 0))
            if args.trace:
                traced.append(_run(workload, seed, args.seconds, 1))
            last = runs[-1]
            print(f"{workload} seed {seed}: wall {last['wall_s']:.1f} s correct={last['correct']} "
                  f"attempted={last['attempted']} failed={last['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()),
                  flush=True)
        rows = {"calibration_loop_s": spread(loops)}
        for name in runs[0]["metrics"]:
            rows[name] = spread([r["metrics"][name]["value"] for r in runs])
        entry = {
            "metrics": rows,
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "attempted": [r["attempted"] for r in runs],
            "run_wall_s": statistics.median(r["wall_s"] for r in runs),
        }
        if args.trace:
            layers = {name: statistics.median(r["metrics"][name]["value"] for r in traced)
                      for name in traced[0]["metrics"]}
            entry["layers"] = layers
            entry["tracing_overhead_s"] = layers["trace.op_s.p50"] - rows["op_s.p50"][0]
        summary[workload] = entry
        print(f"== {workload}: correct={entry['correct']} failed share={entry['failed_share']}"
              f" attempted={entry['attempted']} median run wall {entry['run_wall_s']:.1f} s")
        for name, (med, rel) in rows.items():
            print(f"   {name:<22} median {med:.5g}  IQR/median {rel:.3f}")
        if args.trace:
            print(f"   tracing overhead on op_s.p50: {entry['tracing_overhead_s']:+.4f} s")
            for name, value in layers.items():
                print(f"   {name:<44} {value:.5g}")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", f"spread-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "seconds": args.seconds, "workloads": summary}, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
