#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload churn --seeds 1-10 [--holdout 999] [--trace 1]

Runs the command in BENCHMARK.json once per seed, from the repository
root, and prints for every metric its median and the distance between the
first and third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)). End-to-end metrics are compared with
their bound: a spread within a third of the bound is steady. With
--holdout, one more run on that seed must read no worse than the median by
more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--holdout", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in seeds(args.seeds):
        metrics = run(bench, args.workload, seed, args.trace)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
        for k, v in metrics.items():
            values.setdefault(k, []).append(v)

    medians = {}
    for name, vals in values.items():
        med = medians[name] = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:28} median {med:<14.6g} spread {spread:.4f} "
              f"bound {bound if bound is not None else '-':<5} {verdict}")

    if args.holdout is not None:
        held = run(bench, args.workload, args.holdout, args.trace)
        worse = {m["name"]: m["better"] for m in bench["end_to_end"]}
        for name, value in held.items():
            if name not in bounds or not medians[name]:
                continue
            change = (value - medians[name]) / medians[name]
            if worse[name] == "higher":
                change = -change
            ok = change <= bounds[name]
            print(f"holdout {args.holdout} {name:22} {value:<14.6g} "
                  f"{change:+.4f} of median: {'ok' if ok else 'OUT OF BOUND'}")


if __name__ == "__main__":
    main()
