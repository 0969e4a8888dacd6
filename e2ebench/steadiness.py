#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload in repeated sets of alternating runs (set 1 runs
each workload once per seed, workloads interleaved, then set 2 does the
same on fresh seeds, and so on) and prints, per workload and end-to-end
metric, each set's median, the quartiles over all runs, the spread
within the runs (interquartile distance over the median) and the spread
between set medians, next to the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 e2ebench/steadiness.py --sets 2 --runs 5

It builds the benchmark once, then calls the command BENCHMARK.json
names. A run that fails or prints no result stops the check.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                 f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect or failed:\n{proc.stdout}")
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2 for quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    subprocess.run(["cargo", "build", "--offline", "--release", "--quiet",
                    "--manifest-path", "e2ebench/Cargo.toml"], check=True)

    # results[workload][set] -> list of metric dicts
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    walls = {w: [] for w in workloads}
    seed = args.seed_base
    for s in range(args.sets):
        for _ in range(args.runs):
            seed += 1
            for w in workloads:
                result, wall = run_once(command, w, seed, seconds)
                results[w][s].append(result["metrics"])
                walls[w].append(wall)
                print(f"set {s + 1} seed {seed} {w}: "
                      f"{result['metrics']['cycle_ms_p50']['value']:.1f} ms p50, "
                      f"{wall:.1f} s wall", file=sys.stderr)

    for w in workloads:
        print(f"\n{w} ({args.sets} sets x {args.runs} runs, "
              f"{statistics.median(walls[w]):.1f} s median wall per run)")
        print(f"  {'metric':26} {'unit':>5} {'set medians':>28} {'q1':>12} "
              f"{'median':>12} {'q3':>12} {'iqr/med':>8} {'sets':>7} {'bound':>6}")
        for name, bound in bounds.items():
            per_set = [[r[name]["value"] for r in runs] for runs in results[w]]
            unit = results[w][0][0][name]["unit"]
            medians = [statistics.median(v) for v in per_set]
            q1, med, q3, iqr = spread([v for vs in per_set for v in vs])
            between = (max(medians) - min(medians)) / min(medians) if min(medians) else 0.0
            flag = "" if (iqr <= bound / 3 or name == "setup_s") and between <= bound else "  <-- unsteady"
            print(f"  {name:26} {unit:>5} {' '.join(f'{m:.4g}' for m in medians):>28} "
                  f"{q1:12.5g} {med:12.5g} {q3:12.5g} {iqr:8.3f} {between:7.3f} {bound:6.2f}{flag}")


if __name__ == "__main__":
    main()
