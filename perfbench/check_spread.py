#!/usr/bin/env python3
"""Repeatability check for the benchmark, by the rule its driver applies.

Runs the command of BENCHMARK.json `--runs` times per workload, each time with
another seed, `--sets` times over. For each end-to-end metric it prints the
spread of every set — the distance between the first and third quartile of the
values as a share of their median — and how much worse each later set's median
is than the first's. It fails if a spread (other than `setup_s`'s) or a
worsening exceeds the metric's bound, or if any run reports a failed
operation.

Run it from the root of the repository:

    python3 perfbench/check_spread.py [--runs 10] [--sets 2] [--workload NAME]...
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs)
            sets.append([run_once(bench["command"], workload, seed, bench["run_seconds"])
                         for seed in seeds])
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            medians = [statistics.median(r[name] for r in runs) for runs in sets]
            spreads = [spread([r[name] for r in runs]) for runs in sets]
            worsening = [sign * (m - medians[0]) / medians[0] for m in medians[1:]]
            bad = any(w > bound for w in worsening)
            if name != "setup_s":
                bad = bad or any(s > bound for s in spreads)
            ok = ok and not bad
            print(f"{workload:16} {name:12} bound {bound:.2f}"
                  f"  medians {' '.join(f'{m:10.4f}' for m in medians)}"
                  f"  spreads {' '.join(f'{s:.4f}' for s in spreads)}"
                  f"  worsening {' '.join(f'{w:+.4f}' for w in worsening)}"
                  f"  {'FAIL' if bad else 'ok'}"
                  f"{'' if bad or max(spreads) < bound / 3 else '  (spread above a third of the bound)'}",
                  flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
