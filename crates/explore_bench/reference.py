#!/usr/bin/env python3
"""Regenerates a reference row of crates/explore_bench/README.md.

Runs the benchmark once per seed (seeds FIRST .. FIRST+RUNS-1) on one
workload and prints, for every metric of the result line, the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and
their distance as a share of the median, plus the failed share.

    python3 crates/explore_bench/reference.py --workload drill_cold --runs 10 --seconds 15

Run it from the repository root; it builds the benchmark on first use.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    command = ["cargo", "run", "--release", "--quiet", "--offline",
               "--manifest-path", "crates/explore_bench/Cargo.toml", "--"]
    values, shares = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])

    print(f"workload {args.workload}: {args.runs} runs of {args.seconds} s, "
          f"failed share {sorted(set(shares))}")
    print("| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median |")
    print("|---|---|---|---|---|---|")
    for name, (series, unit) in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"| {name} | {unit} | {median:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |")


if __name__ == "__main__":
    main()
