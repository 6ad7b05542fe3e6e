#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/spread.py --runs 10 [--workload sweep-hh ...] [--first-seed 1] [--verbose]

Runs `perfbench/run.py` once per seed on each workload (untraced), then
prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of that median, beside
a third of the metric's bound from BENCHMARK.json. A spread above a
third of its bound is flagged (`setup_s` is exempt).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()

    steady = True
    for workload in args.workload or names:
        results = [run_once(workload, args.first_seed + i, bench["run_seconds"])
                   for i in range(args.runs)]
        if not all(r["correct"] for r in results):
            print(f"{workload}: a run was not correct")
            steady = False
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            limit = metric["bound"] / 3
            flag = "" if spread < limit or name == "setup_s" else "  <-- too wide"
            steady = steady and not flag
            print(f"{workload:14} {name:18} median {med:12.6g} {metric['unit']:4} "
                  f"spread {spread:7.2%} (limit {limit:6.2%}){flag}")
            if args.verbose:
                print("    runs: " + " ".join(f"{v:.6g}" for v in values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
