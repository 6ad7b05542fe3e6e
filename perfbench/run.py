#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload sweep-hh --seed 7 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs one workload, and passes its report
through. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep-hh", "sweep-heat", "stream-fisher", "serve-tcp")
DEFAULT_SEED = 7
# A run must end within 180 s; the binary bounds its own loops well
# inside this.
RUN_TIMEOUT_S = 175


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(target, "perfbench-work", f"{args.workload}-{os.getpid()}")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
