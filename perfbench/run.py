#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload build|serve-uniform|serve-zipf \\
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune inside the checkout (no shared
dune cache), then runs it. The last line of standard output is the
result object; perfbench/bench.ml documents what is measured.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("build", "serve-uniform", "serve-zipf")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def cache_size(name):
    """Host cache size in bytes as getconf reports it, 0 if unknown."""
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return int(out) if out.isdigit() else 0
    except (OSError, subprocess.SubprocessError):
        return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a "
                  "full checkout", file=sys.stderr)
            return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--l2", str(cache_size("LEVEL2_CACHE_SIZE")),
           "--l3", str(cache_size("LEVEL3_CACHE_SIZE"))]
    # Time-to-first-query children are pinned to each allowed core in
    # turn, so every run samples every core.
    taskset = shutil.which("taskset")
    if taskset and hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        cmd += ["--pin", taskset, "--cpus", ",".join(map(str, cpus))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
