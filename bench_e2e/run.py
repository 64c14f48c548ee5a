#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload.

Usage (from the repository root):

    python3 bench_e2e/run.py --workload registry_mix --seed 1 --seconds 10 --trace 0

The first call configures and builds an optimized (-O2) tree in
.bench_build/; later calls only rebuild what changed. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Exits
non-zero without a result when the build fails (for example when the
library sources are missing) or the run does not finish in time.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"  # relative to ROOT
WORKLOADS = ("registry_mix", "reach_u_durable", "served_mixed")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the bench_e2e target; True on success."""
    env = dict(os.environ)
    tmp = os.path.join(ROOT, BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler temporaries stay inside the checkout
    cache = os.path.join(ROOT, BUILD, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    if not build():
        print("error: building bench_e2e failed", file=sys.stderr)
        return 1
    work = os.path.join(BUILD, "work")
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    command = [os.path.join(BUILD, "bench_e2e"), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", "--root=.", f"--work-dir={work}"]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("error: bench_e2e did not finish in time", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
