#!/usr/bin/env python3
"""Build and run the pinpoint benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the simulator's sources included) in Release under
.bench_build/; later calls only check the build is current. The last
line of standard output is the benchmark's JSON result; build output
goes to standard error. See perfbench/DOC.md.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd, waiting for it; exits 1 if it fails or times out."""
    try:
        proc = subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: timed out after {timeout} s: {cmd[0]}")
    if proc.returncode != 0:
        sys.exit(f"run.py: {' '.join(cmd)} exited {proc.returncode}")
    return proc


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit(f"run.py: no simulator sources at {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S, stdout=sys.stderr)
    run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs],
                BUILD_TIMEOUT_S, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helpers' unit tests")
    args = parser.parse_args()

    build()
    if args.self_test:
        run_checked([os.path.join(BUILD_DIR, "perfbench_selftest")],
                    RUN_TIMEOUT_S)
        return 0
    for flag in ("workload", "seed", "seconds", "trace"):
        if getattr(args, flag) is None:
            parser.error(f"--{flag} is required")
    os.makedirs(WORK_DIR, exist_ok=True)
    run_checked([os.path.join(BUILD_DIR, "perfbench"),
                 "--workload", args.workload, "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", args.trace,
                 "--work-dir", WORK_DIR],
                RUN_TIMEOUT_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
