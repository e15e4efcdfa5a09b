#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3] [--trace 0]

Runs perfbench/run.py once per seed, then prints each metric's median
and its spread: the distance between the first and third quartile of
the values (statistics.quantiles, n=4) as a share of their median.
With --trace 0 it compares each spread to the metric's bound in
BENCHMARK.json and exits 1 when a spread other than setup_s's is
above a third of its bound, or when any run reported incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True, timeout=900).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=bench["run_seconds"])
    args = parser.parse_args()

    values = {}
    ok = True
    for seed in args.seeds.split(","):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        line = f"{name:40s} median {med:<14.6g} spread {spread:.4f}"
        if args.trace == 0 and name in bounds:
            steady = spread < bounds[name] / 3
            line += f"  bound {bounds[name]}  {'ok' if steady else 'WIDE'}"
            if not steady and name != "setup_s":
                ok = False
        elif len(set(vals)) == 1:
            line += "  (repeats exactly)"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
