#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, per workload.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
        [--workloads a,b] [--seconds S]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) on
each workload with --trace 0, then prints each metric's median and its
interquartile range as a share of the median, next to the bound
BENCHMARK.json fixes for it. A metric whose spread exceeds a third of its
bound (setup_s excepted) is flagged, and the exit status is 1 if any is.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({p.returncode}):\n"
                 + p.stderr[-2000:])
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    flagged = False
    for workload in args.workloads.split(","):
        runs = [run(workload, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        print(f"{workload} ({args.runs} runs)")
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            median = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / median if median else float("inf")
            bad = m["name"] != "setup_s" and spread > m["bound"] / 3
            flagged |= bad
            print(f"  {m['name']:22s} median {median:14.6g}  spread "
                  f"{spread:7.2%}  bound {m['bound']:.0%}"
                  f"{'  <-- above a third of the bound' if bad else ''}")
        sys.stdout.flush()
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
