#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json on a few thousand keys for a second:
untraced, traced, and with a deliberately corrupted reference model. The
first two must pass their checks and print exactly the metrics
BENCHMARK.json names, with their units and finite values (end-to-end ones
nonzero). The corrupted runs must fail. Exit status 0 when all of that
holds. Takes about a minute.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KEYS = 20000
SECONDS = 1


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(SECONDS), "--trace",
           str(trace), "--keys", str(KEYS), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result, err = run(w, trace)
            where = f"{w} --trace {trace}"
            if code != 0 or result is None or result["correct"] is not True:
                problems.append(f"{where}: exit {code}\n{err[-1500:]}")
                continue
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(expected[trace]))}")
            for name, m in metrics.items():
                value = m["value"]
                if m["unit"] != expected[trace].get(name):
                    problems.append(f"{where}: {name} has unit {m['unit']}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {value!r}")
                elif trace == 0 and value == 0:
                    problems.append(f"{where}: {name} is 0")
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append(f"{where}: attempted {result['attempted']}, "
                                f"failed {result['failed']}")
        code, result, _ = run(w, 0, "--corrupt-reference")
        if code == 0 or result is None or result["correct"] is not False \
                or result["failed"] == 0:
            problems.append(f"{w}: a corrupted reference did not fail the run "
                            f"(exit {code})")
        print(f"{w}: checked", file=sys.stderr)
    for p in problems:
        print("FAIL " + p)
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
