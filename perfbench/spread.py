#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--json F]

Runs ``run.py --trace 0`` once per seed (seeds 1..runs) on every
workload, sequentially, and prints for every workload and end-to-end metric the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread (third minus first quartile, as a share of the median)
next to the metric's bound from BENCHMARK.json.  ``--json`` also saves
every value measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed (exit %d):\n%s%s" % (
            workload, seed, proc.returncode, proc.stdout[-2000:],
            proc.stderr[-2000:]))
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--json", help="save every measured value here")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    measured = {}
    worst = 0.0
    for workload in workloads:
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in range(1, args.runs + 1)]
        measured[workload] = runs
        print(workload)
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / q2
            worst = max(worst, share / bound)
            print("  %-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
                  "%.4f (bound %.2f, %.2f of it)"
                  % (name, q2, q1, q3, share, bound, share / bound))
    print("largest spread, as a share of its bound: %.2f" % worst)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(measured, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
