#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads table3,soak] [--seeds 10]

Runs each workload untraced with seeds 1..N. For every end-to-end metric
it prints the median of the per-seed values, the quartiles
(statistics.quantiles(values, n=4)), the interquartile distance and the
max-min range, each as a share of the median, and the metric's bound from
BENCHMARK.json. An interquartile spread above a third of the bound is
flagged. Exits nonzero when any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            if proc.returncode or not result["correct"]:
                print("%s seed %d FAILED" % (workload, seed))
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s (%d seeds)" % (workload, args.seeds))
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med
            span = (max(vals) - min(vals)) / med
            flag = "  <-- above bound/3" if iqr > bounds[name] / 3 else ""
            print("  %-20s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "iqr/median %.4f  range/median %.4f  (bound %.2f)%s" % (
                      name, med, q1, q3, iqr, span, bounds[name], flag))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
