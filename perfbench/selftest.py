#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

Builds the benchmark binary (as run.py does), then runs every workload
twice for a fixed number of rounds with one seed and a one-worker soak, and
asserts:

  - every output check passes (correct, zero failed operations);
  - the deterministic counts agree between the two runs: operations
    attempted, checksums, and report counts;
  - the metric names and units are exactly those BENCHMARK.json declares.

A final traced run checks the per-layer metric names and units and that the
machine x class matrix is printed. Exits nonzero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helper and paths)

SEED = 7
ROUNDS = 3


def drive(workload, trace, rounds=ROUNDS, seconds=5):
    command = [run.BINARY, "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(trace),
               "--rounds", str(rounds), "--soak-workers", "1",
               "--workdir", run.WORKDIR]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    counts = {}
    for line in lines:
        if line.startswith("counts:"):
            counts = dict(kv.split("=") for kv in line.split()[1:])
    return proc.returncode, result, counts, proc.stdout


def check(condition, message):
    if not condition:
        print("selftest: FAIL: " + message)
        sys.exit(1)


def check_metrics(result, declared, what):
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, "%s metrics differ from BENCHMARK.json: missing %s, "
          "extra %s, units %s" % (
              what, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
              sorted(n for n in set(got) & set(want) if got[n] != want[n])))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(run.build(), "build failed")
    os.makedirs(run.WORKDIR, exist_ok=True)

    for workload in [w["name"] for w in spec["workloads"]]:
        first = drive(workload, 0)
        second = drive(workload, 0)
        for code, result, counts, _ in (first, second):
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  "%s: output checks failed: %s" % (workload, result))
            check(counts, "%s: no counts line" % workload)
            check_metrics(result, spec["end_to_end"], workload)
        check(first[1]["attempted"] == second[1]["attempted"],
              "%s: attempted %d vs %d" % (workload, first[1]["attempted"],
                                          second[1]["attempted"]))
        check(first[2] == second[2],
              "%s: counts differ: %s vs %s" % (workload, first[2], second[2]))
        print("selftest: %s ok (attempted %d, %s)" % (
            workload, first[1]["attempted"],
            " ".join("%s=%s" % kv for kv in sorted(first[2].items()))))

    code, result, _, out = drive("jni_dense", 1, rounds=2, seconds=4)
    check(code == 0 and result["correct"], "traced run failed: %s" % result)
    check_metrics(result, spec["per_layer"], "traced run")
    check(re.search(r"machine x class cost matrix", out) is not None,
          "traced run printed no machine x class matrix")
    check("per-layer self time" in out, "traced run printed no self times")
    print("selftest: traced run ok (%d per-layer metrics)" %
          len(result["metrics"]))
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
