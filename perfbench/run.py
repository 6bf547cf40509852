#!/usr/bin/env python3
"""Builds the Jinn libraries and the benchmark binary, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <table3|jni_dense|soak|pyc> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/perfbench (a Release CMake tree); build
output goes to stderr. The benchmark binary's report goes to stdout, and its last line
is one JSON object with the keys correct, attempted, failed and metrics.
This script checks that the metrics named there are exactly those that
BENCHMARK.json declares for the run (end_to_end with --trace 0, per_layer
with --trace 1), with the declared units. It exits nonzero when the sources
are missing, the build fails, or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD, "jinn_perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build():
    """Configures once, then (re)builds the benchmark binary. Returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "jinn_perfbench",
                  "-j", jobs])
    # Keep the compilers' scratch files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def declared_metrics(spec, trace):
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return fail("no BENCHMARK.json at " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload " + args.workload)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no Jinn sources under " + os.path.join(ROOT, "src"))
    if not build():
        return fail("build failed")

    os.makedirs(WORKDIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", WORKDIR]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        return fail("benchmark timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        return fail("benchmark printed no result (exit %d)" % proc.returncode)

    want = declared_metrics(spec, args.trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = ["missing metric " + n for n in sorted(set(want) - set(got))]
    problems += ["undeclared metric " + n for n in sorted(set(got) - set(want))]
    problems += ["unit of %s is %s, declared %s" % (n, got[n], want[n])
                 for n in sorted(set(want) & set(got)) if got[n] != want[n]]
    for line in lines[:-1]:
        print(line)
    for problem in problems:
        print("CHECK FAILED: " + problem)
    if problems:
        result["correct"] = False
        result["failed"] = result.get("failed", 0) + len(problems)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
