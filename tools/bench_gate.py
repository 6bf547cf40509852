#!/usr/bin/env python3
"""Fails when a fresh bench JSON regresses against its committed baseline.

Usage: bench_gate.py <baseline.json> <fresh.json> [threshold]

Three gates run:

1. Throughput: only entries whose unit ends in "/s" are compared: a fresh
   value below threshold * baseline (default 0.75, i.e. a >25% drop) is a
   regression. Counters, most ratios, and latency entries are ignored —
   they vary legitimately with configuration or would need an inverse
   comparison. Entries present only on one side are ignored so adding or
   renaming bench rows never trips the gate, and zero/negative baseline
   entries are skipped with a note instead of dividing by them.

2. Ratio ceiling: entries named "ratio/..." with unit "x" are intra-run
   quotients of two timings from the same process (e.g. Jinn over
   interpose-only ns/crossing in bench_crossing_latency), so the host-speed
   factor cancels and they stay meaningful on a loaded runner where raw
   "/s" numbers swing several-fold. Lower is better; a fresh ratio above
   baseline / threshold (default: >1.33x the baseline ratio) is a
   regression. Only the "ratio/" prefix is gated — table-style "x"
   entries (table3 normalized runtimes) remain ungated noise.

3. Scaling-efficiency floor (bench_mt_scaling only): the fresh
   "checking off/8t efficiency" entry must be >= 0.7 speedup per thread.
   The floor is absolute (no baseline needed) but only enforced when the
   fresh run's "hardware_threads" entry reports at least 8 hardware
   threads — a 2-core runner cannot distinguish a lock convoy from a lack
   of cores. Override the floor with JINN_BENCH_EFFICIENCY_FLOOR, and
   note tools/run_benches.sh skips this script entirely under
   JINN_BENCH_NO_GATE=1.

Exit codes: 0 pass, 1 regression, 2 usage or unreadable/malformed input.
"""
import json
import os
import sys

EFFICIENCY_FLOOR = 0.7
EFFICIENCY_THREADS = 8
EFFICIENCY_CONFIG = "checking off"


def load_entries(path):
    """Returns {name: (value, unit)}; exits 2 with a message on bad input."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as err:
        print("bench_gate: cannot read %s: %s" % (path, err), file=sys.stderr)
        sys.exit(2)
    except ValueError as err:
        print("bench_gate: %s is not valid JSON: %s" % (path, err),
              file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict) or not isinstance(doc.get("results"), list):
        print("bench_gate: %s has no \"results\" array" % path,
              file=sys.stderr)
        sys.exit(2)
    out = {}
    for entry in doc["results"]:
        if not isinstance(entry, dict):
            continue
        name, value = entry.get("name"), entry.get("value")
        if not isinstance(name, str):
            print("bench_gate: %s: skipping entry without a name: %r"
                  % (path, entry), file=sys.stderr)
            continue
        unit = entry.get("unit", "")
        unit = unit if isinstance(unit, str) else ""
        try:
            value = float(value)
        except (TypeError, ValueError):
            # String-valued entries (behavior matrix cells, boolean
            # acceptance flags) are legitimate; only a throughput entry
            # with a non-numeric value deserves a warning.
            if unit.endswith("/s"):
                print("bench_gate: %s: skipping %s: non-numeric value %r"
                      % (path, name, value), file=sys.stderr)
            continue
        out[name] = (value, unit)
    return out


def throughput_failures(base, fresh, threshold):
    failures = []
    for name, (baseline, unit) in sorted(base.items()):
        if not unit.endswith("/s"):
            continue
        if name not in fresh:
            continue
        current = fresh[name][0]
        if baseline <= 0:
            print("bench_gate: note: baseline %s is %g, not gated"
                  % (name, baseline), file=sys.stderr)
            continue
        if current < threshold * baseline:
            failures.append(
                "%s: %.0f vs baseline %.0f (%.0f%%, floor %.0f%%)"
                % (name, current, baseline, 100 * current / baseline,
                   100 * threshold))
    return failures


def ratio_failures(base, fresh, threshold):
    """Ceiling on intra-run "ratio/..." entries (lower is better)."""
    failures = []
    for name, (baseline, unit) in sorted(base.items()):
        if unit != "x" or not name.startswith("ratio/"):
            continue
        if name not in fresh:
            continue
        current = fresh[name][0]
        if baseline <= 0:
            print("bench_gate: note: baseline %s is %g, not gated"
                  % (name, baseline), file=sys.stderr)
            continue
        ceiling = baseline / threshold
        if current > ceiling:
            failures.append(
                "%s: %.3fx vs baseline %.3fx (ceiling %.3fx)"
                % (name, current, baseline, ceiling))
    return failures


def efficiency_failures(fresh):
    """Absolute floor on multi-thread scaling efficiency (mt_scaling)."""
    key = "%s/%ut efficiency" % (EFFICIENCY_CONFIG, EFFICIENCY_THREADS)
    if key not in fresh:
        return []  # not an mt_scaling result, or 8 threads were not run
    try:
        floor = float(os.environ.get("JINN_BENCH_EFFICIENCY_FLOOR",
                                     EFFICIENCY_FLOOR))
    except ValueError:
        print("bench_gate: ignoring malformed JINN_BENCH_EFFICIENCY_FLOOR",
              file=sys.stderr)
        floor = EFFICIENCY_FLOOR
    hardware = fresh.get("hardware_threads", (0.0, ""))[0]
    if hardware < EFFICIENCY_THREADS:
        print("bench_gate: note: %g hardware thread(s) < %u, efficiency "
              "floor not enforced" % (hardware, EFFICIENCY_THREADS),
              file=sys.stderr)
        return []
    value = fresh[key][0]
    if value < floor:
        return ["%s: %.2f speedup/thread below the %.2f floor "
                "(lock convoy in the substrate?)" % (key, value, floor)]
    return []


def main():
    if len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 0.75
    except ValueError:
        print("bench_gate: threshold %r is not a number" % sys.argv[3],
              file=sys.stderr)
        return 2
    base = load_entries(sys.argv[1])
    fresh = load_entries(sys.argv[2])
    failures = throughput_failures(base, fresh, threshold)
    failures += ratio_failures(base, fresh, threshold)
    failures += efficiency_failures(fresh)
    for failure in failures:
        print("bench_gate: %s" % failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
