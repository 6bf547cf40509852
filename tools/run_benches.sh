#!/usr/bin/env sh
# Builds the bench binaries, runs each one, and aggregates every
# BENCH_<name>.json they emit into one summary file.
#
#   tools/run_benches.sh [build-dir] [summary-path]
#
# Environment:
#   JINN_BENCH_SCALE   workload scale divisor forwarded to the benches
#                      (default here: 16384, i.e. a quick smoke pass;
#                      unset it in the benches themselves for full runs)
#   JINN_BENCH_ONLY    space-separated bench names to restrict the run
#                      (e.g. "bench_trace_modes bench_coverage")
#   JINN_BENCH_NO_GATE set non-empty to skip the throughput regression
#                      gate against bench/baselines/
#   JINN_MUTATE_NO_GATE set non-empty to skip the mutation-testing
#                      kill-rate gate against mutants/baseline.json
set -eu
# POSIX sh has no pipefail; enable it where the shell provides it (dash
# does not, bash/ksh/zsh do) so a bench dying inside a pipeline cannot be
# masked by the tail/sed consumers downstream.
(set -o pipefail) 2>/dev/null && set -o pipefail

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD=${1:-"$ROOT/build"}
SUMMARY=${2:-"$BUILD/BENCH_SUMMARY.json"}
: "${JINN_BENCH_SCALE:=16384}"
export JINN_BENCH_SCALE

cmake -S "$ROOT" -B "$BUILD" >/dev/null
cmake --build "$BUILD" -j >/dev/null

BENCHES="bench_table1_pitfalls bench_table2_constraints \
bench_table3_overhead bench_crossing_latency bench_coverage \
bench_fig9_messages \
bench_fig10_localrefs bench_synthesis_loc \
bench_mt_scaling bench_pyc_checker bench_trace_modes \
bench_monitor_soak"
if [ -n "${JINN_BENCH_ONLY:-}" ]; then
  BENCHES=$JINN_BENCH_ONLY
fi

RUNDIR="$BUILD/bench"
FAILED=""
for BENCH in $BENCHES; do
  BIN="$RUNDIR/$BENCH"
  if [ ! -x "$BIN" ]; then
    echo "run_benches: missing $BIN" >&2
    FAILED="$FAILED $BENCH"
    continue
  fi
  echo "== $BENCH (scale 1/$JINN_BENCH_SCALE) =="
  # bench_trace_modes exits nonzero when its acceptance criterion fails;
  # record that but keep collecting the other benches.
  if ! (cd "$RUNDIR" && "./$BENCH" >"$BENCH.log" 2>&1); then
    echo "run_benches: $BENCH failed (see $RUNDIR/$BENCH.log)" >&2
    FAILED="$FAILED $BENCH"
  fi
  tail -n 3 "$RUNDIR/$BENCH.log" | sed 's/^/    /'
  # Every bench must leave a non-empty, well-formed BENCH_<name>.json
  # behind; a bench that silently stopped emitting results is a failure
  # even when its exit code says otherwise.
  JSON="$RUNDIR/BENCH_${BENCH#bench_}.json"
  if [ ! -s "$JSON" ]; then
    echo "run_benches: $BENCH produced no $JSON" >&2
    FAILED="$FAILED $BENCH(json-missing)"
  elif ! grep -q '"bench"' "$JSON" || ! grep -q '"results"' "$JSON"; then
    echo "run_benches: $JSON is malformed (missing bench/results keys)" >&2
    FAILED="$FAILED $BENCH(json-malformed)"
  fi
  # Throughput regression gate: every "/s" entry in the fresh JSON must
  # stay within 25% of the committed baseline snapshot. Baselines were
  # recorded at the scale in bench/baselines/SCALE; a run at any other
  # scale skips the gate rather than comparing apples to oranges.
  BASELINE="$ROOT/bench/baselines/BENCH_${BENCH#bench_}.json"
  BASESCALE=$(cat "$ROOT/bench/baselines/SCALE" 2>/dev/null || true)
  if [ -z "${JINN_BENCH_NO_GATE:-}" ] && [ -s "$BASELINE" ] \
      && [ -s "$JSON" ] && [ "$BASESCALE" = "$JINN_BENCH_SCALE" ] \
      && command -v python3 >/dev/null 2>&1; then
    if python3 "$ROOT/tools/bench_gate.py" "$BASELINE" "$JSON"; then
      echo "run_benches: gate bench_gate($BENCH): PASS"
    else
      echo "run_benches: gate bench_gate($BENCH): FAIL (set" \
           "JINN_BENCH_NO_GATE=1 to bypass)" >&2
      FAILED="$FAILED $BENCH(regression)"
    fi
    # The monitoring soak has its own gate on top of the throughput one:
    # RSS ceiling, sampled p99 latency, and the seeded-bug detection floor.
    if [ "$BENCH" = "bench_monitor_soak" ]; then
      if python3 "$ROOT/tools/monitor_gate.py" "$BASELINE" "$JSON"; then
        echo "run_benches: gate monitor_gate: PASS"
      else
        echo "run_benches: gate monitor_gate: FAIL (set" \
             "JINN_BENCH_NO_GATE=1 to bypass)" >&2
        FAILED="$FAILED $BENCH(monitor-gate)"
      fi
    fi
  fi
done

# Static-verifier agreement gate: jinn-verify's must-verdicts must match
# the dynamic oracles byte-for-byte on the micros and corpus. Cheap (a
# few seconds) and scale-independent, so it runs on every bench pass.
if [ -z "${JINN_BENCH_NO_GATE:-}" ] && [ -x "$BUILD/tools/jinn-verify" ] \
    && command -v python3 >/dev/null 2>&1; then
  echo "== verify_gate (jinn-verify static-vs-dynamic agreement) =="
  if python3 "$ROOT/tools/verify_gate.py" "$BUILD/tools/jinn-verify" \
      --micros --examples --corpus; then
    echo "run_benches: gate verify_gate: PASS"
  else
    echo "run_benches: gate verify_gate: FAIL — jinn-verify disagreed" \
         "with the dynamic oracles (set JINN_BENCH_NO_GATE=1 to bypass)" >&2
    FAILED="$FAILED verify_gate"
  fi
fi

# Mutation-testing gate: re-judge the checked-in mutant corpus against the
# live oracle battery and hold the kill rate to the committed baseline.
# Scale-independent and a few seconds long; JINN_MUTATE_NO_GATE skips it.
if [ -z "${JINN_MUTATE_NO_GATE:-}" ] && [ -x "$BUILD/tools/jinn-mutate" ] \
    && [ -s "$ROOT/mutants/baseline.json" ] \
    && command -v python3 >/dev/null 2>&1; then
  echo "== mutate_gate (detector kill rate over the mutant corpus) =="
  MUTATE_JSON="$BUILD/MUTATE_CAMPAIGN.json"
  if ! "$BUILD/tools/jinn-mutate" --run --json "$MUTATE_JSON"; then
    echo "run_benches: gate mutate_gate: FAIL — campaign errored (set" \
         "JINN_MUTATE_NO_GATE=1 to bypass)" >&2
    FAILED="$FAILED mutate_campaign"
  elif python3 "$ROOT/tools/mutate_gate.py" \
      "$ROOT/mutants/baseline.json" "$MUTATE_JSON"; then
    echo "run_benches: gate mutate_gate: PASS"
  else
    echo "run_benches: gate mutate_gate: FAIL — kill rate regressed or a" \
         "survivor lost its annotation (set JINN_MUTATE_NO_GATE=1 to" \
         "bypass)" >&2
    FAILED="$FAILED mutate_gate"
  fi
fi

# Merge every BENCH_*.json into one summary document.
{
  echo '{'
  echo "  \"scale\": $JINN_BENCH_SCALE,"
  printf '  "benches": ['
  FIRST=1
  for JSON in "$RUNDIR"/BENCH_*.json; do
    [ -e "$JSON" ] || continue
    [ "$FIRST" = 1 ] || printf ','
    FIRST=0
    printf '\n'
    sed 's/^/    /' "$JSON" | sed '${/^[[:space:]]*$/d}'
  done
  printf '\n  ]\n}\n'
} >"$SUMMARY"

COUNT=$(ls "$RUNDIR"/BENCH_*.json 2>/dev/null | wc -l)
echo "run_benches: aggregated $COUNT result file(s) into $SUMMARY"
if [ -n "$FAILED" ]; then
  echo "run_benches: failures:$FAILED" >&2
  exit 1
fi
