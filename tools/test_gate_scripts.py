#!/usr/bin/env python3
"""Unit tests for the CI gate scripts (registered as jinn_gate_script_tests).

The gates (bench_gate, fuzz_gate, verify_gate, monitor_gate, mutate_gate)
are the repository's acceptance layer: a silent bug in one of them weakens
every suite they guard. Each test drives the real script as a subprocess
against canned good/bad fixtures and asserts the documented exit codes:
0 pass, 1 gate failure, 2 usage/malformed. Runs standalone:

    python3 tools/test_gate_scripts.py -v
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))


def run_gate(script, *args):
    """Runs tools/<script> with args; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(TOOLS, script)] + list(args),
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class GateFixtureTest(unittest.TestCase):
    """Base: write JSON fixtures into a per-test temp directory."""

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory(prefix="jinn-gate-test-")
        self.addCleanup(self._dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path


def bench_doc(**entries):
    results = [{"name": k, "value": v, "unit": u}
               for k, (v, u) in entries.items()]
    return {"results": results}


class BenchGateTest(GateFixtureTest):
    def test_equal_runs_pass(self):
        base = self.write("base.json", bench_doc(**{
            "crossings": (1e6, "ops/s"), "ratio/jinn_vs_interpose": (0.5, "x")}))
        rc, _, err = run_gate("bench_gate.py", base, base)
        self.assertEqual(rc, 0, err)

    def test_throughput_regression_fails(self):
        base = self.write("base.json", bench_doc(x=(1000.0, "ops/s")))
        fresh = self.write("fresh.json", bench_doc(x=(500.0, "ops/s")))
        rc, _, err = run_gate("bench_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("floor", err)

    def test_small_dip_within_threshold_passes(self):
        base = self.write("base.json", bench_doc(x=(1000.0, "ops/s")))
        fresh = self.write("fresh.json", bench_doc(x=(800.0, "ops/s")))
        rc, _, err = run_gate("bench_gate.py", base, fresh)
        self.assertEqual(rc, 0, err)

    def test_ratio_ceiling_fails(self):
        base = self.write("base.json",
                          bench_doc(**{"ratio/jinn": (0.5, "x")}))
        fresh = self.write("fresh.json",
                           bench_doc(**{"ratio/jinn": (0.9, "x")}))
        rc, _, err = run_gate("bench_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("ceiling", err)

    def test_non_ratio_x_entries_are_not_gated(self):
        base = self.write("base.json", bench_doc(table3=(1.0, "x")))
        fresh = self.write("fresh.json", bench_doc(table3=(99.0, "x")))
        rc, _, err = run_gate("bench_gate.py", base, fresh)
        self.assertEqual(rc, 0, err)

    def test_efficiency_floor_enforced_with_enough_threads(self):
        doc = bench_doc(**{"checking off/8t efficiency": (0.4, ""),
                           "hardware_threads": (8.0, "")})
        base = self.write("base.json", bench_doc())
        fresh = self.write("fresh.json", doc)
        rc, _, err = run_gate("bench_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("speedup/thread", err)

    def test_efficiency_floor_skipped_on_small_hosts(self):
        doc = bench_doc(**{"checking off/8t efficiency": (0.4, ""),
                           "hardware_threads": (2.0, "")})
        base = self.write("base.json", bench_doc())
        fresh = self.write("fresh.json", doc)
        rc, _, err = run_gate("bench_gate.py", base, fresh)
        self.assertEqual(rc, 0, err)
        self.assertIn("not enforced", err)

    def test_malformed_input_is_usage_error(self):
        base = self.write("base.json", bench_doc())
        bad = self.write("bad.json", "not json at all {")
        self.assertEqual(run_gate("bench_gate.py", base, bad)[0], 2)
        noresults = self.write("noresults.json", {"data": []})
        self.assertEqual(run_gate("bench_gate.py", base, noresults)[0], 2)

    def test_usage_without_args(self):
        self.assertEqual(run_gate("bench_gate.py")[0], 2)


def fuzz_doc(**machines):
    rows = [{"name": k, "covered": c, "reachable": r,
             "fraction": c / float(r)} for k, (c, r) in machines.items()]
    return {"seed": 1, "domain": "jni", "machines": rows}


class FuzzGateTest(GateFixtureTest):
    def test_full_coverage_passes(self):
        base = self.write("base.json", fuzz_doc(m=(9, 10)))
        rc, _, err = run_gate("fuzz_gate.py", base, base)
        self.assertEqual(rc, 0, err)

    def test_floor_breach_fails(self):
        base = self.write("base.json", fuzz_doc(m=(5, 10)))
        rc, _, err = run_gate("fuzz_gate.py", base, base)
        self.assertEqual(rc, 1)
        self.assertIn("floor", err)

    def test_regression_against_baseline_fails(self):
        base = self.write("base.json", fuzz_doc(m=(10, 10)))
        fresh = self.write("fresh.json", fuzz_doc(m=(9, 10)))
        rc, _, err = run_gate("fuzz_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("regressed", err)

    def test_machine_vanishing_fails(self):
        base = self.write("base.json", fuzz_doc(m=(10, 10), gone=(10, 10)))
        fresh = self.write("fresh.json", fuzz_doc(m=(10, 10)))
        rc, _, err = run_gate("fuzz_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("missing", err)


def verify_source(kind="micro", must=1, oracle=1, may=0, confirmed=1):
    report = {"machine": "M", "function": "f", "message": "boom",
              "end_of_run": False}
    return {"kind": kind, "source": "s", "pass": True,
            "must": [report] * must, "may": [report] * may,
            "oracle": [report] * oracle, "failures": [],
            "stats": {"abstract_confirmed": confirmed}}


class VerifyGateTest(GateFixtureTest):
    """verify_gate runs a binary; a tiny stub script plays jinn-verify."""

    def stub(self, doc):
        path = os.path.join(self._dir.name, "fake-verify")
        with open(path, "w") as f:
            f.write("#!%s\nimport json\nprint(json.dumps(%r))\n"
                    % (sys.executable, doc))
        os.chmod(path, 0o755)
        return path

    def test_agreeing_document_passes(self):
        binary = self.stub({"pass": True, "sources": [verify_source()]})
        rc, _, err = run_gate("verify_gate.py", binary)
        self.assertEqual(rc, 0, err)

    def test_must_oracle_divergence_fails(self):
        binary = self.stub({"pass": True,
                            "sources": [verify_source(must=0, oracle=1)]})
        rc, _, err = run_gate("verify_gate.py", binary)
        self.assertEqual(rc, 1)
        self.assertIn("differs from the dynamic oracle", err)

    def test_may_on_straight_line_fails(self):
        binary = self.stub({"pass": True,
                            "sources": [verify_source(may=1)]})
        rc, _, err = run_gate("verify_gate.py", binary)
        self.assertEqual(rc, 1)
        self.assertIn("may-verdict", err)

    def test_unconfirmed_abstract_reports_fail(self):
        binary = self.stub({"pass": True,
                            "sources": [verify_source(confirmed=0)]})
        rc, _, err = run_gate("verify_gate.py", binary)
        self.assertEqual(rc, 1)
        self.assertIn("confirmed", err)

    def test_unparseable_output_fails(self):
        path = os.path.join(self._dir.name, "broken-verify")
        with open(path, "w") as f:
            f.write("#!%s\nprint('not json')\n" % sys.executable)
        os.chmod(path, 0o755)
        self.assertEqual(run_gate("verify_gate.py", path)[0], 1)


def monitor_doc(rss=100.0, ceiling=512.0, p99=4000.0, reports=3.0,
                verified="true"):
    return {"results": [
        {"name": "max_peak_rss_mb", "value": rss, "unit": "MB"},
        {"name": "rss_ceiling_mb", "value": ceiling, "unit": "MB"},
        {"name": "sampled16/p99_crossing_ns", "value": p99, "unit": "ns"},
        {"name": "reports_n16", "value": reports, "unit": ""},
        {"name": "replay_verified", "value": verified, "unit": ""},
    ]}


class MonitorGateTest(GateFixtureTest):
    def test_healthy_soak_passes(self):
        base = self.write("base.json", monitor_doc())
        rc, _, err = run_gate("monitor_gate.py", base, base)
        self.assertEqual(rc, 0, err)

    def test_rss_breach_fails(self):
        base = self.write("base.json", monitor_doc())
        fresh = self.write("fresh.json", monitor_doc(rss=600.0))
        rc, _, err = run_gate("monitor_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("ceiling", err)

    def test_p99_regression_fails(self):
        base = self.write("base.json", monitor_doc(p99=1000.0))
        fresh = self.write("fresh.json", monitor_doc(p99=2000.0))
        rc, _, err = run_gate("monitor_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("p99", err)

    def test_zero_reports_fail(self):
        base = self.write("base.json", monitor_doc())
        fresh = self.write("fresh.json", monitor_doc(reports=0.0))
        rc, _, err = run_gate("monitor_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("zero reports", err)

    def test_failed_replay_verification_fails(self):
        base = self.write("base.json", monitor_doc())
        fresh = self.write("fresh.json", monitor_doc(verified="false"))
        rc, _, err = run_gate("monitor_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("replay", err)

    def test_malformed_input_is_usage_error(self):
        base = self.write("base.json", monitor_doc())
        bad = self.write("bad.json", "[1, 2, 3]")
        self.assertEqual(run_gate("monitor_gate.py", base, bad)[0], 2)


def mutate_doc(rows, errors=0):
    killed = sum(1 for r in rows if r["status"] == "killed")
    survived = sum(1 for r in rows if r["status"] == "survived")
    noneq = [r for r in rows if r["expect"] != "survives-equivalent"]
    noneq_killed = sum(1 for r in noneq if r["status"] == "killed")
    return {"schema": "jinn-mutate-v1", "total": len(rows),
            "killed": killed, "survived": survived, "errors": errors,
            "non_equivalent": len(noneq),
            "kill_rate_non_equivalent":
                (noneq_killed / float(len(noneq))) if noneq else 1.0,
            "mutants": rows}


def mutant_row(mid, status="killed", expect="killed"):
    return {"id": mid, "name": "m%d" % mid, "op_class": "dropped-check",
            "target": "spec", "site": "s", "expect": expect,
            "status": status, "killed_by": ["probes"], "details": []}


class MutateGateTest(GateFixtureTest):
    def test_all_killed_passes(self):
        doc = mutate_doc([mutant_row(1), mutant_row(2)])
        base = self.write("base.json", doc)
        rc, out, err = run_gate("mutate_gate.py", base, base)
        self.assertEqual(rc, 0, err)
        self.assertIn("2/2", out)

    def test_annotated_survivors_pass_and_are_printed(self):
        doc = mutate_doc([
            mutant_row(1),
            mutant_row(2, "survived", "survives-equivalent"),
            mutant_row(3, "survived", "survives-blind-spot"),
            mutant_row(4), mutant_row(5), mutant_row(6), mutant_row(7)])
        base = self.write("base.json", doc)
        rc, out, err = run_gate("mutate_gate.py", base, base)
        self.assertEqual(rc, 0, err)
        self.assertIn("equivalent", out)
        self.assertIn("blind spot", out)

    def test_unannotated_survivor_fails(self):
        good = mutate_doc([mutant_row(i) for i in range(1, 7)])
        bad_rows = [mutant_row(i) for i in range(1, 6)]
        bad_rows.append(mutant_row(6, "survived", "killed"))
        base = self.write("base.json", good)
        fresh = self.write("fresh.json", mutate_doc(bad_rows))
        rc, _, err = run_gate("mutate_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("annotated killable", err)

    def test_kill_rate_floor_fails(self):
        rows = [mutant_row(1),
                mutant_row(2, "survived", "survives-blind-spot"),
                mutant_row(3, "survived", "survives-blind-spot")]
        base = self.write("base.json", mutate_doc(rows))
        rc, _, err = run_gate("mutate_gate.py", base, base)
        self.assertEqual(rc, 1)
        self.assertIn("kill rate", err)

    def test_kill_regression_fails(self):
        base = self.write("base.json", mutate_doc(
            [mutant_row(i) for i in range(1, 7)]))
        rows = [mutant_row(i) for i in range(1, 6)]
        rows.append(mutant_row(6, "survived", "survives-blind-spot"))
        fresh = self.write("fresh.json", mutate_doc(rows))
        rc, _, err = run_gate("mutate_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("regression", err)

    def test_campaign_error_fails(self):
        rows = [mutant_row(1), mutant_row(2, "build-failed")]
        base = self.write("base.json", mutate_doc(rows, errors=1))
        rc, _, err = run_gate("mutate_gate.py", base, base)
        self.assertEqual(rc, 1)
        self.assertIn("campaign error", err)

    def test_missing_mutant_fails(self):
        base = self.write("base.json", mutate_doc(
            [mutant_row(1), mutant_row(2)]))
        fresh = self.write("fresh.json", mutate_doc([mutant_row(1)]))
        rc, _, err = run_gate("mutate_gate.py", base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("missing", err)

    def test_malformed_input_is_usage_error(self):
        base = self.write("base.json", mutate_doc([mutant_row(1)]))
        bad = self.write("bad.json", "{}")
        self.assertEqual(run_gate("mutate_gate.py", base, bad)[0], 2)


if __name__ == "__main__":
    unittest.main()
