#!/usr/bin/env python3
"""Tests for scripts/perf_gate.py against fake perfbench trees.

Each fake tree holds a BENCHMARK.json and a perfbench/run.py that prints a
stamp line and then a canned result line per (workload, seed), and logs
its own invocations, so the gate runs end to end through subprocesses.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(os.path.dirname(HERE), "scripts", "perf_gate.py")

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 7,
    "workloads": [{"name": "api_cold"}, {"name": "calibrate"}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "cycle_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
}

FAKE_RUN = """\
import argparse, json, os
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag, required=True)
a = ap.parse_args()
here = os.path.dirname(os.path.abspath(__file__))
tree = os.path.basename(os.path.dirname(here))
with open(os.path.join(here, "calls.log"), "a") as f:
    f.write(f"{tree} {a.workload} {a.seed} {a.seconds} {a.trace}\\n")
with open(os.path.join(here, "lines.json")) as f:
    lines = json.load(f)[a.workload]
print(json.dumps({"stamp": {}}))
print(lines[(int(a.seed) - 1) % len(lines)])
"""


def result(ops=1000.0, p50=2.0, correct=True, attempted=1000, failed=0):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                    "cycle_p50_ms": {"value": p50, "unit": "ms"}}})


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.roots = {}

    def tree(self, name, lines):
        """A fake checkout whose run.py prints `lines[workload][seed - 1]`."""
        root = os.path.join(tempfile.mkdtemp(dir=self.tmp.name), name)
        os.makedirs(os.path.join(root, "perfbench"))
        self.roots[name] = root
        with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
            json.dump(SPEC, f)
        with open(os.path.join(root, "perfbench", "run.py"), "w") as f:
            f.write(FAKE_RUN)
        with open(os.path.join(root, "perfbench", "lines.json"), "w") as f:
            json.dump(lines, f)
        return root

    def gate(self, parent_lines, change_lines):
        parent = self.tree("parent", parent_lines)
        change = self.tree("change", change_lines)
        return subprocess.run([sys.executable, GATE, parent, change],
                              capture_output=True, text=True, timeout=60)

    def both(self, line):
        return {"api_cold": [line], "calibrate": [result()]}

    def test_pass_within_the_bound(self):
        done = self.gate(self.both(result()), self.both(result(ops=800.0, p50=2.4)))
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("PASS api_cold ops_per_s: parent 1000 change 800 (-20.0%", done.stdout)
        self.assertIn("PASS api_cold cycle_p50_ms", done.stdout)
        # One verdict per (workload, metric) plus correct and failed_share.
        verdicts = [l for l in done.stdout.splitlines() if l.startswith(("PASS ", "FAIL "))]
        self.assertEqual(len(verdicts), 2 * (2 + 2))

    def test_fail_beyond_the_bound_when_higher_is_better(self):
        done = self.gate(self.both(result()), self.both(result(ops=700.0)))
        self.assertEqual(done.returncode, 1)
        self.assertIn("FAIL api_cold ops_per_s: parent 1000 change 700 (-30.0%", done.stdout)
        self.assertIn("PASS api_cold cycle_p50_ms", done.stdout)
        self.assertIn("perf_gate: FAIL (1 of 8 checks failed)", done.stdout)

    def test_fail_beyond_the_bound_when_lower_is_better(self):
        done = self.gate(self.both(result()), self.both(result(p50=2.6)))
        self.assertEqual(done.returncode, 1)
        self.assertIn("FAIL api_cold cycle_p50_ms: parent 2 change 2.6 (+30.0%", done.stdout)
        self.assertIn("PASS api_cold ops_per_s", done.stdout)

    def test_gains_never_fail(self):
        done = self.gate(self.both(result()), self.both(result(ops=5000.0, p50=0.1)))
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_compares_medians_over_the_pairs(self):
        # One slow change run out of three does not move the median.
        parent = {"api_cold": [result()], "calibrate": [result()]}
        change = {"api_cold": [result(ops=100.0), result(), result()], "calibrate": [result()]}
        done = self.gate(parent, change)
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_verdicts_list_every_run_beside_the_medians(self):
        # Runs print in pair order (seeds 1, 2, 3), not sorted, so the
        # spread behind each median is readable from the verdict line.
        parent = {"api_cold": [result(ops=1000.0), result(ops=900.0), result(ops=1100.0)],
                  "calibrate": [result()]}
        change = {"api_cold": [result(ops=1200.0, p50=1.5), result(ops=1250.5), result()],
                  "calibrate": [result()]}
        done = self.gate(parent, change)
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertIn("PASS api_cold ops_per_s: parent 1000 change 1200 (+20.0%; bound 25%, "
                      "higher is better); runs parent [1000, 900, 1100] -> "
                      "change [1200, 1250.5, 1000]", done.stdout)
        self.assertIn("PASS api_cold cycle_p50_ms: parent 2 change 2 (+0.0%; bound 25%, "
                      "lower is better); runs parent [2, 2, 2] -> change [1.5, 2, 2]",
                      done.stdout)
        # A failing verdict carries its runs too; the summary line is unchanged.
        done = self.gate(self.both(result()), self.both(result(ops=700.0)))
        self.assertEqual(done.returncode, 1)
        self.assertIn("FAIL api_cold ops_per_s: parent 1000 change 700 (-30.0%; bound 25%, "
                      "higher is better); runs parent [1000, 1000, 1000] -> "
                      "change [700, 700, 700]", done.stdout)
        self.assertIn("perf_gate: FAIL (1 of 8 checks failed)", done.stdout)

    def test_fail_when_a_run_is_not_correct(self):
        done = self.gate(self.both(result()), self.both(result(correct=False)))
        self.assertEqual(done.returncode, 1)
        self.assertIn("FAIL api_cold correct: parent 3/3 change 0/3 runs", done.stdout)

    def test_fail_when_the_failure_share_rises(self):
        done = self.gate(self.both(result()), self.both(result(failed=1)))
        self.assertEqual(done.returncode, 1)
        self.assertIn("FAIL api_cold failed_share: parent 0 change 0.001", done.stdout)

    def test_malformed_result_line_is_a_one_line_error(self):
        for bad in ("not json", json.dumps({"correct": True}), json.dumps([1, 2]),
                    json.dumps({"correct": True, "attempted": 1, "failed": 0,
                                "metrics": {"ops_per_s": "fast"}})):
            with self.subTest(bad=bad):
                done = self.gate(self.both(result()), self.both(bad))
                self.assertEqual(done.returncode, 2)
                self.assertNotIn("Traceback", done.stderr)
                errors = [l for l in done.stderr.splitlines() if "error" in l]
                self.assertEqual(len(errors), 1, done.stderr)
                self.assertIn("api_cold pair 1/3 change: malformed result line", errors[0])

    def test_missing_tree_is_a_one_line_error(self):
        parent = self.tree("parent", self.both(result()))
        done = subprocess.run([sys.executable, GATE, parent, os.path.join(self.tmp.name, "nope")],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(done.returncode, 2)
        self.assertNotIn("Traceback", done.stderr)
        self.assertIn("has no perfbench/run.py", done.stderr)

    def test_runs_alternating_pairs_at_the_declared_seconds_untraced(self):
        done = self.gate(self.both(result()), self.both(result()))
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        calls = []
        for side in ("parent", "change"):
            with open(os.path.join(self.roots[side], "perfbench", "calls.log")) as f:
                calls += f.read().splitlines()
        api = sorted(c for c in calls if " api_cold " in c)
        self.assertEqual(api, sorted(f"{side} api_cold {seed} 7 0"
                                     for side in ("parent", "change") for seed in (1, 2, 3)))
        # Pair order alternates: parent first in pair 1, change first in pair 2.
        log = [l.split()[-1] for l in done.stderr.splitlines() if "api_cold pair" in l]
        self.assertEqual(log, ["parent", "change", "change", "parent", "parent", "change"])


if __name__ == "__main__":
    unittest.main()
