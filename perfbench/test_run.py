#!/usr/bin/env python3
"""Tests of the fleet replay benchmark itself.

    python3 perfbench/test_run.py

Runs every workload at a tiny population through run.py, untraced and
traced, and checks that every metric BENCHMARK.json names is printed and
finite; then checks that run.py's correctness check rejects altered
reports.
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY_USERS = {"private": 6, "edge": 16, "churn": 8}


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--users", str(TINY_USERS[workload])],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(run.SPEC_PATH) as f:
            cls.spec = json.load(f)

    def check_run(self, workload, trace, section):
        result = bench(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for m in self.spec[section]:
            self.assertIn(m["name"], result["metrics"])
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_workload_prints_every_metric(self):
        for w in TINY_USERS:
            with self.subTest(workload=w, trace=0):
                self.check_run(w, 0, "end_to_end")
            with self.subTest(workload=w, trace=1):
                self.check_run(w, 1, "per_layer")


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        out = subprocess.run(
            [run.BINARY, "--workload", "churn", "--seed", "7", "--users",
             str(TINY_USERS["churn"]), "--traced"],
            capture_output=True, text=True, timeout=600, check=True)
        cls.rec = json.loads(out.stdout)

    def fresh(self):
        return json.loads(json.dumps(self.rec))

    def problems(self, rec):
        return run.check_pass(rec, True, self.rec["report"]["digest"])

    def test_unaltered_pass_is_correct(self):
        self.assertEqual(self.problems(self.fresh()), [])

    def test_altered_traced_report_fails(self):
        rec = self.fresh()
        text = rec["traced_serialized"]
        i = text.index('"visits":') + len('"visits":')
        rec["traced_serialized"] = text[:i] + "9" + text[i:]
        self.assertTrue(self.problems(rec))

    def test_changed_digest_fails(self):
        rec = self.fresh()
        rec["report"]["digest"] = "0" * 16
        self.assertTrue(self.problems(rec))

    def test_oracle_violation_fails(self):
        rec = self.fresh()
        rec["report"]["oracle_violations"] = 1
        self.assertTrue(self.problems(rec))

    def test_unbalanced_edge_accounting_fails(self):
        rec = self.fresh()
        rec["report"]["edge_pops"][0]["resolved"] += 1
        self.assertTrue(self.problems(rec))


if __name__ == "__main__":
    unittest.main()
