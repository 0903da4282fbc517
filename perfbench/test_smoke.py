#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny scale, one rep, no
timing gate. Asserts that every metric BENCHMARK.json names is emitted with
its unit and that every correctness check passes, with tracing off and on.

    python3 perfbench/test_smoke.py      # from the repository root
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        record, result = run_smoke(workload, trace)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], record["failures"])
        self.assertEqual(result["failed"], 0, record["failures"])
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        for key in ("nproc", "cpu_model", "compiler", "git_sha", "source_sha256"):
            self.assertIn(key, record["host"])


def add_case(workload, trace):
    name = "test_%s_trace%d" % (workload.replace("-", "_"), trace)
    setattr(Smoke, name, lambda self: self.check(workload, trace))


for w in SPEC["workloads"]:
    for t in (0, 1):
        add_case(w["name"], t)

if __name__ == "__main__":
    unittest.main()
