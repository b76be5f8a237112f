#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a source checkout:

    python3 perfbench/test_bench.py

- Seed check: every workload's input generator and output checks run on a
  non-default seed, so a later claim can be re-checked on an unseen seed.
- The traced run writes a Chrome trace that `acc trace --validate` accepts,
  and reports every per-layer metric named in BENCHMARK.json.
- Every end-to-end metric of BENCHMARK.json is printed by an end-to-end run.
- In a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
SEED = 7  # not a default seed
SHORT = "2"  # seconds: one pass or a few requests is enough for a check

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, cwd=ROOT):
    p = subprocess.run(RUN + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", SHORT, "--trace", str(trace)],
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
    return p, last


class Bench(unittest.TestCase):
    def assert_result(self, p, last, names):
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        res = json.loads(last)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], p.stdout[-3000:])
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(set(res["metrics"]), set(names))
        for m in res["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
        return res

    def test_seed_check_every_workload(self):
        e2e = [m["name"] for m in SPEC["end_to_end"]]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                p, last = bench(w["name"], 0)
                res = self.assert_result(p, last, e2e)
                self.assertEqual(res["metrics"]["ok_ratio"]["value"], 1.0)

    def test_traced_run_validates(self):
        per_layer = [m["name"] for m in SPEC["per_layer"]]
        p, last = bench("edit-serve", 1)
        self.assert_result(p, last, per_layer)
        trace = os.path.join(ROOT, ".perfbench", "traced", "trace.json")
        acc = os.path.join(ROOT, "_build", "default", "bin", "acc.exe")
        v = subprocess.run([acc, "trace", "--validate", trace], capture_output=True, text=True)
        self.assertEqual(v.returncode, 0, v.stderr)
        self.assertIn("unattributed_s", p.stdout)

    def test_fails_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(d, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            p, last = bench("table5-translate", 0, cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
