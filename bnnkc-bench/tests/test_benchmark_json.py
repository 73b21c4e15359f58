"""Checks that BENCHMARK.json is well formed.

Run from the repository root:

    python3 -m unittest discover -s bnnkc-bench/tests -v

That its metrics and workloads match the benchmark's own registry is
checked on the Rust side (`cargo test`, `src/report.rs`), which also
checks that every per-layer metric names an end-to-end target.
"""

import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.doc = load_json()

    def test_shape(self):
        doc = self.doc
        self.assertEqual(
            set(doc),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(1 <= len(doc["paths"]) <= 16)
        for p in doc["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        cmd = doc["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for arg in cmd:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(
            any(arg.startswith(p + "/") for arg in cmd for p in doc["paths"]),
            "the command runs a file of the benchmark",
        )
        self.assertIsInstance(doc["run_seconds"], int)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        self.assertLessEqual(len(json.dumps(doc)), 64 * 1024)

    def test_workloads_carry_a_why(self):
        workloads = self.doc["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_metrics_are_well_formed(self):
        doc = self.doc
        self.assertTrue(1 <= len(doc["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(doc["per_layer"]) <= 128)
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for m in doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for section in ("end_to_end", "per_layer"):
            for m in doc[section]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(
            setup[0]["bound"], max(m["bound"] for m in doc["end_to_end"]),
            "setup_s has the largest bound",
        )

    def test_budget(self):
        # 4 + 22 runs per workload must fit the 3420 s window with room
        # for set-up and builds. Measured on a 2-vCPU host, an untraced
        # run takes at most run_seconds + 18 s (edge) and a traced one at
        # most run_seconds + 38 s (batch); take the 4 extra runs as traced.
        doc = self.doc
        runs = 22 * len(doc["workloads"])
        wall = 4 * (doc["run_seconds"] + 38) + runs * (doc["run_seconds"] + 18)
        self.assertLess(wall, 3420 - 300)


if __name__ == "__main__":
    unittest.main()
