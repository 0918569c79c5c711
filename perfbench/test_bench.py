#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py          # from the repository root

Checks BENCHMARK.json against the benchmark contract and against the
metric catalog compiled into perfbench (names, units, bounds, and that
every per-layer metric predicts an end-to-end metric on a workload),
runs perfbench's unit tests, runs the smoke mode (all four workloads,
tiny, verification on), and checks that the benchmark refuses to run
without the repository's sources next to it.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENV = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR",
                                                       os.path.join(ROOT, ".bench_build")))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def catalog():
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
                    os.path.join(HERE, "Cargo.toml")], check=True, env=ENV)
    exe = os.path.join(ENV["CARGO_TARGET_DIR"], "release", "perfbench")
    return json.loads(subprocess.run([exe, "--catalog"], check=True, capture_output=True,
                                     text=True).stdout)


class Contract(unittest.TestCase):
    def setUp(self):
        self.b = load_benchmark()

    def test_keys_and_shape(self):
        self.assertEqual(set(self.b), {"command", "paths", "run_seconds", "workloads",
                                       "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(self.b["paths"]) <= 16)
        self.assertTrue(1 <= len(self.b["command"]) <= 32)
        self.assertTrue(isinstance(self.b["run_seconds"], int) and 1 <= self.b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(self.b["workloads"]) <= 8)
        self.assertTrue(1 <= len(self.b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.b["per_layer"]) <= 128)
        self.assertLessEqual(len(json.dumps(self.b)), 64 * 1024)

    def test_names_units_and_bounds(self):
        names = []
        for w in self.b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in self.b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            names.append(m["name"])
        for m in self.b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.b["end_to_end"] + self.b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in self.b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.b["end_to_end"]))

    def test_paths_hold_the_benchmark(self):
        for p in self.b["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        for arg in self.b["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))


class Catalog(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.b = load_benchmark()
        cls.c = catalog()

    def test_workloads_match(self):
        self.assertEqual(self.b["workloads"],
                         [{"name": w["name"], "why": w["why"]} for w in self.c["workloads"]])

    def test_end_to_end_match(self):
        self.assertEqual(self.b["end_to_end"],
                         [{k: m[k] for k in ("name", "unit", "better", "bound")}
                          for m in self.c["end_to_end"]])

    def test_per_layer_match_and_predict(self):
        self.assertEqual(self.b["per_layer"],
                         [{k: m[k] for k in ("name", "unit", "better")}
                          for m in self.c["per_layer"]])
        e2e = {m["name"] for m in self.b["end_to_end"]}
        workloads = {w["name"] for w in self.b["workloads"]}
        for m in self.c["per_layer"]:
            self.assertTrue(m["moves"], m["name"])
            for metric, workload in m["moves"]:
                self.assertIn(metric, e2e, m["name"])
                self.assertIn(workload, workloads, m["name"])


class Runs(unittest.TestCase):
    def test_unit_tests(self):
        subprocess.run(["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path",
                        os.path.join(HERE, "Cargo.toml")], check=True, env=ENV)

    def test_smoke_runs_every_workload_verified(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                              cwd=ROOT, env=ENV, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        for w in load_benchmark()["workloads"]:
            self.assertIn(f"== {w['name']} (", proc.stderr)

    def test_refuses_without_the_repository(self):
        alone = os.path.join(ROOT, ".bench_work", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("target"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        cmd = load_benchmark()["command"] + ["--workload", "fig4-sweep", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=alone, capture_output=True, text=True, timeout=180,
                              env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
