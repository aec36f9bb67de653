#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks: the reference match
count, the percentile helper and span self time (the binary's
--self-test); that the metric names match BENCHMARK.json; and a
seconds-long smoke run of every workload, untraced and traced.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=240)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stdout + out.stderr)
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


class SelfTest(unittest.TestCase):
    def test_reference_percentiles_and_self_time(self):
        out = subprocess.run([BINARY, "--self-test"], capture_output=True,
                             text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("self-test ok", out.stdout)


class MetricNames(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                                text=True, check=True).stdout.split("\n")
        got = {"end_to_end": [], "per_layer": []}
        for line in filter(None, listed):
            kind, name, unit = line.split()
            got[kind].append((name, unit))
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(got[kind], [(m["name"], m["unit"]) for m in spec[kind]])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))


class Smoke(unittest.TestCase):
    def check(self, result, names):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(names))

    def names(self, kind):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return [m["name"] for m in json.load(f)[kind]]

    def test_every_workload_untraced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                result = bench(w, 0)
                self.check(result, self.names("end_to_end"))
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_every_workload_traced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check(bench(w, 1), self.names("per_layer"))


if __name__ == "__main__":
    unittest.main()
