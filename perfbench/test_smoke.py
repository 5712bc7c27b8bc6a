#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/test_smoke.py

Runs every workload briefly, untraced and traced. It checks that each run
is correct, that every metric named in BENCHMARK.json is printed with its
unit, and that the server's stage sums reconcile with its wire latency
within 40% + 200 us per request.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE_SECONDS = "3"
# Every workload run.py offers, gated in BENCHMARK.json or not.
WORKLOADS = ["serve-small", "serve-large", "engine-offline"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7",
           "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace={trace} failed ({out.returncode}):\n"
                             f"{out.stderr[-4000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check(self, workload, trace, group):
        report, result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], report.get("violations"))
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, report["phases"])
        printed = result["metrics"]
        self.assertEqual(set(printed), {m["name"] for m in spec()[group]})
        for m in spec()[group]:
            got = printed[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        for key in ("nproc", "cpu_model", "avx2", "avx512f", "commit", "profile",
                    "rustc", "load_before", "load_after", "server_flags"):
            self.assertIn(key, report["environment"])
        return report, printed

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                report, m = self.check(w, 0, "end_to_end")
                for name in ("setup_s", "throughput_fps", "latency_p50_us",
                             "served_ratio", "cpu_us_per_frame"):
                    self.assertGreater(m[name]["value"], 0, name)
                # Reported, not gated (see README).
                self.assertGreater(report["slo_rate_fps"], 0)

    def test_per_layer_metrics_and_stage_reconciliation(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, m = self.check(w, 1, "per_layer")
                wire = m["server.wire_us"]["value"]
                stage_sum = m["server.stage_sum_ratio"]["value"] * wire
                self.assertGreater(wire, 0)
                self.assertLessEqual(abs(stage_sum - wire), 0.4 * wire + 200.0)


if __name__ == "__main__":
    unittest.main()
