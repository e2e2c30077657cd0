"""Tests of the benchmark's own checks and output.

    python3 -m unittest perfbench/selftest.py     (from the repo root)

Each test runs ``perfbench/run.py`` for about a second per slice:

* a reply broken on purpose (``--inject corrupt`` / ``--inject
  missing``) must be counted in ``failed`` and fail the command, on
  every workload;
* a short run of each workload, untraced and traced, must print every
  metric ``BENCHMARK.json`` declares, plus the workload's
  human-readable names;
* the command must refuse to run where the program is missing.

The file is not named ``test_*.py`` on purpose: the repository's
tier-1 ``pytest`` run does not collect it.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kernel-closed", "openloop-bulk", "serve-udp")


def bench(workload, trace=0, inject=None, seconds="1", cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "5", "--seconds", seconds,
            "--trace", str(trace)]
    if inject:
        argv += ["--inject", inject]
    proc = subprocess.run(argv, cwd=str(cwd), capture_output=True,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and \
        lines[-1].startswith("{") else None
    return proc, result


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as handle:
        return [metric["name"] for metric in json.load(handle)[kind]]


class BrokenReplyTest(unittest.TestCase):
    """A corrupted or a missing reply is a failed op and a failed run."""

    def check(self, workload, inject):
        proc, result = bench(workload, inject=inject)
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        self.assertIsNotNone(result, proc.stderr)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("CHECK FAILED", proc.stdout)

    def test_corrupted_reply(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "corrupt")

    def test_missing_reply(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "missing")


class SmokeTest(unittest.TestCase):
    """Every declared metric is printed, by name and unit."""

    HUMAN = {
        "kernel-closed": ("sim_rps", "setup_s", "peak_rss_mb",
                          "ops_attempted", "ops_failed", "max_qps",
                          "kernel.avg_cycles"),
        "openloop-bulk": ("sim_rps", "setup_s", "peak_rss_mb",
                          "ops_attempted", "ops_failed", "max_qps"),
        "serve-udp": ("serve_rps", "serve_p50_us", "serve_p99_us",
                      "setup_s", "peak_rss_mb", "ops_attempted",
                      "ops_failed"),
    }

    def check(self, workload, trace, kind):
        proc, result = bench(workload, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(declared(kind)))
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(metric["unit"], name)
        return proc.stdout, result["metrics"]

    def test_untraced_runs_print_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out, metrics = self.check(workload, 0, "end_to_end")
                for name in self.HUMAN[workload]:
                    self.assertIn(name, out)
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_print_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, "per_layer")


class RefusalTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(HERE, Path(scratch) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = bench("kernel-closed", cwd=scratch)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
