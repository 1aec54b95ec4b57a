"""The benchmark's own tests: every workload end to end at toy size, traced
and untraced, so the harness cannot rot.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)


class ToyWorkloads(unittest.TestCase):
    def check(self, workload, trace, metrics):
        out = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--toy")
        self.assertEqual(out.returncode, 0)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in metrics}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_reports_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0, SPEC["end_to_end"])

    def test_every_workload_reports_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, SPEC["per_layer"])

    def test_unknown_workload_fails(self):
        self.assertNotEqual(bench("--workload", "nope", "--seed", "1").returncode, 0)


class TcpFaultTally(unittest.TestCase):
    """The TCP run that `tcp_fault.py` repeats works end to end."""

    def test_a_toy_tally_runs_without_other_failures(self):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "tcp_fault.py"),
                              "--runs", "2", "--toy"],
                             cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.assertEqual(out.returncode, 0)
        tally = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(tally["runs"], 2)
        self.assertEqual(tally["other_failures"], 0)


class OutputChecks(unittest.TestCase):
    """The byte-identity check must catch an ensemble that differs."""

    def test_a_wrong_reference_fails_the_run(self):
        binary = run.build()
        self.assertIsNotNone(binary)
        work = run.WORK_ROOT / "test-wrong-reference"
        common = ["--workload", "inproc-1x2-sync-exchange", "--toy"]
        ref = work / "other-seed.lpz"
        work.mkdir(parents=True, exist_ok=True)
        try:
            made = run.run_child([binary, "reference", *common, "--seed", "2", "--out", ref])
            self.assertTrue(made and made["ok"])
            result = run.run_child([binary, "rep", *common, "--seed", "1",
                                    "--work", work / "rep", "--reference", ref])
            self.assertIsNotNone(result)
            self.assertFalse(result["ok"])
            self.assertIn("differs from the reference", result["error"])
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
