#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 e2ebench/tests/test_bench.py

Builds the benchmark (as run.py does), runs its gate unit tests, smokes
every workload at a tiny simulated horizon in both passes, checks that the
printed metric names and units are exactly those BENCHMARK.json declares,
and checks that run.py fails cleanly when the product sources are absent.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Tiny horizon and no time budget: each pass does only its minimum runs.
SMOKE = ["--seconds", "0", "--horizon", "0.2"]


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build() / "e2ebench"
        cls.results = {}
        for w in SPEC["workloads"]:
            for trace in ("0", "1"):
                out = subprocess.run(
                    [str(cls.binary), "--workload", w["name"], "--seed", "5",
                     "--trace", trace, *SMOKE],
                    capture_output=True, text=True, check=True)
                cls.results[(w["name"], trace)] = out.stdout

    def test_gate_unit_tests(self):
        build = run.build("e2ebench_test")
        subprocess.run([str(build / "e2ebench_test")], check=True, capture_output=True)

    def test_every_workload_passes_its_gate(self):
        for (name, trace), stdout in self.results.items():
            with self.subTest(workload=name, trace=trace):
                res = result_of(stdout)
                self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(res["correct"], stdout)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)

    def test_metric_names_and_units_match_spec(self):
        want = {"0": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
        for (name, trace), stdout in self.results.items():
            with self.subTest(workload=name, trace=trace):
                got = {k: v["unit"] for k, v in result_of(stdout)["metrics"].items()}
                self.assertEqual(got, want[trace])

    def test_result_row_is_stamped(self):
        for (name, trace), stdout in self.results.items():
            with self.subTest(workload=name, trace=trace):
                row = json.loads(stdout.strip().splitlines()[-2])["row"]
                self.assertEqual(sorted(row["stamp"]), ["build_type", "compiler", "git_describe",
                                                        "hardware_concurrency", "nproc"])
                self.assertEqual(row["workload"], name)

    def test_end_to_end_metrics_are_nonzero(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = result_of(self.results[(w["name"], "0")])["metrics"]
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_fails_without_product_sources(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_build") as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(run.ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            cmd = SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", "0"]
            out = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
