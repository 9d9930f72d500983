"""The benchmark's own test: tiny runs of every workload.

    python3 -m unittest perfbench/test_bench.py

Each workload runs twice at the tiny size; its deterministic counts,
CLI report bytes included, must repeat exactly and no operation may
fail.  A traced run must report every per-layer metric, and the
benchmark must refuse to run without the nucforce sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suites", "wide-search", "machine")
LAYERS = ("algebra", "nucleus", "formula", "translate", "hmodel", "realizability", "cli")


def bench(cwd: Path, workload: str, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def parsed(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            self.spec = json.load(fh)

    def test_counts_repeat_and_nothing_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (parsed(bench(ROOT, workload)) for _ in range(2))
                for context, result in (first, second):
                    self.assertTrue(result["correct"], context["errors"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(context["fail_frac"], 0)
                    self.assertGreaterEqual(context["repetitions"], 3)
                    self.assertEqual(len(set(context["work_per_repetition"])), 1)
                self.assertEqual(first[0]["counts"], second[0]["counts"])
                self.assertGreater(first[0]["counts"]["cli.main.report_bytes"], 0)
                units = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
                self.assertEqual({k: v["unit"] for k, v in first[1]["metrics"].items()}, units)
                self.assertTrue(all(v["value"] > 0 for v in first[1]["metrics"].values()))

    def test_traced_run_reports_every_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                context, result = parsed(bench(ROOT, workload, trace=1))
                self.assertTrue(result["correct"], context["errors"])
                metrics = result["metrics"]
                self.assertEqual(set(metrics), {m["name"] for m in self.spec["per_layer"]})
                for layer in LAYERS:
                    self.assertGreater(metrics[f"{layer}.self_s"]["value"], 0, layer)
                busy = [m["name"] for m in self.spec["per_layer"] if m["name"].endswith(".busy_s")]
                self.assertTrue(all(metrics[name]["value"] > 0 for name in busy))

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench(Path(tmp), "suites")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
