"""Tests of the benchmark harness itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They run shortened workloads in-process: fixed seeds must repeat every
exact count, a second seed must pass every check, the traced and untraced
runs must agree on the mul counts, and a broken multiplication must show up
as failed tasks.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BB = run.load_library()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT = ("bray.odd_branch_ratio", "bray.zeta_calls", "tricks.defined_ratio", "subgroups.closure_calls",
         "subgroups.closure_muls", "cli.construct_muls", "cli.op_muls", "gf.calls")
SHORT = {"bb_centralizer": 6, "bb_tricks": 30, "cli_audit": len(workloads.MIX)}


def traced(name: str, seed: int):
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.WORKLOADS[name](BB, seed, Path(tmp))
        wl.trace_tasks = SHORT[name]
        return run.traced(run.Loop(wl, time.monotonic() + 120), BB, seed)


def values(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()}


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_counts_and_second_seed_passes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = traced(name, 11)
                again = traced(name, 11)
                other = traced(name, 12)
                for attempted, failed, _, ok in (first, again, other):
                    self.assertTrue(ok, "traced mul counts or layer times disagree")
                    self.assertEqual(failed, 0)
                    self.assertEqual(attempted, 2 * SHORT[name])
                a, b = values(first[2]), values(again[2])
                for key in EXACT:
                    self.assertEqual(a[key], b[key], key)
                for key in ("tricks.muls_per_sqrt", "bray.muls_per_zeta", "powertools.muls_per_power"):
                    self.assertEqual(a[key], b[key], key)


class BrokenMultiplication(unittest.TestCase):
    """Reversing the product order still gives a group (the opposite one), so
    the oracles' own contract checks pass; the reference checks must not."""

    def _failures(self, cls, name: str, tasks: int) -> int:
        original = cls._mul_payload
        cls._mul_payload = lambda self, pa, pb: original(self, pb, pa)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                wl = workloads.WORKLOADS[name](BB, 3, Path(tmp))
                loop = run.Loop(wl, time.monotonic() + 120)
                loop.setup(1)
                return loop.measure(tasks).failed
        finally:
            cls._mul_payload = original

    def test_reversed_perm_product_fails_tasks(self):
        self.assertEqual(self._failures(BB.PermOracle, "bb_centralizer", 3), 3)

    def test_reversed_matrix_product_fails_tasks(self):
        self.assertEqual(self._failures(BB.MatrixOracle, "bb_tricks", 10), 10)


class CommandLine(unittest.TestCase):
    def _last_json(self, *args: str) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), *args],
            capture_output=True, text=True, timeout=170, check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_metric_names_match_benchmark_json(self):
        plain = self._last_json("--workload", "bb_tricks", "--seed", "5", "--seconds", "1", "--trace", "0")
        self.assertEqual(set(plain), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(plain["correct"])
        self.assertEqual({m["name"] for m in SPEC["end_to_end"]}, set(plain["metrics"]))
        for m in SPEC["end_to_end"]:
            self.assertEqual(plain["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(plain["metrics"][m["name"]]["value"], 0)
        spans = self._last_json("--workload", "bb_tricks", "--seed", "5", "--seconds", "1", "--trace", "1")
        self.assertTrue(spans["correct"])
        self.assertEqual({m["name"] for m in SPEC["per_layer"]}, set(spans["metrics"]))
        for m in SPEC["per_layer"]:
            self.assertEqual(spans["metrics"][m["name"]]["unit"], m["unit"])

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for f in HERE.glob("*.py"):
                (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bb_tricks", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
