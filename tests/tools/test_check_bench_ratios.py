"""Tests for tools/check_bench_ratios.py, the CI complexity gate.

Synthetic google-benchmark JSON covers the three behaviours the gate must
have: pass when per-item cost is flat, fail loudly when a hot path regresses
to O(n), and fail loudly when an expected benchmark is missing or renamed
(a renamed benchmark must not silently skip the gate).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
TOOL = os.path.join(REPO, "tools", "check_bench_ratios.py")


def bench(name, items_per_second, run_type="iteration"):
    return {"name": name, "run_type": run_type,
            "items_per_second": items_per_second}


def run_gate(benchmarks):
    with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False) as f:
        json.dump({"benchmarks": benchmarks}, f)
        path = f.name
    try:
        return subprocess.run([sys.executable, TOOL, path],
                              capture_output=True, text=True, check=False)
    finally:
        os.unlink(path)


def healthy():
    """A run where every gated ratio sits comfortably inside its bound."""
    return [
        bench("BM_PsResourceChurn/4", 1.0e7),
        bench("BM_PsResourceChurn/2048", 2.5e6),        # 4x (bound 10x)
        bench("BM_WarehouseIngestQuery/3600", 5.0e6),
        bench("BM_WarehouseIngestQuery/14400", 2.0e6),  # 2.5x (bound 6x)
        bench("BM_LaneSessionChurn/4096/real_time", 1.1e7),
        bench("BM_LaneSessionChurn/65536/real_time", 8.8e6),  # 1.25x (5x)
    ]


class CheckBenchRatios(unittest.TestCase):
    def test_flat_hot_paths_pass(self):
        result = run_gate(healthy())
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)
        self.assertIn("OK", result.stdout)
        self.assertNotIn("FAIL", result.stdout)

    def test_regressed_ratio_fails(self):
        rows = healthy()
        rows[1] = bench("BM_PsResourceChurn/2048", 1.6e4)  # ~625x: O(n) back
        result = run_gate(rows)
        self.assertEqual(result.returncode, 1)
        self.assertIn("FAIL", result.stdout)
        self.assertIn("no longer flat", result.stderr)

    def test_missing_benchmark_fails_not_skips(self):
        rows = [r for r in healthy()
                if r["name"] != "BM_PsResourceChurn/2048"]
        result = run_gate(rows)
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing benchmark", result.stderr)

    def test_renamed_benchmark_fails_not_skips(self):
        rows = healthy()
        rows[3]["name"] = "BM_WarehouseIngestQuery/14400_new"
        result = run_gate(rows)
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing benchmark", result.stderr)

    def test_aggregate_rows_do_not_satisfy_the_gate(self):
        # Aggregate rows (mean/median when repetitions are on) must be
        # ignored: if only aggregates carry a name, the gate treats the
        # benchmark as missing rather than gating on a smoothed number.
        rows = healthy()
        rows[1]["run_type"] = "aggregate"
        result = run_gate(rows)
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing benchmark", result.stderr)

    def test_usage_error_without_argument(self):
        result = subprocess.run([sys.executable, TOOL],
                                capture_output=True, text=True, check=False)
        self.assertEqual(result.returncode, 2)


if __name__ == "__main__":
    unittest.main()
