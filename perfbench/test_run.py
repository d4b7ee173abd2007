"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The unit tests are instant. EmittedMetricsTest builds the benchmark and runs
every workload once per mode (about three minutes on 4 CPUs).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def fake_pass(op_ms, failed=0, errors=()):
    return {
        "op_ms": list(op_ms),
        "op_setup_s": [0.001] * len(op_ms),
        "failed": failed,
        "pass": {"wall_s": 2.0, "sim_s": 1.5, "commits": 300},
        "peak_rss_mb": 100.0,
        "replays": [],
        "errors": list(errors),
    }


class TailRuleTest(unittest.TestCase):
    def test_no_tail_at_ten_or_fewer_ops(self):
        for n in range(11):
            self.assertIsNone(run.tail(list(range(n))))

    def test_exactly_ten_ops_beyond_the_tail(self):
        for n in (11, 12, 50, 144, 2000):
            values = [float(v) for v in range(n, 0, -1)]  # unsorted input
            value, pct, count = run.tail(values)
            self.assertEqual(count, n)
            self.assertEqual(sum(v > value for v in values), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_known_percentiles(self):
        self.assertEqual(run.tail(range(1, 101))[:2], (90, 90.0))
        self.assertEqual(run.tail(range(1, 1001))[:2], (990, 99.0))

    def test_tail_per_pass_then_median(self):
        passes = [fake_pass([1.0] * 60 + [float(k)] * 12) for k in (5, 7, 9)]
        value, pct, n, windows = run.op_tail(passes)
        self.assertEqual((value, n, windows), (7.0, 72, 3))
        self.assertAlmostEqual(pct, 100.0 * 62 / 72)

    def test_small_passes_pool_into_one_window(self):
        passes = [fake_pass([float(i), float(i) + 0.5, 0.0, 0.0])
                  for i in range(3)]
        value, pct, n, windows = run.op_tail(passes)
        self.assertEqual((n, windows), (12, 1))
        self.assertEqual(value, 0.0)
        self.assertIsNone(run.op_tail([fake_pass([1.0] * 4)] * 2))

    def test_run_without_a_tail_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.end_to_end([fake_pass([1.0] * 10)])


class FailureShareTest(unittest.TestCase):
    def test_counts_sum_over_passes(self):
        passes = [fake_pass([1.0] * 2000, failed=4),
                  fake_pass([1.0] * 2000, failed=4)]
        attempted, failed, ok = run.failure_share(passes)
        self.assertEqual((attempted, failed), (4000, 8))
        self.assertAlmostEqual(ok, 0.998)
        self.assertAlmostEqual(run.end_to_end(passes)["ops_ok_share"], 0.998)

    def test_no_failures_is_a_share_of_one(self):
        self.assertEqual(run.failure_share([fake_pass([1.0] * 72)])[2], 1.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.failure_share([fake_pass([])])

    def test_failed_ops_are_reported_not_hidden(self):
        spec = load_spec()
        out = run.result(spec, [fake_pass([1.0] * 20, failed=3)], trace=0)
        self.assertEqual((out["attempted"], out["failed"]), (20, 3))
        self.assertTrue(out["correct"])

    def test_output_errors_make_the_run_incorrect(self):
        spec = load_spec()
        out = run.result(spec, [fake_pass([1.0] * 20, errors=["x"])], 0)
        self.assertFalse(out["correct"])


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class EmittedMetricsTest(unittest.TestCase):
    """Every BENCHMARK.json metric is emitted for every workload."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_metric_for_every_workload(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    out = self.run_bench(w["name"], trace)
                    self.assertEqual(
                        set(out), {"correct", "attempted", "failed",
                                   "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[kind]}
                    got = {n: m["unit"] for n, m in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for n, m in out["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), n)
                    if trace == 0:
                        for n, m in out["metrics"].items():
                            self.assertGreater(m["value"], 0, n)


if __name__ == "__main__":
    unittest.main()
