"""Tests of the benchmark's own code: python3 -m unittest discover perfbench/tests"""

import io
import json
import os
import sys
import unittest
from contextlib import redirect_stdout
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import metrics  # noqa: E402
import run  # noqa: E402
import steadiness  # noqa: E402


def replay(mode="untraced", **overrides):
    """A minimal well-formed driver record."""
    record = {
        "kind": "replay", "mode": mode, "workload": "url_continuous",
        "seed": 42, "chunks": 100, "chunks_processed": 100, "degraded": 0,
        "setup_s": 0.05, "setup_cpu_s": 0.05, "replay_s": 0.5,
        "replay_cpu_s": 0.5,
        "peak_rss_mb": 10.0, "prequential_error_hex": "0x1.8p-3",
        "prequential_error": 0.1875, "total_work": 1000,
        "remat_chunks": 0, "memory_hits": 8, "disk_hits": 0,
        "sample_misses": 2, "chunks_spilled": 0, "spill_bytes_written": 0,
        "spill_raw_bytes": 0, "disk_loads": 0, "prefetch_hits": 0,
        "requests_sent": 0, "requests_ok": 0, "requests_errors": 0,
        "requests_over_limit": 0,
    }
    if mode == "traced":
        # Only traced replays run the serving probe.
        record.update({
            "requests_sent": 4, "requests_ok": 4,
            "latency_us": [100.0, 110.0, 120.0, 130.0],
            "service_us": [40.0, 40.0, 40.0, 40.0],
            "lag_us": [1.0, 2.0, 3.0, 4.0],
        })
        for name in ("chunk", "ingest", "preprocess", "evaluate",
                     "online_update", "store_features", "proactive_iter",
                     "sample", "remat", "train_step", "prefetch"):
            record["span_" + name] = []
        record["span_chunk"] = [10.0] * 100
        record["span_preprocess"] = [6.0] * 100
        record["chunk_self_us"] = [0.2] * 100
    record.update(overrides)
    return record


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(metrics.percentile(samples, 50), 50)
        self.assertEqual(metrics.percentile(samples, 99), 99)
        self.assertEqual(metrics.percentile(samples, 100), 100)
        self.assertEqual(metrics.percentile([], 50), 0.0)

    def test_tail_needs_ten_samples_beyond_it(self):
        # 1000 samples: 10 lie beyond p99, so p99 is the highest allowed.
        pct, value, n = metrics.select_tail(list(range(1, 1001)))
        self.assertEqual((pct, value, n), (99.0, 990, 1000))
        # 999 samples leave only 9 beyond p99: fall back to p95.
        pct, value, n = metrics.select_tail(list(range(1, 1000)))
        self.assertEqual((pct, n), (95.0, 999))
        self.assertEqual(value, metrics.percentile(list(range(1, 1000)), 95))

    def test_tail_goes_higher_when_allowed(self):
        pct, _, _ = metrics.select_tail(list(range(20000)), max_pct=99.9)
        self.assertEqual(pct, 99.9)
        pct, _, _ = metrics.select_tail(list(range(20000)))
        self.assertEqual(pct, 99.0)

    def test_tail_of_few_or_no_samples(self):
        self.assertEqual(metrics.select_tail([5.0, 1.0, 3.0])[0], 50.0)
        self.assertEqual(metrics.select_tail([]), (None, 0.0, 0))


class UndisturbedTest(unittest.TestCase):
    def test_identical_replays(self):
        self.assertAlmostEqual(metrics.undisturbed([200.0] * 6), 200.0)

    def test_best_quarter_of_at_least_two(self):
        rates = [100.0, 300.0, 200.0, 400.0, 150.0, 350.0, 250.0, 380.0]
        self.assertAlmostEqual(metrics.undisturbed(rates), 390.0)
        self.assertAlmostEqual(metrics.undisturbed(rates, "lower"), 125.0)
        self.assertAlmostEqual(metrics.undisturbed([1.0, 3.0, 2.0]), 2.5)
        self.assertAlmostEqual(metrics.undisturbed([5.0]), 5.0)
        self.assertEqual(metrics.undisturbed([]), 0.0)

    def test_slow_mode_share_does_not_move_it(self):
        # Two speed states whose mix differs between runs: the median
        # follows the mix, the estimator stays on the fast mode.
        mostly_fast = [3000.0] * 12 + [2000.0] * 4
        mostly_slow = [3000.0] * 5 + [2000.0] * 11
        self.assertAlmostEqual(metrics.undisturbed(mostly_fast), 3000.0)
        self.assertAlmostEqual(metrics.undisturbed(mostly_slow), 3000.0)
        self.assertNotEqual(metrics.median(mostly_fast),
                            metrics.median(mostly_slow))

    def test_regression_that_slows_every_replay_shows(self):
        before = [3000.0, 3100.0, 2000.0, 2100.0, 3050.0, 2050.0, 3020.0,
                  2200.0]
        after = [0.9 * x for x in before]
        self.assertAlmostEqual(metrics.undisturbed(after),
                               0.9 * metrics.undisturbed(before))

    def test_replay_rates_are_per_wall_second(self):
        replays = [{"chunks": 100, "replay_s": 0.5, "replay_cpu_s": 0.25},
                   {"chunks": 100, "replay_s": 0.25, "replay_cpu_s": 0.25},
                   {"chunks": 100, "replay_s": 0.0, "replay_cpu_s": 0.0}]
        self.assertEqual(metrics.replay_rates(replays), [200.0, 400.0])
        self.assertEqual(metrics.replay_rates(replays, "replay_cpu_s"),
                         [400.0, 400.0])


class CheckReplaysTest(unittest.TestCase):
    def test_consistent_run_is_correct(self):
        replays = [replay(), replay(), replay("traced")]
        self.assertEqual(metrics.check_replays(replays), [])
        reference = {"prequential_error_hex": "0x1.8p-3", "total_work": 1000}
        self.assertEqual(metrics.check_replays(replays, reference), [])

    def test_traced_replica_mismatch(self):
        replays = [replay(), replay("traced", total_work=1001)]
        problems = metrics.check_replays(replays)
        self.assertEqual(len(problems), 1)
        self.assertIn("disagree", problems[0])

    def test_reference_mismatch(self):
        replays = [replay(), replay("traced")]
        reference = {"prequential_error_hex": "0x1.8p-4", "total_work": 1000}
        problems = metrics.check_replays(replays, reference)
        self.assertEqual(len(problems), 1)
        self.assertIn("reference", problems[0])

    def test_missing_replica(self):
        self.assertIn("no traced replica to compare with",
                      metrics.check_replays([replay()]))

    def test_lost_and_degraded_chunks(self):
        replays = [replay(degraded=1), replay("traced", chunks_processed=99)]
        problems = metrics.check_replays(replays)
        self.assertEqual(len(problems), 2)
        self.assertTrue(any("1 degraded" in p for p in problems))
        self.assertTrue(any("99 of 100" in p for p in problems))


class CountOperationsTest(unittest.TestCase):
    def test_counts_chunks_and_requests(self):
        replays = [
            replay(),
            replay("traced", chunks_processed=98, degraded=1,
                   requests_errors=1, requests_over_limit=2),
        ]
        self.assertEqual(metrics.count_operations(replays), (204, 3 + 3))


class OutputSchemaTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(PERFBENCH),
                               "BENCHMARK.json")) as f:
            self.benchmark = json.load(f)

    def test_schema_matches_benchmark_json(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.benchmark["end_to_end"]},
            metrics.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.benchmark["per_layer"]},
            metrics.PER_LAYER)
        names = [w["name"] for w in self.benchmark["workloads"]]
        self.assertTrue(set(names) <= set(run.WORKLOADS), names)

    def test_end_to_end_output(self):
        replays = [replay(replay_s=s, setup_s=s / 10, setup_cpu_s=1.0)
                   for s in (0.5, 0.5, 1.0)]
        replays.append(replay("traced"))
        out = metrics.result(True, 10, 0, metrics.end_to_end(replays),
                             metrics.END_TO_END)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertEqual(set(out["metrics"]), set(metrics.END_TO_END))
        for name, unit in metrics.END_TO_END.items():
            self.assertEqual(out["metrics"][name]["unit"], unit)
        self.assertAlmostEqual(out["metrics"]["chunks_per_s"]["value"], 200.0)
        self.assertAlmostEqual(out["metrics"]["setup_s"]["value"], 0.05)
        self.assertEqual(out["metrics"]["work_per_chunk"]["value"], 10.0)
        json.dumps(out)

    def test_per_layer_output(self):
        replays = [replay("traced"), replay(), replay("traced"), replay()]
        values = metrics.per_layer(replays)
        out = metrics.result(True, 10, 0, values, metrics.PER_LAYER)
        self.assertEqual(set(out["metrics"]), set(metrics.PER_LAYER))
        self.assertAlmostEqual(values["pipeline.preprocess_share"], 0.6)
        self.assertAlmostEqual(values["core.unattributed_share"], 0.02)
        self.assertAlmostEqual(values["sampling.mu"], 0.8)
        self.assertEqual(values["core.chunk_samples"], 200)
        self.assertAlmostEqual(values["obs.trace_overhead"], 0.0)
        self.assertEqual(values["serving.serve_p50_us"], 110.0)
        self.assertEqual(values["serving.slo_frac"], 1.0)
        self.assertEqual(values["serving.requests"], 8)

    def test_incorrect_run_reports_no_metrics(self):
        out = metrics.result(False, 10, 1, {"chunks_per_s": 1.0},
                             metrics.END_TO_END)
        self.assertEqual(out, {"correct": False, "attempted": 10,
                               "failed": 1, "metrics": {}})


class StealShareTest(unittest.TestCase):
    def test_share_of_all_cpu_time(self):
        before = [100, 0, 10, 800, 0, 0, 0, 90, 0, 0]
        after = [160, 0, 20, 880, 0, 0, 0, 130, 0, 0]
        self.assertAlmostEqual(run.steal_share(before, after), 40 / 190)

    def test_unreadable_counters(self):
        self.assertEqual(run.steal_share([], []), 0.0)


class SteadinessJudgeTest(unittest.TestCase):
    def test_steady(self):
        a = [1.0, 1.01, 0.99, 1.0, 1.02]
        self.assertEqual(steadiness.judge(a, a, 0.25, "lower"), [])

    def test_every_metric_gets_the_spread_check(self):
        # A wide spread fails whatever the metric, setup_s included.
        wide = [0.5, 1.0, 1.5, 0.6, 1.4]
        self.assertIn("spread>=bound",
                      steadiness.judge(wide, [1.0] * 5, 0.25, "lower"))

    def test_drift_is_judged_by_direction(self):
        a, b = [100.0] * 5, [70.0] * 5
        self.assertEqual(steadiness.judge(a, b, 0.25, "higher"),
                         ["drift>bound"])
        self.assertEqual(steadiness.judge(a, b, 0.25, "lower"), [])


class RunMainTest(unittest.TestCase):
    """run.main on stubbed replays: the last line and the exit code."""

    def run_main(self, replays, trace=0):
        stdout = io.StringIO()
        with mock.patch.object(run, "build", return_value="driver"), \
                mock.patch.object(run, "environment", return_value={}), \
                mock.patch.object(run, "measure", return_value=replays), \
                mock.patch.object(run.os, "makedirs"), \
                redirect_stdout(stdout):
            code = run.main(["--workload", "url_continuous", "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)])
        return code, json.loads(stdout.getvalue().splitlines()[-1])

    def test_correct_run(self):
        code, out = self.run_main([replay(), replay(), replay(),
                                   replay("traced")])
        self.assertEqual(code, 0)
        self.assertTrue(out["correct"])
        self.assertEqual(set(out["metrics"]), set(metrics.END_TO_END))

    def test_traced_run(self):
        code, out = self.run_main([replay("traced"), replay()] * 3, trace=1)
        self.assertEqual(code, 0)
        self.assertEqual(set(out["metrics"]), set(metrics.PER_LAYER))

    def test_mismatching_run_fails_without_timings(self):
        code, out = self.run_main([replay(), replay(), replay(),
                                   replay("traced", prequential_error_hex="0x1p-3")])
        self.assertEqual(code, 1)
        self.assertFalse(out["correct"])
        self.assertEqual(out["metrics"], {})
        self.assertGreaterEqual(out["failed"], 1)

    def test_failed_replay(self):
        stdout = io.StringIO()
        with mock.patch.object(run, "build", return_value="driver"), \
                mock.patch.object(run, "environment", return_value={}), \
                mock.patch.object(run, "measure",
                                  side_effect=RuntimeError("driver exited 1")), \
                mock.patch.object(run.os, "makedirs"), \
                redirect_stdout(stdout):
            code = run.main(["--workload", "taxi_remat_spill"])
        self.assertEqual(code, 1)
        out = json.loads(stdout.getvalue().splitlines()[-1])
        self.assertFalse(out["correct"])
        self.assertEqual(out["metrics"], {})

    def test_build_failure_prints_no_result(self):
        stdout = io.StringIO()
        with mock.patch.object(run, "build",
                               side_effect=RuntimeError("no sources")), \
                redirect_stdout(stdout):
            code = run.main(["--workload", "taxi_remat_spill"])
        self.assertEqual(code, 1)
        self.assertEqual(stdout.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
