"""Tests for the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def result(app, reported=(), quarantined=(), skipped=()):
    return {"app": app, "reported": list(reported), "executed": 10, "saved": 2,
            "confirmation_trials": 5, "first_trial_signals": 1,
            "skipped": list(skipped), "quarantined": list(quarantined)}


def campaign(app, res, failures=(), wall=1.0, cpu=2.0, rss_kb=2048):
    return run.Campaign(app, wall, cpu, rss_kb, res, list(failures))


class TailPercentileTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_samples_beyond(self):
        cases = {1000: 99, 999: 95, 200: 95, 199: 90, 100: 90, 40: 75, 39: 50, 20: 50}
        for n, want in cases.items():
            p, value, count = run.tail_percentile(list(range(1, n + 1)))
            self.assertEqual(p, want, f"n={n}")
            self.assertEqual(count, n)
            beyond = sum(1 for v in range(1, n + 1) if v > value)
            self.assertGreaterEqual(beyond, 10, f"n={n}: only {beyond} samples beyond p{p}")

    def test_too_few_samples_reports_median_and_count(self):
        p, value, count = run.tail_percentile([3.0, 1.0, 2.0])
        self.assertIsNone(p)
        self.assertEqual(value, 2.0)
        self.assertEqual(count, 3)

    def test_description_states_count(self):
        text = run.describe_timing([float(v) for v in range(100)], "ms")
        self.assertIn("p90=", text)
        self.assertIn("n=100", text)

    def test_nearest_rank(self):
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(run.percentile(list(range(1, 101)), 99), 99)
        self.assertEqual(run.percentile([7], 99.9), 7)


class FailedFracTest(unittest.TestCase):
    def test_counts_failed_campaigns_against_attempted(self):
        cs = [campaign("a", result("a")), campaign("b", None, ["b: exit code 1"]),
              campaign("c", result("c"), ["c: skipped tests ['T']"]), campaign("d", result("d"))]
        self.assertEqual(run.failed_frac(cs), 0.5)

    def test_no_failures(self):
        self.assertEqual(run.failed_frac([campaign("a", result("a"))]), 0.0)

    def test_nothing_attempted(self):
        with self.assertRaises(ValueError):
            run.failed_frac([])


class GateTest(unittest.TestCase):
    def test_rejects_injected_safe_report(self):
        r = result("minihdfs", [("dfs.checksum.type", run.UNSAFE),
                                ("dfs.namenode.checkpoint.period", run.SAFE)])
        fails = run.gate(r)
        self.assertEqual(len(fails), 1)
        self.assertIn("dfs.namenode.checkpoint.period", fails[0])

    def test_accepts_unsafe_and_fp_trap_reports(self):
        r = result("minimr", [("mapreduce.job.maps", run.UNSAFE),
                              ("mapreduce.task.profile", run.FP_TRAP)])
        self.assertEqual(run.gate(r), [])

    def test_rejects_quarantine_and_skipped_tests(self):
        self.assertEqual(len(run.gate(result("x", quarantined=["TestA"]))), 1)
        self.assertEqual(len(run.gate(result("x", skipped=["TestB"]))), 1)


class ParseResultsTest(unittest.TestCase):
    CLI_JSON = json.dumps([{
        "App": "minimr", "NumTests": 15, "NumParams": 37,
        "Counts": {"Original": 20880, "AfterPreRun": 542, "Executed": 1000, "ExecutionsSaved": 8},
        "Reported": [
            {"Param": "mapreduce.job.maps", "Truth": 1, "Why": "w", "Tests": ["TestWordCount"], "MinP": 0.001},
            {"Param": "mapreduce.task.profile", "Truth": 2, "Why": "w", "Tests": ["T"], "MinP": 0.002},
        ],
        "TruePositives": 1, "FalsePositives": 1, "Missed": ["mapreduce.job.reduces"],
        "FirstTrialSignals": 55, "ConfirmationTrials": 546,
        "SkippedTests": None, "QuarantinedItems": None,
    }], indent=2)

    def test_parses_cli_output(self):
        [r] = run.parse_results(self.CLI_JSON)
        self.assertEqual(r["app"], "minimr")
        self.assertEqual(r["reported"], [("mapreduce.job.maps", 1), ("mapreduce.task.profile", 2)])
        self.assertEqual((r["executed"], r["saved"]), (1000, 8))
        self.assertEqual(r["confirmation_trials"], 546)
        self.assertEqual(r["first_trial_signals"], 55)
        self.assertEqual((r["skipped"], r["quarantined"]), ([], []))

    def test_rejects_non_list_and_empty(self):
        for text in ("{}", "[]"):
            with self.assertRaises(ValueError):
                run.parse_results(text)
        with self.assertRaises(ValueError):
            run.parse_results("not json")

    def test_missing_app_is_an_error(self):
        with self.assertRaises(KeyError):
            run.parse_results('[{"Reported": []}]')


class ScorePassTest(unittest.TestCase):
    def test_recall_and_false_positives_are_distinct_across_apps(self):
        unsafe = {"p1", "p2", "p3", "p4"}
        cs = [
            campaign("a", result("a", [("p1", run.UNSAFE), ("fp1", run.FP_TRAP)]), wall=1.5, cpu=1.0, rss_kb=1024),
            campaign("b", result("b", [("p1", run.UNSAFE), ("p2", run.UNSAFE), ("fp1", run.FP_TRAP)]),
                     wall=2.5, cpu=3.0, rss_kb=4096),
        ]
        s = run.score_pass(cs, unsafe)
        self.assertEqual(s["unsafe_recall"], 0.5)
        self.assertEqual(s["false_positives"], 1)
        self.assertEqual(s["makespan_s"], 4.0)
        self.assertEqual(s["cpu_s"], 4.0)
        self.assertEqual(s["peak_rss_mb"], 4.0)
        self.assertEqual(s["executions"], 20)
        self.assertEqual(s["confirmation_trials"], 10)

    def test_digest_depends_on_reported_set_only(self):
        unsafe = {"p1"}
        a = run.score_pass([campaign("a", result("a", [("p1", run.UNSAFE)]), wall=1)], unsafe)
        b = run.score_pass([campaign("a", result("a", [("p1", run.UNSAFE)]), wall=9)], unsafe)
        c = run.score_pass([campaign("a", result("a", []))], unsafe)
        self.assertEqual(a["digest"], b["digest"])
        self.assertNotEqual(a["digest"], c["digest"])


class TraceTest(unittest.TestCase):
    def test_covered_us_merges_overlaps_and_clips(self):
        self.assertEqual(run.covered_us(0, 100, [(10, 30), (20, 40), (90, 150), (-5, 5)]), 45)
        self.assertEqual(run.covered_us(0, 100, []), 0)

    def test_span_figures_self_time_and_overhead(self):
        spans = [
            {"span": 1, "name": "test", "start_us": 0, "dur_us": 100},
            {"span": 2, "parent": 1, "name": "instance", "start_us": 0, "dur_us": 80},
            {"span": 3, "parent": 2, "name": "pooled-run", "start_us": 10, "dur_us": 30},
            {"span": 4, "parent": 2, "name": "pooled-run", "start_us": 30, "dur_us": 30},
        ]
        fig = run.span_figures(spans)
        self.assertEqual(fig["self_us"]["test"], [1, 20])
        self.assertEqual(fig["self_us"]["instance"], [1, 30])
        self.assertEqual(fig["self_us"]["pooled-run"], [2, 60])
        self.assertEqual((fig["item_us"], fig["item_test_us"]), (100, 50))
        self.assertEqual(fig["exec_ms"], [0.03, 0.03])

    def test_rounds_count_as_test_time_and_executions(self):
        spans = [
            {"span": 1, "name": "test", "start_us": 0, "dur_us": 1000},
            {"span": 2, "parent": 1, "name": "instance", "start_us": 0, "dur_us": 900},
            {"span": 3, "parent": 2, "name": "round", "start_us": 0, "dur_us": 300},
            {"span": 4, "parent": 2, "name": "round", "start_us": 400, "dur_us": 210},
            {"span": 5, "parent": 4, "name": "cache-hit", "start_us": 500, "dur_us": 10},
            {"span": 6, "parent": 1, "name": "pooled-run", "start_us": 700, "dur_us": 100},
            {"span": 7, "parent": 6, "name": "cache-hit", "start_us": 700, "dur_us": 100},
        ]
        fig = run.span_figures(spans)
        self.assertEqual((fig["item_us"], fig["item_test_us"]), (1000, 610))
        # Three trials in round 3, two (one cache hit) in round 4, none in
        # the cached pooled run.
        self.assertEqual(fig["exec_ms"], [0.1, 0.1, 0.1, 0.1, 0.1])

    def test_dist_item_overhead(self):
        spans = [
            {"span": 1, "name": "item", "start_us": 0, "dur_us": 5000},
            {"span": 2, "parent": 1, "name": "test", "start_us": 1000, "dur_us": 3000},
        ]
        self.assertEqual(run.span_figures(spans)["dist_overhead_ms"], [2.0])

    def test_prometheus_histogram_quantile(self):
        text = "\n".join([
            "# TYPE h histogram",
            'h_bucket{app="a",le="0.1"} 50',
            'h_bucket{app="a",le="1"} 100',
            'h_bucket{app="a",le="+Inf"} 100',
            'h_bucket{app="b",le="0.1"} 50',
            'h_bucket{app="b",le="1"} 100',
            'h_bucket{app="b",le="+Inf"} 100',
            'c_total{app="a",scope="shared"} 3',
            'c_total{app="b",scope="local"} 4',
        ])
        prom = run.parse_prometheus(text)
        self.assertAlmostEqual(run.histogram_quantile(prom, "h", 0.5), 0.1)
        self.assertAlmostEqual(run.histogram_quantile(prom, "h", 0.75), 0.55)
        self.assertEqual(run.metric_sum(prom, "c_total"), 7)
        self.assertEqual(run.metric_sum(prom, "c_total", scope="shared"), 3)


if __name__ == "__main__":
    unittest.main()
