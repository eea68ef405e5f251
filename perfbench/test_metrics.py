"""Tests of the benchmark's own arithmetic and of its metric names.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402


def span(i, name, start, end, parent=-1, rid=-1):
    return (i, name, start, end, parent, rid)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([span(0, "a", 10, 30)]), {0: 20})

    def test_children_are_subtracted_from_the_parent(self):
        spans = [span(0, "pipeline", 0, 100),
                 span(1, "term.parse", 10, 30, 0),
                 span(2, "analyzer.analyze", 40, 90, 0)]
        self.assertEqual(metrics.self_times(spans), {0: 30, 1: 20, 2: 50})

    def test_overlapping_children_count_once(self):
        # Two concurrent children covering [10, 60) together.
        spans = [span(0, "request", 0, 100),
                 span(1, "x", 10, 50, 0), span(2, "y", 30, 60, 0)]
        self.assertEqual(metrics.self_times(spans)[0], 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, "p", 0, 10), span(1, "c", 5, 50, 0)]
        self.assertEqual(metrics.self_times(spans)[0], 5)

    def test_nesting_three_levels(self):
        spans = [span(0, "operation", 0, 100),
                 span(1, "pipeline", 5, 95, 0),
                 span(2, "term.parse", 10, 20, 1)]
        self.assertEqual(metrics.self_times(spans), {0: 10, 1: 80, 2: 10})

    def test_layer_totals_count_root_operations(self):
        spans = [span(0, "pipeline", 0, 10), span(1, "term.parse", 0, 4, 0),
                 span(2, "term.parse", 4, 6, 0),
                 span(3, "pipeline", 20, 30), span(4, "term.parse", 20, 24, 3)]
        total, roots, calls = metrics.layer_self_ms(spans)["term.parse"]
        self.assertAlmostEqual(total, 10 / 1e6)
        self.assertEqual((roots, calls), (2, 3))


class PercentileTest(unittest.TestCase):
    def test_tail_rule_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(999), 90.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(99), 50.0)
        self.assertEqual(metrics.tail_percentile(5), 50.0)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 99), 99)
        self.assertEqual(metrics.percentile(values, 100), 100)

    def test_failed_requests_miss_every_limit(self):
        values = [1.0] * 95 + [None] * 5
        self.assertIsNone(metrics.percentile(values, 99))
        self.assertEqual(metrics.median(values), 1.0)

    def test_geomean(self):
        self.assertAlmostEqual(metrics.geomean([1, 100]), 10)
        with self.assertRaises(ValueError):
            metrics.geomean([1, 0])


def serve_raw(lat, lag):
    return {
        "workload": "serve", "attempted": len(lat), "failed": 0,
        "setup_s": [0.2], "samples": {"lat/L0": lat, "lag/L0": lag,
                                      "edit/L0": lat[:20]},
        "values": {"rate/L0": 100.0, "outstanding/L0": 0.0, "ref_level": 0,
                   "peak_rss_kb": 1024.0},
    }


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        # The harness writes done - due; a request sent 40 ms late that is
        # served in 1 ms must read 41 ms, not 1 ms.
        harness = open(os.path.join(HERE, "harness", "Serve.cpp")).read()
        self.assertIn("S.Done - S.Due", harness)
        lat = [41.0] * 100
        e2e, _ = metrics.serve_metrics(serve_raw(lat, [40.0] * 100))
        self.assertEqual(e2e["latency_ms"], 41.0)

    def test_generator_lag_is_reported(self):
        raw = serve_raw([1.0] * 100, [0.0] * 90 + [7.0] * 10)
        _, named = metrics.serve_metrics(raw)
        self.assertEqual(named["generator_lag_ms_p90"][0], 0.0)
        layers, _, _ = metrics.layer_metrics(raw, [], 1.0)
        self.assertEqual(layers["server.generator_lag_ms"], 0.0)
        raw = serve_raw([1.0] * 100, [0.0] * 80 + [7.0] * 20)
        layers, _, _ = metrics.layer_metrics(raw, [], 1.0)
        self.assertEqual(layers["server.generator_lag_ms"], 7.0)

    def test_failed_request_is_marked_and_misses_the_limit(self):
        # 11 of 100 failed: the p90 tail is a failure, the median is not.
        e2e, named = metrics.serve_metrics(serve_raw([1.0] * 89 + [-1] * 11, [0.0] * 100))
        self.assertEqual(named["request_ms_p90"][0], float("inf"))
        self.assertEqual(named["request_ms_p50"][0], 1.0)
        self.assertEqual(e2e["largest_ms"], 1.0)

    def test_max_rate_interpolates_between_levels(self):
        levels = [(100, 50.0, True), (200, 125.0, True), (400, 500.0, True)]
        self.assertAlmostEqual(metrics.interpolate_max_rate(levels), 200 * 2 ** 0.5)
        # A level whose tail misses interpolates even with a backlog.
        levels = [(100, 125.0, True), (200, 500.0, False)]
        self.assertAlmostEqual(metrics.interpolate_max_rate(levels), 200 / 2 ** 0.5)
        # A growing backlog alone fails the level outright.
        levels = [(100, 50.0, True), (200, 60.0, False)]
        self.assertEqual(metrics.interpolate_max_rate(levels), 100)
        # Even the lowest level misses: scale it by limit / tail.
        self.assertEqual(metrics.interpolate_max_rate([(100, 500.0, True)]), 50)


class RoadmapCrossCheckTest(unittest.TestCase):
    def test_power_interpolation(self):
        pts = [(1000, 10.0), (4000, 160.0)]  # grows as n^2
        self.assertAlmostEqual(metrics.power_interpolate(pts, 2000), 40.0)

    def test_phase_times_group_by_operation_size(self):
        spans = [span(0, "operation", 0, 100, -1, 12000),
                 span(1, "pipeline", 0, 100, 0),
                 span(2, "term.parse", 0, 55_000_000, 1)]
        self.assertEqual(metrics.phase_ms_by_size(spans), {12000: {"parse": 55.0}})

    def test_rungs_pool_corpora_of_similar_size(self):
        spans = []
        for i, (clauses, ms) in enumerate([(7100, 10), (7300, 30), (29000, 100)]):
            spans += [span(3 * i, "operation", 0, 1, -1, clauses),
                      span(3 * i + 1, "pipeline", 0, 1, 3 * i),
                      span(3 * i + 2, "term.parse", 0, ms * 1_000_000, 3 * i + 1)]
        self.assertEqual(metrics.phase_ms_by_size(spans),
                         {7100: {"parse": 10.0}, 29000: {"parse": 100.0}})


class ReferenceSpeedTest(unittest.TestCase):
    def test_samples_are_divided_by_their_paired_reference(self):
        samples = {"pipeline/a": [2.0, 3.0], "ref/pipeline/a": [1.0, 1.5],
                   "lat/L0": [5.0]}
        out = metrics.host_normalized(samples)
        n = metrics.REF_NOMINAL_MS
        self.assertEqual(out, {"pipeline/a": [2.0 * n, 2.0 * n], "lat/L0": [5.0]})

    def test_a_host_slowdown_cancels(self):
        # The same work on a host running 1.6x slower for part of the run.
        fast = {"pipeline/a": [1.0] * 10, "ref/pipeline/a": [1.0] * 10}
        mixed = {"pipeline/a": [1.0] * 4 + [1.6] * 6,
                 "ref/pipeline/a": [1.0] * 4 + [1.6] * 6}
        self.assertEqual(metrics.host_normalized(fast), metrics.host_normalized(mixed))

    def test_setup_time_uses_its_own_reference(self):
        raw = {"setup_s": [0.2, 0.3, 0.1], "setup_ref_ms": [2.0, 3.0, 1.0]}
        self.assertAlmostEqual(metrics.setup_seconds(raw), 0.1 * metrics.REF_NOMINAL_MS)
        self.assertEqual(metrics.setup_seconds(raw, wall=True), 0.2)
        self.assertEqual(metrics.setup_seconds({"setup_s": [0.4]}), 0.4)


class CorpusLadderTest(unittest.TestCase):
    def test_a_rank_is_the_geomean_of_its_corpora_medians(self):
        # Two ~58k corpora, one twice as slow; the pooled median would be
        # whichever corpus got more samples.
        raw = {"samples": {"pipeline/r2-a": [100.0, 100.0, 100.0],
                           "pipeline/r2-b": [400.0],
                           "frontend/r2-a": [50.0], "frontend/r2-b": [200.0]},
               "values": {"clauses/r2-a": 58000, "clauses/r2-b": 58000}}
        e2e, _ = metrics.corpus_metrics(raw)
        self.assertAlmostEqual(e2e["largest_ms"], 200.0)
        self.assertAlmostEqual(e2e["second_ms"], 100.0)


class NamesTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        layer_names = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(sorted(layer_names), sorted(metrics.LAYER_MAP))
        raw = serve_raw([1.0] * 100, [0.0] * 100)
        layers, _, _ = metrics.layer_metrics(raw, [], 1.0)
        self.assertEqual(sorted(layers), sorted(layer_names))
        e2e, _ = metrics.e2e_metrics(raw)
        self.assertEqual(sorted(e2e), sorted(m["name"] for m in spec["end_to_end"]))
        import run
        self.assertTrue({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
