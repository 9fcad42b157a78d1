"""Tests for the benchmark's own arithmetic: python3 -m unittest discover perfbench"""

import json
import statistics
import unittest

import run


def span(start, end, parent=-1):
    return {"start_ns": start, "end_ns": end, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([span(10, 25)]), [15])

    def test_children_are_subtracted_from_the_parent(self):
        spans = [span(0, 100), span(10, 30, 0), span(50, 60, 0), span(15, 20, 1)]
        self.assertEqual(run.self_times(spans), [100 - 20 - 10, 20 - 5, 10, 5])

    def test_overlapping_children_count_once(self):
        spans = [span(0, 100), span(10, 50, 0), span(40, 70, 0)]
        self.assertEqual(run.self_times(spans)[0], 100 - 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, 100), span(90, 120, 0)]
        self.assertEqual(run.self_times(spans)[0], 90)

    def test_top_level_spans_do_not_cover_each_other(self):
        spans = [span(0, 10), span(10, 30)]
        self.assertEqual(run.self_times(spans), [10, 20])


class RatioTest(unittest.TestCase):
    def test_zero_base_reads_zero(self):
        commits, aborts = 0, 0
        self.assertEqual(run.ratio(commits, commits + aborts), 0.0)

    def test_ratio(self):
        self.assertEqual(run.ratio(3, 4), 0.75)

    def test_doc_metrics_with_nothing_migrated(self):
        doc = {"runs": [{
            "counters": {}, "profile": {"nodes": {}}, "histograms": {},
            "latency": {"count": 5}, "trace": {"emitted": 0, "dropped": 0},
            "provenance": {"ping_pong_pages": 0, "redirty_events": 0, "promotions": 0},
            "tpm": {"commits": 0, "aborts": 0, "shadow_pages": 0},
            "degradation": {"pcq_hwm": 0, "pending_hwm": 0, "pcq_overflows": 0,
                            "backoffs": 0, "giveups": 0},
        }]}
        m = run.doc_metrics(doc)
        self.assertEqual(m["nomad.tpm_commit_ratio"], 0.0)
        self.assertEqual(m["nomad.shadow_reuse_ratio"], 0.0)
        self.assertEqual(m["obs.redirty_rate"], 0.0)
        self.assertEqual(m["mm.accesses"], 5)
        self.assertEqual(set(m) | set(run.SPAN_METRICS) | {
            "sim.shard_run_t1_s", "sim.shard_parallel_efficiency",
            "sim.shard_host_us_per_epoch", "bench.tracing_overhead", "sim.shard_epochs",
            "sim.shard_messages", "mm.fast_used_frames", "check.violations"}, set(run.PER_LAYER))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_and_units_match_run_py(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(list(run.quartiles(values)), statistics.quantiles(values, n=4))

    def test_known_values(self):
        self.assertEqual(run.quartiles([1, 2, 3, 4]), (1.25, 2.5, 3.75))
        self.assertEqual(run.median([3, 1, 2]), 2)

    def test_single_value(self):
        self.assertEqual(run.quartiles([7.5]), (7.5, 7.5, 7.5))

    def test_generator_input(self):
        self.assertEqual(run.median(x for x in (1, 2, 3)), 2)

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            run.quartiles([])


if __name__ == "__main__":
    unittest.main()
