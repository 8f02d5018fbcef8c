"""Tests of the benchmark's statistics core (stats.py).

    python3 perfbench/test_stats.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

SPEC = [
    {"name": "throughput_qps", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def synthetic_runs(n=10, qps=100.0, p50=2.0, setup=0.2):
    """n runs whose values wobble by +-1% around the given medians."""
    runs = []
    for i in range(n):
        wobble = 1.0 + 0.01 * ((i % 3) - 1)
        runs.append({"throughput_qps": qps * wobble,
                     "latency_p50_ms": p50 * wobble,
                     "setup_s": setup * wobble})
    return runs


class PerRunTest(unittest.TestCase):
    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertAlmostEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertTrue(stats.tail_supported(1000, 99))
        self.assertFalse(stats.tail_supported(999, 99))
        self.assertTrue(stats.tail_supported(100, 90))

    def test_latency_summary_reports_only_supported_tails(self):
        few = stats.latency_summary([float(i) for i in range(200)])
        self.assertEqual(few["count"], 200)
        self.assertIn("p90", few)
        self.assertNotIn("p99", few)
        many = stats.latency_summary([float(i) for i in range(1000)])
        self.assertIn("p99", many)

    def test_self_time_subtracts_merged_children(self):
        span = {"name": "root", "start_ns": 0, "duration_ns": 100, "spans": [
            {"name": "a", "start_ns": 10, "duration_ns": 20},
            {"name": "b", "start_ns": 20, "duration_ns": 20},   # overlaps a
            {"name": "c", "start_ns": 90, "duration_ns": 50},   # runs past root
        ]}
        # Children cover [10, 40) and [90, 100): 40 ns of 100.
        self.assertEqual(stats.self_time_ns(span), 60)
        totals = stats.self_times_by_name([span])
        self.assertEqual(totals["root"], 60)
        self.assertEqual(totals["a"], 20)

    def test_flatten_accepts_single_root_and_forest(self):
        leaf = {"name": "x", "start_ns": 0, "duration_ns": 1}
        self.assertEqual(len(stats.flatten(leaf)), 1)
        forest = {"spans": [leaf, {"name": "y", "start_ns": 0, "duration_ns": 2,
                                   "spans": [leaf]}]}
        self.assertEqual([s["name"] for s in stats.flatten(forest)], ["x", "y", "x"])

    def test_end_to_end_metrics(self):
        raw = {"latency_ns": [1_000_000 * (i + 1) for i in range(100)],
               "positions": list(range(100)), "block": 50,
               "attempted": 100, "failed": 0, "shed": 0, "mismatches": 0,
               "wall_ns": 2_000_000_000, "setup_ns": [3e8, 1e8, 2e8],
               "peak_rss_bytes": 64 * 2**20}
        m = stats.end_to_end_metrics(raw)
        self.assertAlmostEqual(m["throughput_qps"], 50.0)
        self.assertAlmostEqual(m["latency_p50_ms"], 50.5)
        self.assertAlmostEqual(m["setup_s"], 0.1)  # the fastest set-up
        self.assertEqual(m["ok_frac"], 1.0)
        self.assertEqual(m["peak_rss_mb"], 64.0)

    def test_latency_keeps_whole_stream_blocks(self):
        # Two clients finished positions 0..24 out of order; blocks of 10
        # keep positions 0..19, whatever order they completed in.
        positions = list(range(24, -1, -1))
        raw = {"latency_ns": [1_000_000 * p for p in positions],
               "positions": positions, "block": 10}
        self.assertEqual(sorted(stats.whole_block_latencies_ms(raw)),
                         [float(p) for p in range(20)])
        # Under one block: every latency is kept.
        raw["block"] = 100
        self.assertEqual(len(stats.whole_block_latencies_ms(raw)), 25)


class AcrossRunsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        s = stats.across_runs(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / statistics.median(values))

    def test_identical_run_sets_pass(self):
        runs = synthetic_runs()
        self.assertFalse(any(v["regressed"] for v in stats.gate(runs, runs, SPEC)))

    def test_metric_ten_percent_past_its_bound_is_flagged(self):
        base = synthetic_runs()
        # Latency worse by 1.1 x its 0.2 bound; everything else unchanged.
        cand = synthetic_runs(p50=2.0 * (1 + 0.2 * 1.1))
        verdicts = {v["metric"]: v for v in stats.gate(base, cand, SPEC)}
        self.assertTrue(verdicts["latency_p50_ms"]["regressed"])
        self.assertFalse(verdicts["throughput_qps"]["regressed"])
        self.assertFalse(verdicts["setup_s"]["regressed"])

    def test_higher_is_better_metrics_regress_downwards(self):
        base = synthetic_runs()
        slower = synthetic_runs(qps=100.0 * (1 - 0.25))
        faster = synthetic_runs(qps=100.0 * 1.5)
        by_name = lambda vs: {v["metric"]: v for v in vs}
        self.assertTrue(by_name(stats.gate(base, slower, SPEC))["throughput_qps"]["regressed"])
        self.assertFalse(by_name(stats.gate(base, faster, SPEC))["throughput_qps"]["regressed"])

    def test_injected_ten_percent_slowdown_trips_a_tight_gate(self):
        tight = [dict(m, bound=0.05) for m in SPEC]
        base = synthetic_runs()
        cand = synthetic_runs(p50=2.2, qps=100.0 / 1.1)
        regressed = {v["metric"] for v in stats.gate(base, cand, tight) if v["regressed"]}
        self.assertEqual(regressed, {"latency_p50_ms", "throughput_qps"})

    def test_spread_verdicts(self):
        runs = synthetic_runs()
        noisy = [dict(r, latency_p50_ms=r["latency_p50_ms"] * (1 + 0.5 * (i % 2)))
                 for i, r in enumerate(runs)]
        verdicts = {v["metric"]: v for v in stats.spread_verdicts(noisy, SPEC)}
        self.assertFalse(verdicts["latency_p50_ms"]["steady"])
        self.assertTrue(verdicts["throughput_qps"]["steady"])
        noisy_setup = [dict(r, setup_s=r["setup_s"] * (1 + i)) for i, r in enumerate(runs)]
        verdicts = {v["metric"]: v for v in stats.spread_verdicts(noisy_setup, SPEC)}
        self.assertFalse(verdicts["setup_s"]["steady"])


def traced_raw(repeat_counters=None):
    """A minimal traced-run record: two in-process two-way queries."""
    counters = {"serve.cache_hits": 3, "serve.cache_misses": 1, "serve.walk_steps": 10}
    query = {"kind": "twoway", "edges": 0, "client_ns": 2_000_000, "service_ns": 1_500_000,
             "walk_steps": 5, "warm_targets": 1, "cold_targets": 1, "ybound_cached": 1,
             "table_hits": 0, "cache_hits": 1, "cache_misses": 1, "attempts": 0,
             "hedged": 0, "hedge_won": 0, "failover": 0, "local_fallback": 0,
             "worker": -1}
    service = {"name": "query.twoway", "start_ns": 0, "duration_ns": 1_000_000, "spans": [
        {"name": "import", "start_ns": 0, "duration_ns": 400_000}]}
    return {
        "graph_load_ns": 500_000_000,
        "queries": [query, query],
        "counters": counters,
        "counters_repeat": repeat_counters if repeat_counters is not None else dict(counters),
        "totals": {"serve.cache_resident_bytes": 2**20},
        "bench_trace": {"spans": [
            {"name": "client.query", "start_ns": 0, "duration_ns": 2_000_000},
            {"name": "client.query", "start_ns": 0, "duration_ns": 2_000_000},
            {"name": "dht.batch", "start_ns": 0, "duration_ns": 1_000_000, "edges": 4000},
            {"name": "cluster.encode", "start_ns": 0, "duration_ns": 16_000, "reps": 16},
        ]},
        "service_traces": [service, service],
        "untraced_client_ns": [1_000_000, 1_000_000],
    }


class LayerMetricsTest(unittest.TestCase):
    def test_layer_metrics(self):
        m = stats.layer_metrics(traced_raw())
        self.assertEqual(m["graph.load_s"], 0.5)
        self.assertAlmostEqual(m["dht.batch_edges_per_us"], 4.0)
        self.assertAlmostEqual(m["serve.cache_hit_rate"], 0.75)
        self.assertAlmostEqual(m["serve.queue_wait_ms"], 0.5)
        self.assertAlmostEqual(m["serve.span.import_ms"], 0.4)
        self.assertAlmostEqual(m["cluster.encode_us"], 1.0)
        self.assertAlmostEqual(m["obs.tracing_overhead"], 2.0)
        # Layers the workload never reached read 0.
        self.assertEqual(m["core.pji_ms"], 0.0)
        self.assertEqual(m["cluster.attempts_per_query"], 0.0)

    def test_counter_mismatches(self):
        self.assertEqual(stats.counter_mismatches(traced_raw()), [])
        changed = traced_raw({"serve.cache_hits": 4, "serve.cache_misses": 1,
                              "serve.walk_steps": 10})
        self.assertEqual(stats.counter_mismatches(changed), ["serve.cache_hits"])


if __name__ == "__main__":
    unittest.main()
