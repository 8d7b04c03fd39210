#!/usr/bin/env python3
"""Tests bench/diff_bench.py: metric direction and row identity keying.

    python3 tests/diff_bench_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "bench"))
import diff_bench  # noqa: E402


def verdicts(baseline, current):
    rows, _ = diff_bench.compare_file("BENCH_x.json", baseline, current, 0.25)
    return {path: verdict.split()[0] for path, _, _, verdict in rows}


class Direction(unittest.TestCase):
    def test_lower_is_better_metrics(self):
        base = [{"num_nodes": 1000, "peak_rss_kb": 200, "p99": 10.0,
                 "miss_rate": 0.5}]
        less = [{"num_nodes": 1000, "peak_rss_kb": 100, "p99": 5.0,
                 "miss_rate": 0.1}]
        got = verdicts(base, less)
        self.assertEqual(set(got.values()), {"BETTER"})
        got = verdicts(less, base)
        self.assertEqual(set(got.values()), {"WORSE"})

    def test_higher_is_better_metrics(self):
        got = verdicts({"events_per_sec": 100.0, "goodput_mbps": 2.0},
                       {"events_per_sec": 50.0, "goodput_mbps": 1.0})
        self.assertEqual(got, {"events_per_sec": "WORSE",
                               "goodput_mbps": "WORSE"})

    def test_unknown_direction_is_drift(self):
        self.assertEqual(verdicts({"rounds_run": 10}, {"rounds_run": 20}),
                         {"rounds_run": "DRIFT"})

    def test_names_the_fragments_misread_have_no_direction(self):
        # edge_bytes grows with offload; *_samples and input sizes are
        # counts, not costs.
        for name in ("edge_bytes", "latency_samples", "symbol_bytes",
                     "cache_bytes_used"):
            self.assertEqual(verdicts({name: 10}, {name: 20}),
                             {name: "DRIFT"}, name)
        self.assertEqual(verdicts({"backhaul_bytes": 10},
                                  {"backhaul_bytes": 20}),
                         {"backhaul_bytes": "WORSE"})


class Identity(unittest.TestCase):
    def test_rows_are_matched_by_identity_fields(self):
        base = [{"driver": "sim", "loss": 0.0, "p50": 1.0},
                {"driver": "sim", "loss": 0.5, "p50": 4.0}]
        # The loss-0 row is gone: the remaining row must still match its
        # baseline row instead of being compared with row 0.
        got = verdicts(base, [{"driver": "sim", "loss": 0.5, "p50": 4.0}])
        self.assertEqual(set(got.values()), {"removed"})
        self.assertTrue(all("loss=0.0" in path for path in got))

    def test_every_row_is_compared_when_identities_repeat(self):
        # BENCH_cache's shape: several rows per section. Without the
        # capacity column the identities collide, so keys fall back to
        # the index and no row overwrites another.
        base = [{"section": s, "policy": "popularity", "hit_rate": 0.5}
                for s in ("event", "event", "event", "udp", "udp")]
        cur = [dict(row, hit_rate=0.1) for row in base]
        got = verdicts(base, cur)
        self.assertEqual(len(got), len(base))
        self.assertEqual(set(got.values()), {"WORSE"})
        # With capacity_frac the rows name themselves again.
        for i, row in enumerate(base + cur):
            row["capacity_frac"] = (i % len(base)) / 4
        got = verdicts(base, cur)
        self.assertEqual(len(got), len(base))
        self.assertTrue(all("capacity_frac=" in path for path in got))

    def test_rows_without_identity_fall_back_to_index(self):
        flat = diff_bench.flatten({"rows": [{"x": 1}, {"x": 2}]})
        self.assertEqual(flat, {"rows[0].x": 1, "rows[1].x": 2})


if __name__ == "__main__":
    unittest.main()
