"""Tests of the benchmark's own statistics and of its metric list.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import run
import stats

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        xs = [4, 1, 3, 2]  # unsorted on purpose
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 100), 4)
        self.assertAlmostEqual(stats.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(stats.percentile(xs, 25), 1.75)

    def test_p99_of_1000_samples(self):
        xs = list(range(1000))
        self.assertAlmostEqual(stats.percentile(xs, 99), 989.01)

    def test_edge_cases(self):
        self.assertIsNone(stats.percentile([], 50))
        self.assertEqual(stats.percentile([7], 99), 7.0)
        self.assertEqual(stats.median([3, 1, 2]), 2)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [10.0, 12.0, 11.0, 9.0, 13.0, 10.5, 11.5, 9.5, 12.5, 10.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.iqr_share(xs), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.iqr_share([5.0] * 10), 0.0)
        self.assertEqual(stats.iqr_share([5.0]), 0.0)


class PairLagsTest(unittest.TestCase):
    def test_pairs_last_handover_with_onbin(self):
        handover = [(0, 100), (1, 250), (2, 400)]
        onbin = [(0, 130), (1, 260), (2, 460)]
        pairs, early = stats.pair_lags(handover, onbin)
        self.assertEqual(pairs, [(130, 30), (260, 10), (460, 60)])
        self.assertEqual(early, 0)

    def test_latest_handover_of_a_bin_wins(self):
        pairs, _ = stats.pair_lags([(0, 100), (0, 120)], [(0, 150)])
        self.assertEqual(pairs, [(150, 30)])

    def test_empty_bins_are_skipped(self):
        # Bin 1 held no packet: it closes, but nothing was handed over.
        pairs, early = stats.pair_lags([(0, 100), (2, 300)], [(0, 110), (1, 290), (2, 320)])
        self.assertEqual(pairs, [(110, 10), (320, 20)])
        self.assertEqual(early, 0)

    def test_bin_closed_before_its_last_packet_is_early(self):
        # Wall-clock binning closed bin 0 before its last packet arrived.
        pairs, early = stats.pair_lags([(0, 500)], [(0, 400)])
        self.assertEqual(pairs, [])
        self.assertEqual(early, 1)

    def test_order_of_events_does_not_matter(self):
        handover = [(1, 250), (0, 100)]
        onbin = [(1, 260), (0, 130)]
        pairs, _ = stats.pair_lags(handover, onbin)
        self.assertEqual(pairs, [(130, 30), (260, 10)])


class ChunkedPercentileTest(unittest.TestCase):
    def test_chunks_hold_at_least_min_samples(self):
        # Three passes of 600 samples: chunks are [p0+p1] and [p2 joined
        # to the last chunk], so a single chunk of 1800 here.
        per_pass = [list(range(600)), list(range(600)), list(range(600))]
        self.assertAlmostEqual(
            stats.chunked_percentile(per_pass, 50, min_samples=1000),
            stats.percentile(per_pass[0] * 3, 50),
        )

    def test_median_across_chunks_ignores_one_disturbed_chunk(self):
        calm = [1.0] * 1000
        noisy = [100.0] * 1000
        self.assertEqual(stats.chunked_percentile([calm, noisy, calm], 99), 1.0)

    def test_no_samples(self):
        self.assertIsNone(stats.chunked_percentile([[], []], 50))


class QuietWindowsTest(unittest.TestCase):
    def test_keeps_windows_without_steal(self):
        # (t, packets, cpu_s, steal_ticks), cumulative within a pass.
        # Steal falls in the fourth window only; with a guard of two windows
        # on either side, only the first and the last window are quiet.
        self.assertEqual(stats.STEAL_GUARD, 2)
        p0 = [(10 * k, 100 * k, float(k), 3 if k >= 4 else 0) for k in range(8)]
        windows = stats.quiet_windows([p0])
        self.assertEqual(windows, [(0, 0, 10, 100, 1.0), (0, 60, 70, 100, 1.0)])

    def test_guard_stays_within_a_pass(self):
        stolen = [(0, 0, 0.0, 0), (10, 100, 1.0, 1)]
        calm = [(0, 0, 0.0, 0), (10, 100, 1.0, 0)]
        windows = stats.quiet_windows([stolen, calm])
        self.assertEqual(windows, [(1, 0, 10, 100, 1.0)])

    def test_falls_back_to_least_stolen_share(self):
        # Steal in the first window (4 ticks) and the last (1 tick): with the
        # guard, every window is near steal. Windows 3-5 see 1 tick; the
        # earliest of them covers the 1/6 asked for.
        steal = [0, 4, 4, 4, 4, 4, 5]
        p0 = [(10 * k, 10 * k, float(k), steal[k]) for k in range(7)]
        windows = stats.quiet_windows([p0], min_share=1 / 6)
        self.assertEqual(windows, [(0, 30, 40, 10, 1.0)])

    def test_in_windows(self):
        spans = [(0, 10), (20, 30)]
        self.assertTrue(stats.in_windows(5, spans))
        self.assertTrue(stats.in_windows(20, spans))
        self.assertFalse(stats.in_windows(15, spans))
        self.assertFalse(stats.in_windows(31, spans))
        self.assertFalse(stats.in_windows(1, []))


class HistQuantileTest(unittest.TestCase):
    def test_linear_within_bucket(self):
        bounds = [10, 20, 40]
        counts = [0, 4, 0, 0]  # all four samples in (10, 20]
        self.assertAlmostEqual(stats.hist_quantile(bounds, counts, 0.5), 15.0)

    def test_empty_and_overflow(self):
        self.assertEqual(stats.hist_quantile([10], [0, 0], 0.5), 0.0)
        self.assertEqual(stats.hist_quantile([10], [0, 3], 0.5), 10.0)


class MetricListTest(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json declares."""

    def test_matches_benchmark_json(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        for w in spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
