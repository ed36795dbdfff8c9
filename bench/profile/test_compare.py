#!/usr/bin/env python3
"""Unit checks of compare.py's statistics and verdicts on canned runs."""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "query_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "queries_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
    "per_layer": [
        {"name": "algo.scan.ns_per_step", "unit": "ns", "better": "lower"},
    ],
}

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def run(p50, qps=50.0, ns=10.0, failed=0):
    return {"correct": True, "attempted": 100, "failed": failed,
            "metrics": {"query_p50_ms": {"value": p50, "unit": "ms"},
                        "queries_per_s": {"value": qps, "unit": "1/s"},
                        "algo.scan.ns_per_step": {"value": ns, "unit": "ns"}}}


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles_exclusive_method(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4, 5, 6, 7, 8]),
                         (2.25, 4.5, 6.75))

    def test_single_run(self):
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))


class VerdictTest(unittest.TestCase):
    def test_within_bound_passes(self):
        change = [v * 1.05 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "lower", 0.1), "pass")

    def test_beyond_bound_regresses(self):
        change = [v * 1.2 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "lower", 0.1),
                         "regress")

    def test_higher_is_better_direction(self):
        change = [v * 0.8 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "higher", 0.1),
                         "regress")
        change = [v * 1.2 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "higher", 0.1),
                         "gain")

    def test_noisy_parent_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        change = [v * 1.3 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1),
                         "unresolved")

    def test_noisy_parent_but_every_change_run_better_passes(self):
        noisy = [160.0, 240.0, 180.0, 220.0, 200.0]
        change = [155.0, 150.0, 150.0, 155.0, 150.0]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1), "pass")

    def test_gain_needs_nine_of_ten_wins(self):
        change = [v * 0.8 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "lower", 0.1), "gain")
        change[0] = change[1] = 200.0  # two lost pairs: 8 of 10 wins
        self.assertEqual(compare.win_share(STEADY, change, "lower"), 0.8)
        self.assertEqual(compare.verdict(STEADY, change, "lower", 0.1), "pass")

    def test_ties_count_for_neither_side(self):
        self.assertEqual(compare.win_share([1.0, 2.0], [1.0, 1.0], "lower"),
                         0.5)

    def test_per_layer_metric_has_no_regression(self):
        change = [v * 2 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "lower", None), "-")


class CompareDirectoriesTest(unittest.TestCase):
    def write(self, directory, runs):
        directory.mkdir()
        for seed, result in enumerate(runs, start=1):
            (directory / f"anti_deep.s{seed}.json").write_text(
                json.dumps(result))

    def test_pairs_by_file_name_and_flags_regressions(self):
        with tempfile.TemporaryDirectory() as tmp:
            parent, change = Path(tmp) / "parent", Path(tmp) / "change"
            self.write(parent, [run(v) for v in STEADY])
            self.write(change, [run(v * 1.5, failed=1) for v in STEADY])
            rows = compare.compare(compare.load(parent), compare.load(change),
                                   BENCH)
            verdicts = {row[1]: row[5] for row in rows}
            self.assertEqual(verdicts, {"failed": "regress",
                                        "query_p50_ms": "regress",
                                        "queries_per_s": "pass",
                                        "algo.scan.ns_per_step": "-"})
            self.assertTrue(all(row[0] == "anti_deep" for row in rows))


if __name__ == "__main__":
    unittest.main()
