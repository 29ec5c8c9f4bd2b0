"""Tests of the run-comparison helper: python3 servebench/test_compare.py"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

MANIFEST = {
    "command": ["true"],
    "workloads": [{"name": "w-a", "why": "x"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
}


def write_set(directory, runs, correct=True):
    os.makedirs(directory)
    for seed, (setup, rate, lat) in enumerate(runs, 1):
        line = {
            "correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": {
                "setup_s": {"value": setup, "unit": "s"},
                "rate": {"value": rate, "unit": "1/s"},
                "lat_ms": {"value": lat, "unit": "ms"},
            },
        }
        with open(os.path.join(directory, f"w-a-{seed}.json"), "w") as f:
            json.dump(line, f)


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp()
        self.manifest = os.path.join(self.dir, "BENCHMARK.json")
        with open(self.manifest, "w") as f:
            json.dump(MANIFEST, f)

    def run_main(self, *argv):
        with open(os.devnull, "w") as null:
            stdout, sys.stdout = sys.stdout, null
            try:
                return compare.main(["--manifest", self.manifest, *argv])
            finally:
                sys.stdout = stdout

    def test_summary_uses_exclusive_quartiles(self):
        med, q1, q3, spread = compare.summary([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((med, q1, q3), (3.0, 1.5, 4.5))
        self.assertAlmostEqual(spread, 1.0)

    def test_worse_follows_the_metric_direction(self):
        self.assertAlmostEqual(compare.worse_by(100.0, 110.0, "lower"), 0.1)
        self.assertAlmostEqual(compare.worse_by(100.0, 110.0, "higher"), -0.1)

    def test_steady_identical_sets_agree(self):
        runs = [(0.5, 100.0 + i, 2.0 + i / 100) for i in range(10)]
        a, b = os.path.join(self.dir, "a"), os.path.join(self.dir, "b")
        write_set(a, runs)
        write_set(b, runs)
        self.assertEqual(self.run_main("spread", a), 0)
        self.assertEqual(self.run_main("compare", a, b), 0)

    def test_a_regression_beyond_the_bound_is_refused(self):
        a, b = os.path.join(self.dir, "a"), os.path.join(self.dir, "b")
        write_set(a, [(0.5, 100.0, 2.0)] * 5)
        write_set(b, [(0.5, 80.0, 2.0)] * 5)
        self.assertEqual(self.run_main("compare", a, b), 1)
        self.assertEqual(self.run_main("compare", "--regressions-only", a, b), 1)

    def test_a_gain_beyond_the_bound_is_no_agreement(self):
        a, b = os.path.join(self.dir, "a"), os.path.join(self.dir, "b")
        write_set(a, [(0.5, 100.0, 2.0)] * 5)
        write_set(b, [(0.5, 140.0, 2.0)] * 5)
        self.assertEqual(self.run_main("compare", a, b), 1)
        self.assertEqual(self.run_main("compare", "--regressions-only", a, b), 0)

    def test_a_wide_or_incorrect_set_fails_the_spread_check(self):
        wide = os.path.join(self.dir, "wide")
        write_set(wide, [(0.5, 100.0, 1.0 + i) for i in range(10)])
        self.assertEqual(self.run_main("spread", wide), 1)
        wide_setup = os.path.join(self.dir, "wide_setup")
        write_set(wide_setup, [(0.5 + i / 10, 100.0, 2.0) for i in range(10)])
        self.assertEqual(self.run_main("spread", wide_setup), 1)
        wrong = os.path.join(self.dir, "wrong")
        write_set(wrong, [(0.5, 100.0, 2.0)] * 5, correct=False)
        self.assertEqual(self.run_main("spread", wrong), 1)


if __name__ == "__main__":
    unittest.main()
