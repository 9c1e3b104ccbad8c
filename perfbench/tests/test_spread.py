"""Tests of the bound checker in perfbench/spread.py. Run from the
repository root:

    python3 -B -m unittest discover -s perfbench/tests -p 'test_*.py'
"""
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import spread  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1},
]}
STEADY = [98, 99, 100, 100, 100, 101, 101, 102, 102, 103]
NOISY = [60, 70, 80, 90, 100, 110, 120, 130, 140, 150]


def runs(**metrics):
    return {"w": dict(metrics)}


def scaled(k):
    return [x * k for x in STEADY]


class Spread(unittest.TestCase):
    def test_uses_the_quartiles_of_statistics_quantiles(self):
        # statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(spread.spread(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)
        q1, q2, q3 = statistics.quantiles(STEADY, n=4)
        self.assertAlmostEqual(spread.spread(STEADY), (q3 - q1) / q2)

    def test_accepts_a_steady_set_and_rejects_a_noisy_one(self):
        ok, _ = spread.check(SPEC, runs(setup_s=STEADY, latency_p50_us=STEADY,
                                        throughput_per_s=STEADY))
        self.assertTrue(ok)
        ok, lines = spread.check(SPEC, runs(setup_s=STEADY,
                                            latency_p50_us=NOISY,
                                            throughput_per_s=STEADY))
        self.assertFalse(ok)
        self.assertIn("SPREAD", "\n".join(lines))

    def test_setup_s_is_held_to_its_bound_like_any_metric(self):
        ok, _ = spread.check(SPEC, runs(setup_s=NOISY, latency_p50_us=STEADY,
                                        throughput_per_s=STEADY))
        self.assertFalse(ok)

    def test_a_missing_metric_fails(self):
        ok, lines = spread.check(SPEC, runs(setup_s=STEADY,
                                            latency_p50_us=STEADY))
        self.assertFalse(ok)
        self.assertIn("missing", "\n".join(lines))


class Median(unittest.TestCase):
    def test_lower_is_better(self):
        latency = SPEC["end_to_end"][1]
        self.assertTrue(spread.median_ok(latency, STEADY, scaled(1.09)))
        self.assertFalse(spread.median_ok(latency, STEADY, scaled(1.11)))
        self.assertTrue(spread.median_ok(latency, STEADY, scaled(0.5)))

    def test_higher_is_better(self):
        rate = SPEC["end_to_end"][2]
        self.assertTrue(spread.median_ok(rate, STEADY, scaled(0.91)))
        self.assertFalse(spread.median_ok(rate, STEADY, scaled(0.89)))
        self.assertTrue(spread.median_ok(rate, STEADY, scaled(2.0)))

    def test_a_second_set_is_checked_against_the_first(self):
        first = runs(setup_s=STEADY, latency_p50_us=STEADY,
                     throughput_per_s=STEADY)
        ok, _ = spread.check(SPEC, first, runs(
            setup_s=STEADY, latency_p50_us=scaled(1.05),
            throughput_per_s=STEADY))
        self.assertTrue(ok)
        ok, lines = spread.check(SPEC, first, runs(
            setup_s=STEADY, latency_p50_us=scaled(1.2),
            throughput_per_s=STEADY))
        self.assertFalse(ok)
        self.assertIn("MEDIAN", "\n".join(lines))


class LoadRuns(unittest.TestCase):
    def test_reads_what_collect_writes(self):
        lines = [{"workload": "w", "seed": s, "result": {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"setup_s": {"value": 0.5 + s, "unit": "s"}}}}
            for s in (1, 2)]
        lines[1]["result"]["correct"] = False
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "runs.jsonl")
            with open(path, "w") as f:
                f.write("\n".join(json.dumps(x) for x in lines) + "\n")
            values, correct = spread.load_runs(path)
        self.assertEqual(values, {"w": {"setup_s": [1.5, 2.5]}})
        self.assertFalse(correct)


if __name__ == "__main__":
    unittest.main()
