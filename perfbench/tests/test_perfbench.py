"""Tests for the benchmark's own code (not for qassert).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

The stream tests build qa_perf first (into $CARGO_TARGET_DIR, default
.bench_build), exactly as perfbench/run.py does.
"""

import collections
import json
import os
import re
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402  (the module under test)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class StreamTest(unittest.TestCase):
    """The generated request streams are pure functions of the seed."""

    @classmethod
    def setUpClass(cls):
        build_dir = os.path.abspath(
            os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        cls.qa_perf, _ = run.build(build_dir, dict(os.environ))

    def generate(self, workload, seed, count=400):
        done = subprocess.run(
            [self.qa_perf, "gen", "--workload", workload, "--seed",
             str(seed), "--count", str(count)],
            stdout=subprocess.PIPE, check=True)
        return [line.split(b"\t", 1) for line in done.stdout.splitlines()]

    def test_same_seed_gives_byte_identical_stream(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.generate(workload, 7),
                                 self.generate(workload, 7))

    def test_other_seed_changes_circuits_not_class_mix(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.generate(workload, 7, 1000)
                b = self.generate(workload, 8, 1000)
                bodies_a = {req.split(b",", 1)[1] for _, req in a}
                bodies_b = {req.split(b",", 1)[1] for _, req in b}
                self.assertFalse(bodies_a & bodies_b)

                def mix(jobs):
                    counts = collections.Counter(
                        klass for klass, _ in jobs)
                    return {k: n / len(jobs) for k, n in counts.items()}

                mix_a, mix_b = mix(a), mix(b)
                self.assertEqual(set(mix_a), set(mix_b))
                for klass in mix_a:
                    self.assertAlmostEqual(mix_a[klass], mix_b[klass],
                                           delta=0.06)

    def test_requests_are_json_with_the_shots_they_claim(self):
        for workload in run.WORKLOADS:
            for _, request in self.generate(workload, 3, 50):
                parsed = json.loads(request)
                self.assertIn("qasm", parsed)
                self.assertGreater(parsed["shots"], 0)
                self.assertLess(parsed["seed"], 2 ** 53)


class PercentileTest(unittest.TestCase):

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.highest_percentile(19))
        self.assertEqual(run.highest_percentile(20), 50.0)
        self.assertEqual(run.highest_percentile(999), 90.0)
        self.assertEqual(run.highest_percentile(1000), 99.0)
        self.assertEqual(run.highest_percentile(9999), 99.0)
        self.assertEqual(run.highest_percentile(10000), 99.9)
        self.assertEqual(run.highest_percentile(100000), 99.99)

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7.5], 99), 7.5)
        self.assertEqual(run.percentile([], 50), 0.0)


class NameTest(unittest.TestCase):

    def emitted(self):
        return ([n for n, _ in run.E2E_METRICS + run.RECORD_ONLY_E2E
                 + run.PER_LAYER_METRICS] + list(run.WORKLOADS))

    def test_every_emitted_name_is_well_formed(self):
        names = self.emitted()
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_what_run_emits(self):
        path = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as handle:
            spec = json.load(handle)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.E2E_METRICS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER_METRICS))


if __name__ == "__main__":
    unittest.main()
