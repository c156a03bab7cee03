"""Tests of compare.py's arithmetic and of the result-file schema.

    python3 perfbench/run.py --self-test

The schema round trip runs the built benchmark on the tiny preset (seconds
per workload) and reads its output back through compare.load_results.
"""

import io
import json
import os
import subprocess
import tempfile
import unittest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "geovalid_perfbench")
WORKLOADS = ["batch_audit", "ingest_binary", "serve_mixed", "cluster_mixed"]


class Verdicts(unittest.TestCase):
    def test_summary_uses_statistics_quantiles(self):
        med, q1, q3, spread = compare.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertEqual((q1, q3), (1.5, 4.5))
        self.assertAlmostEqual(spread, 1.0)

    def test_worse_beyond_the_bound(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        new = [x * 1.2 for x in base]
        self.assertEqual(compare.verdict(base, new, "lower", 0.1), "worse")
        self.assertEqual(compare.verdict(base, new, "higher", 0.1), "better")

    def test_same_within_the_bound(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        new = [x * 1.005 for x in base]
        self.assertEqual(compare.verdict(base, new, "lower", 0.1), "same")

    def test_unresolved_when_spread_exceeds_the_bound(self):
        base = [50.0, 100.0, 150.0, 80.0, 120.0]
        new = [60.0, 110.0, 140.0, 90.0, 130.0]
        self.assertEqual(compare.verdict(base, new, "lower", 0.1), "unresolved")

    def test_wide_spread_still_separates_when_every_run_wins(self):
        base = [200.0, 300.0, 250.0, 280.0]
        new = [50.0, 100.0, 75.0, 90.0]
        self.assertEqual(compare.verdict(base, new, "lower", 0.1), "better")
        self.assertEqual(compare.verdict(base, new, "higher", 0.1), "worse")

    def test_unbounded_metrics_only_separate_or_overlap(self):
        self.assertEqual(compare.verdict([1.0, 2.0], [1.5, 2.5], "lower", None),
                         "overlap")

    def test_a_report_metric_that_separates_worse_fails_the_comparison(self):
        bench = {"end_to_end": [{"name": "setup_s", "unit": "s",
                                 "better": "lower", "bound": 0.25}]}

        def run(setup, lag):
            return {"workload": "w", "trace": 0, "failed": 0, "attempted": 1,
                    "detail": {"setup_s": setup, "ingest_lag_p99_ms": lag}}
        # Lag p99 of ten serve_mixed runs; then every stall twice as long.
        lags = [11.2, 9.2, 7.1, 5.5, 11.6, 16.4, 12.2, 28.7, 15.4, 11.0]
        base = [run(1.0, x) for x in lags]
        doubled = [run(1.0, 2 * x) for x in reversed(lags)]
        drifted = [run(1.0, 1.15 * x) for x in reversed(lags)]
        sink = io.StringIO()
        self.assertTrue(compare.compare(base, doubled, bench, out=sink))
        self.assertFalse(compare.compare(base, drifted, bench, out=sink))
        self.assertFalse(compare.compare(doubled, base, bench, out=sink))

    def test_rank_sum_p(self):
        self.assertLess(compare.rank_sum_p([1, 2, 3, 4, 5], [6, 7, 8, 9, 10],
                                           lower=False), 0.01)
        self.assertGreater(compare.rank_sum_p([1, 3, 5, 7, 9], [2, 4, 6, 8, 10],
                                              lower=False), 0.2)
        self.assertGreater(compare.rank_sum_p([1, 2, 3], [4, 5, 6],
                                              lower=False), 0.01)

    def test_tracing_overhead(self):
        def run(trace, eps):
            return {"workload": "w", "trace": trace,
                    "detail": {"events_per_s": eps}}
        runs = [run(0, 100.0), run(0, 102.0), run(1, 90.0)]
        self.assertAlmostEqual(compare.tracing_overhead(runs)["w"],
                               90.0 / 101.0 - 1.0)


@unittest.skipUnless(os.path.isfile(BINARY), "benchmark not built")
class SchemaRoundTrip(unittest.TestCase):
    """Each workload's output, read back, matches BENCHMARK.json."""

    @classmethod
    def setUpClass(cls):
        cls.bench = compare.load_benchmark()
        cls.tmp = tempfile.TemporaryDirectory()
        cls.lines = {}
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                out = subprocess.run(
                    [BINARY, "--workload", workload, "--seed", "3",
                     "--seconds", "0.5", "--trace", trace, "--preset", "tiny"],
                    cwd=cls.tmp.name, capture_output=True, text=True,
                    timeout=120)
                assert out.returncode == 0, out.stderr
                cls.lines[workload, trace] = out.stdout.splitlines()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_result_line_has_exactly_the_contract_keys(self):
        for (workload, trace), lines in self.lines.items():
            result = json.loads(lines[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertIs(result["correct"], True)
            self.assertIsInstance(result["attempted"], int)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            specs = self.bench["per_layer" if trace == "1" else "end_to_end"]
            self.assertEqual([m["name"] for m in specs], list(result["metrics"]),
                             workload)
            for spec in specs:
                metric = result["metrics"][spec["name"]]
                self.assertEqual(set(metric), {"value", "unit"})
                self.assertEqual(metric["unit"], spec["unit"])
                self.assertIsInstance(metric["value"], (int, float))

    def test_report_tags(self):
        for (workload, _), lines in self.lines.items():
            report = json.loads(lines[-2])["report"]
            self.assertEqual(report["workload"], workload)
            for tag in ("cores", "build_type", "git_sha", "src_digest", "seed",
                        "events", "offered_eps", "offered_qps"):
                self.assertIn(tag, report["tags"])
            if workload == "serve_mixed":
                for tag in ("lookup_tail_pct", "lookup_samples",
                            "scan_tail_pct", "scan_samples"):
                    self.assertIn(tag, report["tags"])

    def test_load_results_reads_the_lines_back(self):
        path = os.path.join(self.tmp.name, "set.jsonl")
        with open(path, "w") as f:
            for lines in self.lines.values():
                f.write("\n".join(lines[-2:]) + "\n")
        runs = compare.load_results(path)
        self.assertEqual(len(runs), len(self.lines))
        for run, lines in zip(runs, self.lines.values()):
            result = json.loads(lines[-1])
            self.assertEqual(run["metrics"],
                             {k: v["value"] for k, v in result["metrics"].items()})
            self.assertEqual(run["attempted"], result["attempted"])
        untraced = [r for r in runs if r["trace"] == 0]
        for run in untraced:
            for spec in self.bench["end_to_end"]:
                self.assertEqual(run["detail"][spec["name"]],
                                 run["metrics"][spec["name"]])


if __name__ == "__main__":
    unittest.main()
