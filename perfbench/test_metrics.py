"""Tests for the benchmark's own statistics and output schema.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need neither a build nor a run of the harness.
"""

import json
import os
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402
import run  # noqa: E402


def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


class TailSelection(unittest.TestCase):
    def test_nearest_rank_percentiles(self):
        pairs = metrics.rle(range(1, 101))
        self.assertEqual(metrics.quantile(pairs, 50), 50)
        self.assertEqual(metrics.quantile(pairs, 90), 90)
        self.assertEqual(metrics.quantile(pairs, 99), 99)
        self.assertEqual(metrics.quantile(pairs, 100), 100)
        self.assertEqual(metrics.quantile(metrics.rle([7]), 50), 7)

    def test_run_length_encoding_is_exact(self):
        vals = [5, 1, 5, 3, 3, 3]
        pairs = metrics.rle(vals)
        self.assertEqual(pairs, [[1, 1], [3, 3], [5, 2]])
        self.assertEqual(metrics.rle_count(pairs), 6)
        self.assertEqual(metrics.quantile(pairs, 50), 3)
        self.assertEqual(metrics.quantile(pairs, 100), 5)

    def test_tail_needs_ten_samples_beyond(self):
        # 110 ops: p90 leaves 11 beyond, p95 only 5 -> p90.
        p, value, beyond = metrics.tail(metrics.rle(range(1, 111)))
        self.assertEqual((p, value, beyond), (90, 99, 11))
        # 100 ops: p90 leaves exactly 10 -> still p90.
        self.assertEqual(metrics.tail(metrics.rle(range(1, 101)))[0], 90)
        # 1000 ops: p99 leaves 10.
        p, value, beyond = metrics.tail(metrics.rle(range(1, 1001)))
        self.assertEqual((p, value, beyond), (99, 990, 10))
        # Millions of ops never go past the ladder's top.
        self.assertEqual(metrics.tail([[1, 5000000]])[0], 99)

    def test_tail_with_few_ops(self):
        # 40 ops: p75 leaves 10 beyond, p90 only 4.
        self.assertEqual(metrics.tail(metrics.rle(range(1, 41)))[:2], (75, 30))
        # 20 ops: p50 leaves exactly 10.
        self.assertEqual(metrics.tail(metrics.rle(range(1, 21))), (50, 10, 10))
        # 19 ops: nothing qualifies; the maximum is reported as p100 with
        # no samples beyond it.
        self.assertEqual(metrics.tail(metrics.rle(range(1, 20))), (100, 19, 0))
        self.assertEqual(metrics.tail(metrics.rle([4])), (100, 4, 0))

    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(metrics.beyond(110, 90), 11)
        self.assertEqual(metrics.beyond(20, 50), 10)
        self.assertEqual(metrics.beyond(1, 50), 0)

    def test_median_of_setup_runs(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(metrics.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(ValueError):
            metrics.median([])


class FailureCounting(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(metrics.failures(200, 0), (0, 0.0))
        self.assertEqual(metrics.failures(200, 5), (5, 0.025))

    def test_an_op_fails_once(self):
        # One op failing three of its checks is still one failed op.
        self.assertEqual(metrics.failures(2, 3), (2, 1.0))

    def test_no_ops_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.failures(0, 0)


class Names(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "op_ms_p50", "query.fscs_us_p99",
                     "core.clusters", "a-b.c_d", "9lives", "x" * 64):
            self.assertTrue(metrics.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "has space", "ünï", "a/b",
                    "x" * 65, "p99%", None):
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_benchmark_json_names_and_units(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertTrue(metrics.valid_name(m["name"]), m["name"])
            self.assertTrue(metrics.valid_unit(m["unit"]), m["unit"])
        for w in s["workloads"]:
            self.assertTrue(metrics.valid_name(w["name"]))

    def test_reported_metrics_match_benchmark_json(self):
        s = spec()
        raw = {
            "ops": 40, "op_ns": metrics.rle(range(1, 41)),
            "setup_s": [0.5, 0.4, 0.6], "timed_wall_s": 2.0,
            "timed_cpu_s": 4.0, "peak_rss_kb": 2048,
            "clusters_analyzed": 10, "clusters_complete": 9,
        }
        e2e, _ = metrics.end_to_end(raw)
        self.assertEqual({n: u for n, (_, u) in e2e.items()},
                         {m["name"]: m["unit"] for m in s["end_to_end"]})
        self.assertEqual(e2e["setup_s"][0], 0.5)
        self.assertEqual(e2e["ops_per_s"][0], 20.0)
        self.assertEqual(e2e["cpu_ms_per_op"][0], 100.0)
        self.assertEqual(e2e["peak_rss_mb"][0], 2.0)
        traced = {
            "span_names": [], "counts": {}, "values": {}, "traced_ops": 1,
            "publish_ns": [], "untraced_pass_s": 1.0, "traced_pass_s": 1.1,
            "calib_ms": [1.0, 3.0],
        }
        layer = metrics.per_layer(traced, [])
        self.assertEqual({n: u for n, (_, u) in layer.items()},
                         {m["name"]: m["unit"] for m in s["per_layer"]})
        self.assertAlmostEqual(layer["trace.overhead_pct"][0], 10.0)
        self.assertEqual(layer["host.calib_ms"][0], 2.0)


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted(self):
        names = ["bench.op", "fscs.cluster", "core.cover"]
        spans = [
            # start, end, id, parent, op, name, pad
            (0, 100, 1, 0, 1, 0, 0),
            (10, 50, 2, 1, 1, 1, 0),   # two overlapping parallel children
            (30, 70, 3, 1, 1, 1, 0),
            (80, 90, 4, 1, 1, 2, 0),
            (0, 1000, 5, 0, 0, 2, 0),  # set-up span (op 0): not counted
        ]
        selfs = metrics.self_times(spans, names)
        self.assertEqual(selfs["bench"], 100 - 60 - 10)
        self.assertEqual(selfs["fscs"], 40 + 40)
        self.assertEqual(selfs["core"], 10)

    def test_span_file_layout(self):
        rec = metrics.SPAN.pack(1, 2, 3, 4, 5, 6, 0)
        self.assertEqual(len(rec), 32)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.bin")
            with open(path, "wb") as f:
                f.write(rec * 2)
            self.assertEqual(metrics.read_spans(path),
                             [(1, 2, 3, 4, 5, 6, 0)] * 2)


class Determinism(unittest.TestCase):
    def test_counts_must_repeat(self):
        args = types.SimpleNamespace(workload="cascade", seed=1, seconds=10,
                                     trace=0)
        with tempfile.TemporaryDirectory() as d:
            binary = os.path.join(d, "harness")
            with open(binary, "wb") as f:
                f.write(b"binary")
            counts = {"fscs.steps": 10, "core.clusters": 3}
            self.assertTrue(run.determinism_check(d, binary, args, counts)[0])
            self.assertTrue(run.determinism_check(d, binary, args,
                                                  dict(counts))[0])
            ok, msg = run.determinism_check(
                d, binary, args, {"fscs.steps": 11, "core.clusters": 3})
            self.assertFalse(ok)
            self.assertIn("fscs.steps 10 -> 11", msg)
            # Another seed, or a rebuilt binary, starts a fresh record.
            args.seed = 2
            self.assertTrue(run.determinism_check(d, binary, args,
                                                  {"fscs.steps": 11})[0])
            with open(binary, "wb") as f:
                f.write(b"rebuilt")
            args.seed = 1
            self.assertTrue(run.determinism_check(d, binary, args,
                                                  {"fscs.steps": 11})[0])


class Schema(unittest.TestCase):
    def result(self):
        return {
            "correct": True, "attempted": 110, "failed": 0,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                        for m in spec()["end_to_end"]},
        }

    def test_valid_result(self):
        self.assertEqual(metrics.check_result(self.result(), spec(), 0), [])

    def test_wrong_keys(self):
        r = self.result()
        r["extra"] = 1
        self.assertTrue(metrics.check_result(r, spec(), 0))
        r = self.result()
        del r["failed"]
        self.assertTrue(metrics.check_result(r, spec(), 0))

    def test_missing_metric_and_wrong_unit(self):
        r = self.result()
        r["metrics"].pop("setup_s")
        self.assertTrue(metrics.check_result(r, spec(), 0))
        r = self.result()
        r["metrics"]["op_ms_p50"]["unit"] = "s"
        self.assertTrue(metrics.check_result(r, spec(), 0))

    def test_bad_values(self):
        for bad in (float("nan"), "1.0", None, True):
            r = self.result()
            r["metrics"]["op_ms_p50"]["value"] = bad
            self.assertTrue(metrics.check_result(r, spec(), 0), bad)
        r = self.result()
        r["attempted"] = 0
        self.assertTrue(metrics.check_result(r, spec(), 0))

    def test_traced_result_needs_per_layer_metrics(self):
        self.assertTrue(metrics.check_result(self.result(), spec(), 1))

    def test_result_is_one_json_line(self):
        line = json.dumps(self.result())
        self.assertNotIn("\n", line)
        self.assertEqual(json.loads(line), self.result())


if __name__ == "__main__":
    unittest.main()
