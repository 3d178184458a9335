#!/usr/bin/env python3
"""Self-test of the benchmark's own logic; needs no dvf build.

    python3 perfbench/selftest.py
"""

import json
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

PY = sys.executable


class References(unittest.TestCase):
    def op(self, script, expected):
        with open(os.devnull, "w") as log:
            return run.fresh_op(run.Children(), [PY, "-c", script], expected, log)

    def test_wrong_reference_fails_fresh_op(self):
        self.assertIsNone(self.op("print('rows')", b"rows\n")[2])
        self.assertIn("differs", self.op("print('rows')", b"other\n")[2])

    def test_nonzero_exit_fails_fresh_op(self):
        error = self.op("print('rows'); raise SystemExit(3)", b"rows\n")[2]
        self.assertIn("exit code 3", error)

    def test_serve_response_checks(self):
        line = run.request_line("verify", "VM")
        good = '{"id":"verify:VM","ok":true,"result":{"rows":[]}}'
        refs = {"verify:VM": good}
        self.assertIsNone(run.serve_check(line, good, refs))
        self.assertIn("differs", run.serve_check(line, good, {"verify:VM": good + " "}))
        self.assertIn("differs", run.serve_check(line, good, {}))
        refused = '{"id":"verify:VM","ok":false,"error":"x"}'
        self.assertIn("ok is not true", run.serve_check(line, refused, {"verify:VM": refused}))
        self.assertIn("not JSON", run.serve_check(line, "garbage", refs))

    def test_committed_references_are_ok_responses(self):
        refs = run.serve_references()
        kinds = {f"{op}:{wl}" for op, wl, _ in run.ROUND}
        self.assertEqual(set(refs), kinds)
        for line in refs.values():
            self.assertIs(json.loads(line)["ok"], True)


class Percentiles(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(99)), 0.9))
        self.assertEqual(run.percentile(list(range(100)), 0.9), 89)
        self.assertIsNone(run.percentile([1.0] * 10, 0.5))
        self.assertEqual(run.percentile(list(range(20)), 0.5), 9)
        self.assertIsNone(run.percentile([], 0.5))


class ServeRound(unittest.TestCase):
    def test_composition_does_not_depend_on_seed(self):
        rounds = [run.round_requests(random.Random(seed)) for seed in range(5)]
        for r in rounds[1:]:
            self.assertEqual(sorted(r), sorted(rounds[0]))
        self.assertGreater(len({tuple(r) for r in rounds}), 1)
        self.assertEqual(len(rounds[0]), sum(c for _, _, c in run.ROUND))

    def test_percentiles_fall_inside_one_group(self):
        # ROUND lists the kinds from fastest to slowest.
        ranks, first = {}, 1
        for op, wl, copies in run.ROUND:
            ranks[(op, wl)] = (first, first + copies - 1)
            first += copies
        total = first - 1
        for kind, q, margin in ((run.P50_KIND, 0.5, 3), (run.P90_KIND, 0.9, 1)):
            lo, hi = ranks[kind]
            rank = run.nearest_rank(q, total)
            self.assertGreaterEqual(rank - lo, margin, kind)
            self.assertGreaterEqual(hi - rank, margin, kind)


class Metrics(unittest.TestCase):
    def test_self_times_reconcile_with_wall(self):
        def span(id, name, parent, start, end, counts=None, tag=""):
            return {"id": id, "name": name, "tag": tag, "op": 1, "parent": parent,
                    "start_ns": start, "end_ns": end, "counts": counts or {}}
        spans = [
            span(0, "op.verify", -1, 0, 1000),
            span(1, "simulate", 0, 100, 400, {"events": 7}),
            span(2, "model", 0, 400, 900, {"major_collections": 2,
                                           "top_heap_words": 125000}, tag="MG"),
            span(3, "render", 2, 500, 600),
        ]
        m, counts = run.spans_metrics(spans, 1.2e-6)
        self.assertAlmostEqual(m["simulate.s"], 300e-9)
        self.assertAlmostEqual(m["model.s"], 400e-9)
        self.assertAlmostEqual(m["model.MG.s"], 400e-9)
        self.assertAlmostEqual(m["render.s"], 100e-9)
        layer_sum = m["simulate.s"] + m["model.s"] + m["render.s"]
        self.assertAlmostEqual(layer_sum + m["untraced.s"], 1.2e-6)
        self.assertEqual(counts, {"simulate.events": 7, "model.calls": 1})
        self.assertEqual(m["gc.major_collections"], 2)
        self.assertAlmostEqual(m["gc.top_heap_mb"], 1.0)

    def test_model_error_of_golden_rows(self):
        with open(run.GOLDEN_VERIFY) as f:
            rows = run.table_rows(f.read())
        self.assertEqual(len(rows), 30)
        self.assertAlmostEqual(run.model_error_pct(rows), 14.745, places=2)


class Declaration(unittest.TestCase):
    def test_layer_map_matches_benchmark(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(run.BENCH, "layer_map.json")) as f:
            layer_map = json.load(f)
        per_layer = {m["name"] for m in spec["per_layer"]}
        self.assertEqual(set(layer_map["layers"]), per_layer)
        known = {m["name"] for m in spec["end_to_end"]} | set(layer_map["report_only"])
        workloads = {w["name"] for w in spec["workloads"]}
        for entry in layer_map["layers"].values():
            for target in entry["moves"] + entry["still"]:
                workload, metric = target.split(":")
                self.assertIn(workload, workloads)
                self.assertIn(metric, known)
        self.assertEqual(workloads, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
