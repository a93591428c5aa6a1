#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py            # everything (a few minutes)
    python3 perfbench/test_perfbench.py Offline    # no build, no runs

Offline: the metric catalogue agrees with BENCHMARK.json, and the trace
checker, the self-time, tail-percentile and throughput rules behave. Short
runs: each workload for one second, untraced and traced, must print every
metric by name with its unit and sample count, end in a well-formed result
line, pass its output checks, and leave a trace whose parent links resolve
and whose children lie inside their parents; on stl_cold the compact stage
spans must cover at least nine tenths of each traced campaign.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

STAGE_SPANS = {"compact." + s for s in ("logic_trace", "fault_sim", "label",
                                        "reduce", "validate", "measure")}


def load(path):
    with open(path) as f:
        return json.load(f)


def span(id_, parent, name, start, end, req=""):
    return {"id": id_, "parent": parent, "name": name, "req": req,
            "start_ns": start, "end_ns": end}


class Offline(unittest.TestCase):
    def test_catalogue_matches_benchmark_json(self):
        bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        cat = load(run.CATALOGUE)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(cat["workloads"]))
        for key in ("end_to_end", "per_layer"):
            self.assertEqual([m["name"] for m in bench[key]], list(cat[key]))
            for m in bench[key]:
                spec = cat[key][m["name"]]
                self.assertEqual((m["unit"], m["better"]),
                                 (spec["unit"], spec["better"]), m["name"])
        for name, spec in cat["per_layer"].items():
            for move in spec["moves"]:
                metric, workload = move.split("@")
                self.assertIn(metric, cat["end_to_end"], name)
                self.assertIn(workload, cat["workloads"], name)

    def test_check_trace(self):
        good = [span(1, 0, "compact.campaign", 0, 100),
                span(2, 1, "compact.entry", 10, 90),
                span(3, 2, "compact.fault_sim", 10, 50)]
        self.assertEqual(run.check_trace(good), [])
        orphan = good + [span(4, 9, "compact.label", 20, 30)]
        self.assertIn("unknown parent", run.check_trace(orphan)[0])
        outside = good + [span(4, 2, "compact.label", 80, 95)]
        self.assertIn("outside its parent", run.check_trace(outside)[0])
        backwards = [span(1, 0, "bench.op", 50, 40)]
        self.assertIn("ends before", run.check_trace(backwards)[0])

    def test_self_times(self):
        spans = [span(1, 0, "bench.op", 0, 100),
                 span(2, 1, "atpg.generate", 10, 60),
                 span(3, 1, "stl.convert", 50, 70)]  # overlaps its sibling
        ns = {k: round(v * 1e9) for k, v in run.self_times(spans).items()}
        self.assertEqual(ns, {"bench": 40, "atpg": 50, "stl": 20})

    def test_tail(self):
        self.assertEqual(run.tail_ms([3.0]), (3.0, "max"))
        self.assertEqual(run.tail_ms([3.0, 1.0]), (3.0, "max"))
        self.assertEqual(run.tail_ms([4.0, 1.0, 3.0, 9.0]), (4.0, "p75.0"))
        value, label = run.tail_ms([float(i) for i in range(200)])
        self.assertEqual((value, label), (189.0, "p95.0"))
        value, label = run.tail_ms([float(i) for i in range(50)])
        self.assertEqual((value, label), (44.0, "p90.0"))
        # Ten or eleven samples: the second-longest either way.
        self.assertEqual(run.tail_ms([float(i) for i in range(10)])[0], 8.0)
        self.assertEqual(run.tail_ms([float(i) for i in range(11)])[0], 9.0)

    def test_throughput(self):
        # One operation at a time, 2 s each except a disturbed 6-s one.
        self.assertEqual(run.throughput([2.0, 4.0, 10.0, 12.0, 14.0]),
                         (0.5, 5))
        # Ten operations, two per slice, every slice 1 s long.
        ends = [0.5 * (i + 1) for i in range(10)]
        self.assertEqual(run.throughput(ends), (2.0, 5))
        self.assertEqual(run.throughput([3.0]), (1.0 / 3.0, 1))


class ShortRuns(unittest.TestCase):
    def run_workload(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=400)
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], out.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        cat = load(run.CATALOGUE)["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), list(cat))
        for name, spec in cat.items():
            self.assertEqual(result["metrics"][name]["unit"], spec["unit"])
            printed = [l for l in lines if l.split()[:1] == [name]]
            self.assertEqual(len(printed), 1, name)
            self.assertRegex(printed[0], r" %s +n=\d+" % re.escape(
                spec["unit"]))
        return result

    def test_every_workload(self):
        for workload in load(run.CATALOGUE)["workloads"]:
            with self.subTest(workload=workload):
                self.run_workload(workload, 0)
                traced = self.run_workload(workload, 1)
                spans = load(os.path.join(run.BUILD, "trace-%s.json" %
                                          workload))["spans"]
                self.assertTrue(spans)
                self.assertEqual(run.check_trace(spans), [])
                if workload == "stl_cold":
                    self.assert_stages_cover_campaigns(spans)
                    self.assertGreater(
                        traced["metrics"]["compact.fault_sims"]["value"], 0)

    def assert_stages_cover_campaigns(self, spans):
        by_id = {s["id"]: s for s in spans}

        def campaign_of(s):
            while s["parent"] != 0:
                s = by_id[s["parent"]]
            return s

        stage_ns = {}
        for s in spans:
            if s["name"] in STAGE_SPANS:
                root = campaign_of(s)
                stage_ns[root["id"]] = (stage_ns.get(root["id"], 0) +
                                        s["end_ns"] - s["start_ns"])
        campaigns = [s for s in spans if s["name"] == "compact.campaign" and
                     s["req"].startswith("campaign-")]
        self.assertTrue(campaigns)
        for c in campaigns:
            wall = c["end_ns"] - c["start_ns"]
            self.assertGreaterEqual(stage_ns.get(c["id"], 0), 0.9 * wall)
            self.assertLessEqual(stage_ns.get(c["id"], 0), wall)


if __name__ == "__main__":
    unittest.main()
