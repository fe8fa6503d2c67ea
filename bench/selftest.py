"""The benchmark's own tests: ``python3 bench/run.py --self-test``.

They use the smoke inputs, so the whole suite takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
import unittest

import inputs
import run
import scans
import tracer
from plgraph import scene


def _args(workload, trace=0, seed=0):
    return argparse.Namespace(workload=workload, seed=seed, seconds=0.1, trace=trace,
                              smoke=True, self_test=False)


class Verdicts(unittest.TestCase):
    def test_wrong_verdict_counts_as_failed(self):
        inp = run.prepare("control-t2", 0, smoke=True)
        rep = scans.run_rep(inp, 1)
        right = run.Tally("control", 0)
        right.check(rep, "control as control")
        self.assertEqual((right.attempted, right.failed), (2, 0), right.problems)
        wrong = run.Tally("spiral", 0)
        wrong.check(rep, "control as spiral")
        self.assertEqual((wrong.attempted, wrong.failed), (2, 2))

    def test_lk_checker_rejects_a_wrong_linking_number(self):
        inp = run.prepare("lk", 0, smoke=True)
        rep = scans.run_rep(inp, 1)
        doc = json.loads(rep.reports["lk"])
        self.assertEqual(scans.check_lk(doc, inp.max_cycle_len), [])
        for p in doc["pairs"]:
            if sorted(p["cycle_a"]) == sorted(inputs.HOPF_A):
                p["linking_number"] = 0
        self.assertTrue(scans.check_lk(doc, inp.max_cycle_len))

    def test_changed_report_bytes_count_as_failed(self):
        inp = run.prepare("lk", 0, smoke=True)
        rep = scans.run_rep(inp, 1)
        tally = run.Tally("lk", inp.max_cycle_len)
        tally.check(rep, "first")
        rep.reports["lk"] += b" "
        tally.check(rep, "second")
        self.assertEqual((tally.attempted, tally.failed), (2, 1))


class Inputs(unittest.TestCase):
    def test_seed_zero_is_the_shipped_scene(self):
        for kind, shipped in (("spiral", scene.default_paper_config()),
                              ("control", scene.control_short_arc_config())):
            doc = inputs.scene_config_doc(kind, 0)
            want = shipped.to_jsonable()
            del doc["grid"], want["grid"]
            self.assertEqual(doc, want, kind)

    def test_same_seed_same_input_other_seed_other_input(self):
        for make in (lambda s: inputs.scene_config_doc("control", s), inputs.lk_embedding_doc):
            self.assertEqual(make(5), make(5))
            self.assertNotEqual(make(5), make(6))


class Runs(unittest.TestCase):
    def test_smoke_runs_print_every_metric_with_its_unit(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in run.WORKLOADS:
                t0 = time.perf_counter()
                result, rows, _spans, _tally, _inp, _reps = run.run(_args(workload, trace))
                self.assertLess(time.perf_counter() - t0, 60, (workload, trace))
                self.assertTrue(result["correct"], (workload, trace))
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, (workload, trace))
                for name, _value, unit, _samples in rows:
                    self.assertTrue(name and unit, name)

    def test_traced_and_untraced_reports_are_identical(self):
        for workload in run.WORKLOADS:
            inp = run.prepare(workload, 0, smoke=True)
            plain = scans.run_rep(inp, 1)
            with tracer.Tracer():
                traced = scans.run_rep(inp, 1)
            self.assertEqual(plain.reports, traced.reports, workload)

    def test_counters_are_consistent(self):
        inp = run.prepare("spiral", 0, smoke=True)
        with tracer.Tracer() as tr:
            scans.run_rep(inp, 1)
        table = tracer.span_table([tr])
        recheck = table["crosscheck.fan_contact_features"]["calls_by_scan"]["verify.verify_star"]
        self.assertGreater(tr.counts["verify.rechecked"], 0)
        self.assertEqual(recheck, 3 * tr.counts["verify.rechecked"])
        self.assertEqual(table["disks.classify_segment.m128"]["calls"],
                         3 * tr.counts["verify.placements"])

    def test_linking_runs_each_route_twice_per_pair(self):
        # find_generic_apex runs the cone route once per candidate apex and
        # the scan runs it again; direction_is_generic runs once per candidate
        # direction and again inside linking_number_projection.  Rejected
        # candidates are the only calls beyond two per pair.
        inp = run.prepare("lk", 0, smoke=True)
        with tracer.Tracer() as tr:
            scans.run_rep(inp, 1)
        table = tracer.span_table([tr])
        pairs = tr.counts["linking.pairs"]
        self.assertGreater(pairs, 0)
        self.assertEqual(table["linking.linking_number_cone"]["calls"],
                         2 * pairs + tr.counts["linking.linking_number_cone.raised"])
        self.assertEqual(table["linking.direction_is_generic"]["calls"],
                         2 * pairs + tr.counts["linking.direction_is_generic.rejected"])

    def test_without_the_program_it_fails_without_a_result(self):
        bare = run.ROOT / run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "lk", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


def main() -> int:
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1
