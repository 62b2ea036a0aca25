"""Tests of the benchmark's own logic (no build, no programs run):

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

testdata/ holds a recorded e2e_driver run of b01 (seed 1, stuck-at,
--no-dynamic) and the Chrome trace it wrote with --trace-out.
"""

import json
import os
import tempfile
import types
import unittest
from pathlib import Path

import run

DATA = Path(__file__).resolve().parent / "testdata"


def recorded():
    notes, end, runs = run.parse_driver_output(
        (DATA / "b01_driver.jsonl").read_text())
    events = json.loads((DATA / "b01_trace.json").read_text())["traceEvents"]
    return notes, end, runs, events


def fake_op(notes, end, runs):
    """A SuiteOp whose process ran from 1 ms before the first note to
    1 ms after the end."""
    proc = types.SimpleNamespace(t_spawn=notes[0][1] - 1e-3,
                                 wall=end[0] - notes[0][1] + 2e-3,
                                 rss_mb=20.0, cpu=0.25, rc=0,
                                 timed_out=False)
    return run.SuiteOp(proc, notes, end, [[] for _ in runs])


class SpanAggregation(unittest.TestCase):
    def setUp(self):
        self.notes, self.end, self.runs, self.events = recorded()
        self.spans = run.stage_spans(self.notes, self.end)

    def test_stages_tile_the_run(self):
        stages = run.stage_seconds(self.spans)
        self.assertEqual([s for s in stages if s.startswith("unmapped")], [])
        self.assertAlmostEqual(sum(stages.values()),
                               self.end[0] - self.notes[0][1], places=9)
        self.assertEqual(len(self.spans), len(self.notes))
        self.assertGreater(stages["atpg.comb_tset"], 0.0)
        self.assertGreater(stages["tcomp.phase4"], 0.0)
        self.assertNotIn("tcomp.dynamic", stages)  # --no-dynamic

    def test_stage_counter_deltas_sum_to_run_totals(self):
        per_stage = run.stage_counter_deltas(self.spans)
        for counter in ("frames_simulated", "queries_run", "iterate_rounds"):
            total = self.end[1][counter] - self.notes[0][2][counter]
            self.assertGreater(total, 0)
            self.assertEqual(
                sum(d.get(counter, 0) for d in per_stage.values()), total)
        rounds = sum(1 for n, _, _ in self.notes if n.startswith("phase 1 "))
        self.assertEqual(per_stage["tcomp.phase2"]["iterate_rounds"], rounds)

    def test_query_spans_account_for_every_query(self):
        totals = run.query_totals(self.events)
        queries = self.end[1]["queries_run"] - self.notes[0][2]["queries_run"]
        self.assertEqual(sum(c for c, _ in totals.values()), queries)
        self.assertEqual(set(totals) - set(run.QUERY_KINDS), set())
        run_s = self.end[0] - self.notes[0][1]
        self.assertLessEqual(sum(s for _, s in totals.values()), run_s)

    def test_nested_query_self_time(self):
        ev = [
            {"ph": "X", "cat": "query", "name": "detect_batch", "tid": 0,
             "ts": 0, "dur": 100},
            {"ph": "X", "cat": "query", "name": "detect_scan_test",
             "tid": 0, "ts": 10, "dur": 30},
            {"ph": "X", "cat": "query", "name": "detect_scan_test",
             "tid": 0, "ts": 50, "dur": 20},
            {"ph": "X", "cat": "query", "name": "detects_all", "tid": 1,
             "ts": 5, "dur": 40},
            {"ph": "X", "cat": "query", "name": "detects_all", "tid": 0,
             "ts": 100, "dur": 7},
            {"ph": "X", "cat": "phase", "name": "phase4", "tid": 0,
             "ts": 0, "dur": 1000},
        ]
        totals = run.query_totals(ev)
        self.assertEqual(totals["detect_batch"][0], 1)
        self.assertAlmostEqual(totals["detect_batch"][1], 50e-6)
        self.assertEqual(totals["detect_scan_test"][0], 2)
        self.assertAlmostEqual(totals["detect_scan_test"][1], 50e-6)
        self.assertEqual(totals["detects_all"][0], 2)
        self.assertAlmostEqual(totals["detects_all"][1], 47e-6)
        self.assertNotIn("phase4", totals)


class SpanCoverage(unittest.TestCase):
    def setUp(self):
        self.notes, self.end, self.runs, _ = recorded()

    def test_reported_stages_cover_the_run_after_set_up(self):
        op = fake_op(self.notes, self.end, self.runs)
        after_setup = op.proc.wall - op.setup
        pipeline = sum(t1 - t0 for s, _, t0, t1, _ in op.spans
                       if s == "tcomp.pipeline_entry")
        # The 1 ms after the end note and the unreported pipeline entry
        # stages are the only gaps.
        self.assertAlmostEqual(run.span_coverage(op),
                               1 - (1e-3 + pipeline) / after_setup, places=9)

    def test_time_in_an_unmapped_stage_is_a_gap(self):
        # A note the benchmark does not know, halfway into the longest
        # stage.
        i = max(range(len(self.notes) - 1),
                key=lambda i: self.notes[i + 1][1] - self.notes[i][1])
        t = (self.notes[i][1] + self.notes[i + 1][1]) / 2
        notes = self.notes[:i + 1] + [("new stage", t, self.notes[i][2])] + \
            self.notes[i + 1:]
        gap = self.notes[i + 1][1] - t
        before = run.span_coverage(fake_op(self.notes, self.end, self.runs))
        op = fake_op(notes, self.end, self.runs)
        self.assertIn("unmapped:new stage", run.stage_seconds(op.spans))
        self.assertAlmostEqual(run.span_coverage(op),
                               before - gap / (op.proc.wall - op.setup),
                               places=9)


class DriverFailure(unittest.TestCase):
    """A driver that dies before its "end" line, or times out, is a failed
    operation; the run still reports."""

    def setUp(self):
        self.text = (DATA / "b01_driver.jsonl").read_text()
        self.truncated = "".join(self.text.splitlines(True)[:10])
        self.assertNotIn('"end"', self.truncated)

    def proc(self, rc=0, timed_out=False):
        return types.SimpleNamespace(t_spawn=0.0, wall=1.0, rss_mb=20.0,
                                     cpu=0.5, rc=rc, timed_out=timed_out)

    def test_output_without_end_fails_every_circuit(self):
        for proc, why in ((self.proc(), "driver output has no end record"),
                          (self.proc(rc=-6), "driver exit code -6"),
                          (self.proc(rc=-9, timed_out=True),
                           "driver timed out")):
            op = run.check_suite_output(proc, self.truncated, ["b01", "b02"],
                                        1, {})
            self.assertEqual(op.problems, [[why], [why]])
            self.assertFalse(op.timed)
            self.assertEqual(op.spans, [])
        # A non-zero exit fails the op even with complete output.
        op = run.check_suite_output(self.proc(rc=1), self.text, ["b01"], 1,
                                    {})
        self.assertEqual(op.problems, [["driver exit code 1"]])

    def test_metrics_leave_out_what_a_failed_op_cannot_give(self):
        op = run.check_suite_output(self.proc(rc=-6), self.truncated,
                                    ["b01"], 1, {})
        self.assertEqual(run.suite_end_to_end([op], [0.004]),
                         {"setup_s": 0.004})
        self.assertIsNone(run.trace_overhead([op], [op]))
        self.assertEqual(run.suite_layer_metrics(op, None, [], 2, 2),
                         {"failed_frac": 1.0})

    def test_crashing_driver_counts_as_failed(self):
        # A stand-in driver that prints some notes and aborts.
        with tempfile.TemporaryDirectory() as tmp:
            notes = Path(tmp) / "notes.jsonl"
            notes.write_text(self.truncated)
            driver = Path(tmp) / "driver"
            driver.write_text(f"#!/bin/sh\ncat '{notes}'\nexit 3\n")
            os.chmod(driver, 0o755)
            for trace, attempted in ((0, run.SUITE_SETUP_PROBES + 1),
                                     (1, 2)):
                with self.subTest(trace=trace):
                    got = run.run_suite_workload(
                        "suite-sa", 0, trace, Path(tmp), driver)
                    self.assertEqual(got[:3], (attempted, attempted, 0))
                    self.assertEqual(
                        set(got[3]) & {"wall_s", "setup_s", "cpu_s",
                                       "span_coverage_frac"}, set())


class OutputCheck(unittest.TestCase):
    def setUp(self):
        _, _, runs, _ = recorded()
        self.result = run.parse_serialized_run(runs[0])
        self.digest = run.digest(self.result)

    def test_recorded_result_passes(self):
        self.assertEqual(run.check_result(self.result, self.digest), [])

    def test_digest_ignores_seconds_only(self):
        changed = dict(self.result, seconds="99.5")
        self.assertEqual(run.digest(changed), self.digest)

    def test_any_changed_field_is_rejected(self):
        fields = [(k, None) for k, v in self.result.items()
                  if not isinstance(v, dict) and k != "seconds"]
        fields += [(g, f) for g in ("atpg", "random")
                   for f in self.result[g]]
        self.assertGreater(len(fields), 30)
        for key, field in fields:
            changed = json.loads(json.dumps(self.result))
            if field is None:
                changed[key] += "0"
            else:
                changed[key][field] += "0"
            with self.subTest(field=f"{key}.{field}" if field else key):
                self.assertNotEqual(run.check_result(changed, self.digest),
                                    [])

    def test_invariants_hold_without_a_digest(self):
        # Any seed: N_cyc recomputed from its counts, det ordering.
        bad = json.loads(json.dumps(self.result))
        bad["atpg"]["tests_final"] = str(int(bad["atpg"]["tests_final"]) + 1)
        self.assertTrue(any("cyc_comp" in p for p in run.check_result(bad)))
        bad = json.loads(json.dumps(self.result))
        bad["random"]["det_final"] = str(int(bad["detectable"]) + 1)
        self.assertTrue(any("detectable" in p for p in run.check_result(bad)))


class MetricNames(unittest.TestCase):
    """The names each mode prints are exactly BENCHMARK.json's."""

    def setUp(self):
        spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        self.e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.workloads = [w["name"] for w in spec["workloads"]]
        notes, end, runs, self.events = recorded()
        self.op = fake_op(notes, end, runs)

    def check(self, values, expected):
        report = run.as_report(values)
        self.assertEqual(list(report), list(expected))
        self.assertEqual({k: v["unit"] for k, v in report.items()}, expected)

    def test_workloads(self):
        self.assertEqual(self.workloads, run.WORKLOADS)

    def test_suite_end_to_end(self):
        self.check(run.suite_end_to_end([self.op], [0.01, 0.02]), self.e2e)

    def test_suite_per_layer(self):
        overhead = run.trace_overhead([self.op], [self.op])
        values = run.suite_layer_metrics(self.op, overhead, self.events, 1, 0)
        self.check(values, self.layer)
        self.assertAlmostEqual(values["trace_overhead_frac"], 0.0)
        self.assertGreater(values["span_coverage_frac"], 0.95)


if __name__ == "__main__":
    unittest.main()
