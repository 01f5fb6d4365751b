#!/usr/bin/env python3
"""Self-test for scripts/check_bench_regression.py.

Exercises the checker end-to-end over JSON files in a temp directory: a
healthy pair passes, a genuine regression or a timed row that measures 0
fails (exit 1), a file written under an unknown schema is a hard error
(exit 2), and a comparison in
which no baseline row matches — an emptied or renamed run — fails instead
of passing on zero comparisons. Registered in tests/CMakeLists.txt as a
plain CTest command; runs standalone too:

    python3 tests/check_bench_regression_test.py
"""

import copy
import glob
import json
import os
import subprocess
import sys
import tempfile
import unittest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_SCRIPT = os.path.join(_ROOT, "scripts", "check_bench_regression.py")
_BASELINES = os.path.join(_ROOT, "bench", "baselines")


def _doc(entries):
    return {"schema": "clb-bench-v2", "benchmark": "test", "entries": entries}


def _row(name, threads=1, variant=None, **metrics):
    dims = {"threads": threads}
    if variant is not None:
        dims["variant"] = variant
    return {"name": name, "dims": dims, "metrics": metrics}


def _scale_row(name, ns, n=9984, rss=100 * 1000 * 1000, variant=""):
    return {"name": name, "dims": {"variant": variant, "n": n, "threads": 1},
            "metrics": {"ns_per_round": ns, "peak_rss_bytes": rss}}


def _campaign_baseline():
    with open(os.path.join(_BASELINES, "BENCH_campaign_baseline.json")) as f:
        return json.load(f)


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def _write(self, name, doc):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def _run(self, measured, baseline, *args):
        return subprocess.run(
            [sys.executable, _SCRIPT, measured, baseline, *args],
            capture_output=True, text=True)

    def test_healthy_pair_passes(self):
        base = self._write("base.json", _doc([_row("flood/ring",
                                                   ns_per_round=100)]))
        meas = self._write("meas.json", _doc([_row("flood/ring",
                                                   ns_per_round=150)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("passed", proc.stdout)

    def test_regression_fails(self):
        base = self._write("base.json", _doc([_row("flood/ring",
                                                   ns_per_round=100)]))
        meas = self._write("meas.json", _doc([_row("flood/ring",
                                                   ns_per_round=250)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)

    def test_solve_timing_regression_fails(self):
        base = self._write("base.json", _doc([_row("engine/s",
                                                   ns_per_solve=100)]))
        meas = self._write("meas.json", _doc([_row("engine/s",
                                                   ns_per_solve=250)]))
        self.assertEqual(self._run(meas, base).returncode, 1)

    def test_factor_flag_is_honored(self):
        base = self._write("base.json", _doc([_row("a", ns_per_round=100)]))
        meas = self._write("meas.json", _doc([_row("a", ns_per_round=250)]))
        self.assertEqual(self._run(meas, base, "--factor", "3.0").returncode, 0)

    def test_untimed_row_fails(self):
        # A timed baseline row that measures 0 was not timed at all: fail
        # instead of reporting a 0.00x ratio as ok.
        base = self._write("base.json", _doc([_row("a", ns_per_round=100)]))
        meas = self._write("meas.json", _doc([_row("a", ns_per_round=0)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("UNTIMED", proc.stdout)
        self.assertIn("untimed", proc.stderr)

    def test_untimed_baseline_row_is_not_gated(self):
        base = self._write("base.json", _doc([_row("a", ns_per_round=0)]))
        meas = self._write("meas.json", _doc([_row("a", ns_per_round=0)]))
        self.assertEqual(self._run(meas, base).returncode, 0)

    def test_ungated_metrics_never_fail(self):
        # wall_ms and messages_per_s are reported by benches but not gated.
        base = self._write("base.json", _doc([_row(
            "a", ns_per_round=100, wall_ms=1.0, messages_per_s=10.0)]))
        meas = self._write("meas.json", _doc([_row(
            "a", ns_per_round=100, wall_ms=50.0, messages_per_s=1e9)]))
        self.assertEqual(self._run(meas, base).returncode, 0)

    def test_unknown_schema_baseline_is_an_error(self):
        # A baseline with neither recognized array must not load as zero
        # rows and pass vacuously: exit 2 with a schema diagnostic.
        base = self._write("base.json", {"rows": [_row("flood/ring")]})
        meas = self._write("meas.json", _doc([_row("flood/ring")]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 2, proc.stdout)
        self.assertIn("unrecognized bench schema", proc.stderr)
        self.assertIn("rows", proc.stderr)

    def test_unknown_schema_measured_is_an_error(self):
        base = self._write("base.json", _doc([_row("flood/ring")]))
        meas = self._write("meas.json", {"results": []})
        self.assertEqual(self._run(meas, base).returncode, 2)

    def test_unknown_schema_marker_is_an_error(self):
        for marker in ("clb-bench-v99", "clb-bench-v1", None):
            doc = _doc([_row("a", ns_per_round=100)])
            doc["schema"] = marker
            base = self._write("base.json", doc)
            meas = self._write("meas.json", _doc([_row("a",
                                                       ns_per_round=100)]))
            proc = self._run(meas, base)
            self.assertEqual(proc.returncode, 2, marker)
            self.assertIn(repr(marker), proc.stderr)

    def test_malformed_entries_are_an_error(self):
        meas = self._write("meas.json", _doc([]))
        for bad in ("not-an-object",
                    {"name": "a", "threads": 1, "ns_per_round": 100},
                    {"name": "a", "dims": [], "metrics": {}}):
            base = self._write("base.json", _doc([bad]))
            self.assertEqual(self._run(meas, base).returncode, 2, bad)
        top = self._write("top.json", [1, 2, 3])
        self.assertEqual(self._run(meas, top).returncode, 2)

    def test_google_benchmark_rows_load_as_the_same_shape(self):
        gb = {"benchmarks": [
            {"name": "BM_solve", "run_type": "iteration",
             "real_time": 2.0, "time_unit": "us"},
            {"name": "BM_solve_mean", "run_type": "aggregate",
             "real_time": 9.9, "time_unit": "us"},
        ]}
        base = self._write("base.json", gb)
        meas = self._write("meas.json", gb)
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("1 entries compared", proc.stdout)
        self.assertIn("ns_per_iteration 2000", proc.stdout)
        slow = copy.deepcopy(gb)
        slow["benchmarks"][0]["real_time"] = 5.0
        proc = self._run(self._write("slow.json", slow), base)
        self.assertEqual(proc.returncode, 1)

    def test_vacuous_comparison_still_fails(self):
        base = self._write("base.json", _doc([_row("old/name",
                                                   ns_per_round=100)]))
        meas = self._write("meas.json", _doc([_row("new/name",
                                                   ns_per_round=100)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no baseline entry matched", proc.stderr)

    def test_emptied_campaign_document_fails(self):
        # Campaign rows carry wall_ms but no gated timing metric; an
        # emptied run must still fail, not pass on zero comparisons.
        doc = _campaign_baseline()
        doc["entries"] = []
        base = os.path.join(_BASELINES, "BENCH_campaign_baseline.json")
        proc = self._run(self._write("meas.json", doc), base)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("no baseline entry matched", proc.stderr)

    def test_renamed_campaign_document_fails(self):
        doc = _campaign_baseline()
        for e in doc["entries"]:
            e["name"] = e["name"].replace("campaign/", "sweep/")
        base = os.path.join(_BASELINES, "BENCH_campaign_baseline.json")
        proc = self._run(self._write("meas.json", doc), base)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("no baseline entry matched", proc.stderr)

    def test_fault_counters_must_be_zero(self):
        base = os.path.join(_BASELINES, "BENCH_campaign_baseline.json")
        for fault in ("jobs_quarantined", "jobs_blocked"):
            doc = _campaign_baseline()
            doc["entries"][-1]["metrics"][fault] = 2
            proc = self._run(self._write("meas.json", doc), base)
            self.assertEqual(proc.returncode, 1, fault)
            self.assertIn(f"{fault} = 2", proc.stderr)

    def test_checked_in_baselines_pass_against_themselves(self):
        paths = sorted(glob.glob(os.path.join(_BASELINES, "*.json")))
        self.assertTrue(paths)
        for path in paths:
            proc = self._run(path, path)
            self.assertEqual(proc.returncode, 0, path + proc.stderr)

    def test_variants_compare_independently(self):
        # A regression in one configuration is caught even when another
        # configuration of the same workload improved.
        base = self._write("base.json", _doc([
            _row("flood/ring", variant="a", ns_per_round=100),
            _row("flood/ring", variant="b", ns_per_round=900),
        ]))
        meas = self._write("meas.json", _doc([
            _row("flood/ring", variant="a", ns_per_round=300),
            _row("flood/ring", variant="b", ns_per_round=100),
        ]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("flood/ring threads=1 variant=a: ns_per_round 300",
                      proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)

    def test_scale_healthy_pair_passes(self):
        base = self._write("base.json", _doc([
            _scale_row("scale/gxbar-1e4", 5e6, n=9984),
            _scale_row("scale/gxbar-1e5", 8e7, n=99984),
        ]))
        meas = self._write("meas.json", _doc([
            _scale_row("scale/gxbar-1e4", 4e6, n=9984),
            _scale_row("scale/gxbar-1e5", 9e7, n=99984),
        ]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("2 entries compared", proc.stdout)
        self.assertIn("n=9984", proc.stdout)

    def test_scale_rows_key_by_n(self):
        # A small-n measurement must never satisfy a million-node
        # baseline: with no matching key the comparison is vacuous.
        base = self._write("base.json", _doc(
            [_scale_row("scale/gxbar-1e6", 9e8, n=999984)]))
        meas = self._write("meas.json", _doc(
            [_scale_row("scale/gxbar-1e6", 100, n=9984)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no baseline entry matched", proc.stderr)

    def test_rss_regression_fails(self):
        # The memory gate: same timing, 10x the resident set — a leaked
        # materialization of the implicit blocks must fail even when the
        # round time looks fine.
        base = self._write("base.json", _doc(
            [_scale_row("scale/gxbar-1e5", 8e7, n=99984, rss=4 * 10**8)]))
        meas = self._write("meas.json", _doc(
            [_scale_row("scale/gxbar-1e5", 8e7, n=99984, rss=4 * 10**9)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("peak_rss_bytes", proc.stderr)

    def test_missing_baseline_rows_are_notes_only(self):
        # The scale-smoke CI job stops at n=1e5; the 1e6 baseline rows
        # exist for the nightly job and must not fail the smoke run.
        base = self._write("base.json", _doc([
            _scale_row("scale/gxbar-1e4", 5e6, n=9984),
            _scale_row("scale/gxbar-1e6", 9e8, n=999984),
        ]))
        meas = self._write("meas.json", _doc(
            [_scale_row("scale/gxbar-1e4", 5e6, n=9984)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("missing from measured run", proc.stdout)

    def test_flood_alloc_gate_fails(self):
        base = self._write("base.json", _doc([_row("flood/ring",
                                                   ns_per_round=100)]))
        meas = self._write("meas.json", _doc([_row(
            "flood/ring", ns_per_round=100, allocs_per_round=3)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("allocs_per_round = 3", proc.stderr)

    def test_alloc_gate_is_scoped_to_flood_rows(self):
        base = self._write("base.json", _doc([_row("greedy-mis/ring",
                                                   ns_per_round=100)]))
        meas = self._write("meas.json", _doc([_row(
            "greedy-mis/ring", ns_per_round=100, allocs_per_round=1)]))
        self.assertEqual(self._run(meas, base).returncode, 0)


if __name__ == "__main__":
    unittest.main()
