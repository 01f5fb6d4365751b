#!/usr/bin/env python3
"""Self-test for scripts/check_bench_regression.py.

Exercises the checker end-to-end over synthetic JSON files in a temp
directory: a healthy pair passes, a genuine regression fails (exit 1),
and — the bug this guards against — a baseline or measured file written
under an unknown schema is a hard error (exit 2) instead of a silent
pass on zero comparisons. Registered in tests/CMakeLists.txt as a plain
CTest command; runs standalone too:

    python3 tests/check_bench_regression_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "scripts", "check_bench_regression.py")


def _clb_doc(entries):
    return {"schema": "clb-bench-v1", "entries": entries}


def _entry(name, ns, threads=1, variant="", **extra):
    e = {"name": name, "variant": variant, "threads": threads,
         "ns_per_round": ns}
    e.update(extra)
    return e


def _scale_doc(entries):
    return {"schema": "clb-scale-v1", "entries": entries}


def _scale_entry(name, ns, n=9984, rss=100 * 1000 * 1000, variant="",
                 **extra):
    e = {"name": name, "variant": variant, "n": n, "threads": 1,
         "ns_per_round": ns, "peak_rss_bytes": rss}
    e.update(extra)
    return e


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
        base = self._write("base.json", _clb_doc([_entry("flood/ring", 100)]))
        meas = self._write("meas.json", _clb_doc([_entry("flood/ring", 150)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("passed", proc.stdout)

    def test_regression_fails(self):
        base = self._write("base.json", _clb_doc([_entry("flood/ring", 100)]))
        meas = self._write("meas.json", _clb_doc([_entry("flood/ring", 250)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)

    def test_factor_flag_is_honored(self):
        base = self._write("base.json", _clb_doc([_entry("a", 100)]))
        meas = self._write("meas.json", _clb_doc([_entry("a", 250)]))
        self.assertEqual(self._run(meas, base, "--factor", "3.0").returncode, 0)

    def test_unknown_schema_baseline_is_an_error(self):
        # The original bug: a baseline with neither recognized array loaded
        # as zero entries, made the comparison vacuous, and the check
        # passed. It must now exit 2 with a schema diagnostic.
        base = self._write("base.json", {"rows": [_entry("flood/ring", 100)]})
        meas = self._write("meas.json", _clb_doc([_entry("flood/ring", 100)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 2, proc.stdout)
        self.assertIn("unrecognized bench schema", proc.stderr)
        self.assertIn("rows", proc.stderr)

    def test_unknown_schema_measured_is_an_error(self):
        base = self._write("base.json", _clb_doc([_entry("flood/ring", 100)]))
        meas = self._write("meas.json", {"results": []})
        self.assertEqual(self._run(meas, base).returncode, 2)

    def test_unknown_schema_marker_is_an_error(self):
        base = self._write("base.json", {
            "schema": "clb-bench-v99", "entries": [_entry("a", 100)]})
        meas = self._write("meas.json", _clb_doc([_entry("a", 100)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("clb-bench-v99", proc.stderr)

    def test_malformed_entries_are_an_error(self):
        base = self._write("base.json", _clb_doc(["not-an-object"]))
        meas = self._write("meas.json", _clb_doc([]))
        self.assertEqual(self._run(meas, base).returncode, 2)
        top = self._write("top.json", [1, 2, 3])
        self.assertEqual(self._run(meas, top).returncode, 2)

    def test_google_benchmark_schema_still_loads(self):
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

    def test_vacuous_comparison_still_fails(self):
        base = self._write("base.json", _clb_doc([_entry("old/name", 100)]))
        meas = self._write("meas.json", _clb_doc([_entry("new/name", 100)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no baseline entry matched", proc.stderr)

    def test_simd_variants_compare_independently(self):
        # A scalar-fallback regression is caught even when the avx2 row of
        # the same workload improved.
        base = self._write("base.json", _clb_doc([
            _entry("flood/ring", 100, variant="scalar"),
            _entry("flood/ring", 900, variant="avx2"),
        ]))
        meas = self._write("meas.json", _clb_doc([
            _entry("flood/ring", 300, variant="scalar"),
            _entry("flood/ring", 100, variant="avx2"),
        ]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("flood/ring [scalar]", proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)

    def test_scale_schema_healthy_pair_passes(self):
        base = self._write("base.json", _scale_doc([
            _scale_entry("scale/gxbar-1e4", 5e6, n=9984),
            _scale_entry("scale/gxbar-1e5", 8e7, n=99984),
        ]))
        meas = self._write("meas.json", _scale_doc([
            _scale_entry("scale/gxbar-1e4", 4e6, n=9984),
            _scale_entry("scale/gxbar-1e5", 9e7, n=99984),
        ]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("2 entries compared", proc.stdout)
        self.assertIn("n=9984", proc.stdout)

    def test_scale_schema_keys_by_n_not_threads(self):
        # A small-n measurement must never satisfy a million-node
        # baseline: with no matching key the comparison is vacuous.
        base = self._write("base.json", _scale_doc(
            [_scale_entry("scale/gxbar-1e6", 9e8, n=999984)]))
        meas = self._write("meas.json", _scale_doc(
            [_scale_entry("scale/gxbar-1e6", 100, n=9984)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no baseline entry matched", proc.stderr)

    def test_scale_rss_regression_fails(self):
        # The memory gate: same timing, 10x the resident set — a leaked
        # materialization of the implicit blocks must fail even when the
        # round time looks fine.
        base = self._write("base.json", _scale_doc(
            [_scale_entry("scale/gxbar-1e5", 8e7, n=99984, rss=4 * 10**8)]))
        meas = self._write("meas.json", _scale_doc(
            [_scale_entry("scale/gxbar-1e5", 8e7, n=99984, rss=4 * 10**9)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("peak RSS", proc.stderr)

    def test_scale_timing_regression_fails(self):
        base = self._write("base.json", _scale_doc(
            [_scale_entry("scale/gxbar-1e4", 5e6)]))
        meas = self._write("meas.json", _scale_doc(
            [_scale_entry("scale/gxbar-1e4", 5e7)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)

    def test_missing_large_n_baseline_rows_are_notes_only(self):
        # The scale-smoke CI job stops at n=1e5; the 1e6 baseline rows
        # exist for the nightly job and must not fail the smoke run.
        base = self._write("base.json", _scale_doc([
            _scale_entry("scale/gxbar-1e4", 5e6, n=9984),
            _scale_entry("scale/gxbar-1e6", 9e8, n=999984),
        ]))
        meas = self._write("meas.json", _scale_doc(
            [_scale_entry("scale/gxbar-1e4", 5e6, n=9984)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("missing from measured run", proc.stdout)

    def test_flood_alloc_gate_fails(self):
        base = self._write("base.json", _clb_doc([_entry("flood/ring", 100)]))
        meas = self._write("meas.json", _clb_doc(
            [_entry("flood/ring", 100, allocs_per_round=3)]))
        proc = self._run(meas, base)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("allocated", proc.stderr)


if __name__ == "__main__":
    unittest.main()
