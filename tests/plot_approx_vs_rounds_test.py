#!/usr/bin/env python3
"""Self-test for scripts/plot_approx_vs_rounds.py.

Runs the script on tests/golden/bench_approx_rows.json without --clb (the
closed-form theorem curves, standard library only) and checks that it
writes an SVG with one scatter point per plottable row. Registered in
tests/CMakeLists.txt as a plain CTest command; runs standalone too:

    python3 tests/plot_approx_vs_rounds_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
import xml.etree.ElementTree as ET

_HERE = os.path.dirname(os.path.abspath(__file__))
_SCRIPT = os.path.join(_HERE, os.pardir, "scripts", "plot_approx_vs_rounds.py")
_GOLDEN = os.path.join(_HERE, "golden", "bench_approx_rows.json")
_SVG = "{http://www.w3.org/2000/svg}"


class PlotApproxVsRoundsTest(unittest.TestCase):
    def test_golden_rows_plot_one_point_each(self):
        with open(_GOLDEN) as f:
            rows = json.load(f)["entries"]
        plottable = [
            r for r in rows
            if r["metrics"]["rounds"] > 0
            and max(r["metrics"]["opt_exact"], r["metrics"]["opt_upper"]) > 0]
        self.assertTrue(plottable)

        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "approx.svg")
            proc = subprocess.run(
                [sys.executable, _SCRIPT, "--bench", _GOLDEN, "--out", out],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertIn(f"{len(plottable)} measured points", proc.stdout)
            root = ET.parse(out).getroot()

        self.assertEqual(root.tag, _SVG + "svg")
        points = [c for c in root.iter(_SVG + "circle")
                  if c.get("class") == "point"]
        self.assertEqual(len(points), len(plottable))


if __name__ == "__main__":
    unittest.main()
