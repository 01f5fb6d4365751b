#!/usr/bin/env python3
"""Approximation-quality-vs-rounds figure from BENCH_approx.json.

Reads the upper-bound algorithm zoo's bench output (EXPERIMENTS.md §APX:
one row per (instance, algorithm variant) with the achieved independent-set
weight, the certified or clique-upper-bounded optimum, and the CONGEST
round count) and emits a dependency-free SVG scatter of

    x = rounds the algorithm ran (log scale)
    y = achieved approximation ratio alg_weight / OPT

overlaid with the paper's Theorem 1 and Theorem 2 inapproximability
curves: the point (R(eps, n), ratio) on a curve says "no algorithm with
ratio >= this can finish in fewer than R rounds on n nodes". The measured
zoo runs on CI-sized instances (n = 24..72) where the bounds are vacuous,
so the curves are drawn at a paper-regime --n (default 2^40: large enough
that Theorem 1's linear-in-k communication clears its gadget's cut cost;
Theorem 2's quadratic communication is non-vacuous orders of magnitude
earlier, which is visible in the figure as its curve sitting at far more
rounds — exactly the improvement the paper claims). Curve points whose
bound is below one round are dropped as vacuous.

Curve arithmetic: with --clb the script shells out to `clb bounds <eps>
<n>` per epsilon and uses the construction's exact constants (the same
theorem1_bound/theorem2_bound closed forms the C++ tests pin down).
Without --clb it falls back to the asymptotic shape — CC = k/(t log2 t)
with k = n/t, cut ~= C(t,2) log2^2 k, rounds = CC/(cut log2 n) — which
has the right growth but approximate constants, and the legend says so.

Usage:
    scripts/plot_approx_vs_rounds.py [--bench BENCH_approx.json]
        [--out approx_vs_rounds.svg] [--n 1048576] [--clb build/tools/clb]
"""

import argparse
import json
import math
import re
import subprocess
import sys

# Stable variant -> (color, label) mapping; unknown variants cycle extras.
_VARIANT_STYLE = {
    "kkss-1/4": ("#1f77b4", "KKSS (1+1/4)-approx"),
    "kkss-1/8": ("#17becf", "KKSS (1+1/8)-approx"),
    "full-revelation": ("#2ca02c", "full revelation"),
    "luby": ("#ff7f0e", "Luby MIS"),
}
_EXTRA_COLORS = ["#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]


def load_points(path):
    """[(variant, rounds, ratio, instance)] from a BENCH_approx document."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "clb-bench-v2" or "entries" not in doc:
        raise SystemExit(f"{path}: not a clb-bench-v2 BENCH_approx document")
    points = []
    for e in doc["entries"]:
        m = e.get("metrics", {})
        rounds = m.get("rounds", 0)
        # Certified optimum when the exact solver reached it; the clique
        # upper bound otherwise (ratio is then a lower estimate).
        opt = m.get("opt_exact", -1)
        if opt is None or opt < 0:
            opt = m.get("opt_upper", 0)
        if rounds <= 0 or opt <= 0:
            continue
        points.append((e.get("dims", {}).get("variant", "?"), rounds,
                       m.get("alg_weight", 0) / opt, e.get("name", "?")))
    if not points:
        raise SystemExit(f"{path}: no plottable entries")
    return points


def bounds_via_clb(clb, eps, n):
    """(t1_rounds, t2_rounds) parsed from `clb bounds eps n`; None when the
    theorem does not apply at this epsilon."""
    proc = subprocess.run([clb, "bounds", f"{eps}", str(n)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None, None
    t1 = t2 = None
    for line in proc.stdout.splitlines():
        cells = [c.strip() for c in line.split("|")[1:-1]]
        if len(cells) >= 6 and cells[0] in ("1", "2"):
            try:
                value = float(cells[5])
            except ValueError:
                continue
            if cells[0] == "1":
                t1 = value
            else:
                t2 = value
    return t1, t2


def bounds_closed_form(eps, n):
    """Asymptotic-shape fallback (approximate constants, right growth)."""
    log_n = max(1.0, math.log2(n))

    def rounds(k_strings, t):
        k = max(2, n // t)
        cc = k_strings / (t * max(1.0, math.log2(t)))
        cut = t * (t - 1) / 2 * max(1.0, math.log2(k)) ** 2
        return cc / (cut * log_n)

    t1 = t2 = None
    if 0 < eps < 0.5:
        t = math.ceil(2.0 / eps)
        t1 = rounds(max(2, n // t), t)
    if 0 < eps < 0.25:
        t = max(2, math.ceil(3.0 / (4.0 * eps) - 1.0))
        t2 = rounds(max(2, n // (2 * t)) ** 2, t)
    return t1, t2


def theorem_curves(n, clb=None):
    """Two [(rounds, ratio)] polylines: Theorem 1 at 1/2+eps, Theorem 2 at
    3/4+eps, ratio ascending."""
    curve1, curve2 = [], []
    for i in range(1, 40):
        eps = i / 100.0 * 1.2  # 0.012 .. 0.468
        t1, t2 = bounds_via_clb(clb, eps, n) if clb else \
            bounds_closed_form(eps, n)
        # A bound below one round is vacuous; keep the curves honest.
        if t1 and t1 >= 1.0 and eps < 0.5:
            curve1.append((t1, 0.5 + eps))
        if t2 and t2 >= 1.0 and eps < 0.25:
            curve2.append((t2, 0.75 + eps))
    curve1.sort(key=lambda p: p[1])
    curve2.sort(key=lambda p: p[1])
    return curve1, curve2


class SvgPlot:
    """Minimal hand-rolled SVG scatter plot with a log-x axis."""

    W, H = 860, 560
    L, R, T, B = 80, 240, 48, 64  # margins (legend lives in R)

    def __init__(self, x_min, x_max, title):
        self.x_min, self.x_max = math.log10(x_min), math.log10(x_max)
        self.y_min, self.y_max = 0.0, 1.08
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.W}" '
            f'height="{self.H}" viewBox="0 0 {self.W} {self.H}">',
            f'<rect width="{self.W}" height="{self.H}" fill="white"/>',
            f'<text x="{self.L}" y="24" font-family="sans-serif" '
            f'font-size="15" font-weight="bold">{title}</text>',
        ]

    def x(self, rounds):
        f = (math.log10(rounds) - self.x_min) / (self.x_max - self.x_min)
        return self.L + f * (self.W - self.L - self.R)

    def y(self, ratio):
        f = (ratio - self.y_min) / (self.y_max - self.y_min)
        return self.H - self.B - f * (self.H - self.T - self.B)

    def axes(self):
        x0, x1 = self.L, self.W - self.R
        y0, y1 = self.H - self.B, self.T
        p = self.parts
        p.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                 'stroke="black"/>')
        p.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                 'stroke="black"/>')
        for exp in range(int(math.floor(self.x_min)),
                         int(math.ceil(self.x_max)) + 1):
            if not self.x_min <= exp <= self.x_max:
                continue
            px = self.x(10 ** exp)
            p.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" '
                     f'y2="{y1}" stroke="#dddddd"/>')
            p.append(f'<text x="{px:.1f}" y="{y0 + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">1e{exp}</text>')
        for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
            py = self.y(tick)
            p.append(f'<line x1="{x0}" y1="{py:.1f}" x2="{x1}" y2="{py:.1f}" '
                     'stroke="#eeeeee"/>')
            p.append(f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{tick:g}</text>')
        p.append(f'<text x="{(x0 + x1) / 2:.0f}" y="{self.H - 16}" '
                 'text-anchor="middle" font-family="sans-serif" '
                 'font-size="13">CONGEST rounds (log scale)</text>')
        p.append(f'<text x="22" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
                 'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 22 {(y0 + y1) / 2:.0f})">'
                 'approximation ratio (alg / OPT)</text>')

    def scatter(self, px, py, color):
        self.parts.append(
            f'<circle class="point" cx="{self.x(px):.1f}" '
            f'cy="{self.y(py):.1f}" r="4.5" fill="{color}" '
            f'fill-opacity="0.75" stroke="{color}"/>')

    def polyline(self, pts, color, dash="6,4"):
        coords = " ".join(
            f"{self.x(px):.1f},{self.y(py):.1f}" for px, py in pts)
        self.parts.append(f'<polyline points="{coords}" fill="none" '
                          f'stroke="{color}" stroke-width="2" '
                          f'stroke-dasharray="{dash}"/>')

    def legend_entry(self, idx, color, label, line=False):
        ly = self.T + 10 + idx * 22
        lx = self.W - self.R + 16
        if line:
            self.parts.append(
                f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                f'stroke="{color}" stroke-width="2" stroke-dasharray="6,4"/>')
        else:
            self.parts.append(f'<circle cx="{lx + 11}" cy="{ly}" r="4.5" '
                              f'fill="{color}"/>')
        self.parts.append(
            f'<text x="{lx + 30}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>')

    def render(self):
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench",
                        default="bench/baselines/BENCH_approx_baseline.json")
    parser.add_argument("--out", default="approx_vs_rounds.svg")
    parser.add_argument("--n", type=int, default=1 << 40,
                        help="node count the theorem curves are drawn at")
    parser.add_argument("--clb", default=None,
                        help="clb binary for exact-constant curves "
                             "(falls back to the asymptotic closed form)")
    args = parser.parse_args()

    points = load_points(args.bench)
    curve1, curve2 = theorem_curves(args.n, args.clb)

    xs = [r for _, r, _, _ in points]
    for curve in (curve1, curve2):
        xs.extend(r for r, _ in curve)
    x_min = 10 ** math.floor(math.log10(max(1e-3, min(xs) * 0.8)))
    x_max = 10 ** math.ceil(math.log10(max(xs) * 1.2))

    exp = int(round(math.log2(args.n)))
    n_label = f"2^{exp}" if (1 << exp) == args.n else str(args.n)
    plot = SvgPlot(x_min, x_max,
                   "MaxIS approximation vs CONGEST rounds "
                   f"(zoo measured; Theorems 1/2 at n = {n_label})")
    plot.axes()

    extra = list(_EXTRA_COLORS)
    styles = {}
    for variant, rounds, ratio, _ in points:
        if variant not in styles:
            styles[variant] = _VARIANT_STYLE.get(
                variant, (extra.pop(0) if extra else "#000000", variant))
        plot.scatter(rounds, ratio, styles[variant][0])

    mode = "exact constants" if args.clb else "asymptotic shape"
    if curve1:
        plot.polyline(curve1, "#d62728")
    if curve2:
        plot.polyline(curve2, "#7f0e0e")

    idx = 0
    for variant in sorted(styles):
        plot.legend_entry(idx, styles[variant][0], styles[variant][1])
        idx += 1
    if curve1:
        plot.legend_entry(idx, "#d62728",
                          f"Thm 1: (1/2+eps) needs >= R rounds ({mode})",
                          line=True)
        idx += 1
    if curve2:
        plot.legend_entry(idx, "#7f0e0e",
                          f"Thm 2: (3/4+eps) needs >= R rounds ({mode})",
                          line=True)

    with open(args.out, "w") as f:
        f.write(plot.render())
    print(f"wrote {args.out}: {len(points)} measured points, "
          f"{len(curve1)}+{len(curve2)} theorem curve points ({mode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
