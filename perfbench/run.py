#!/usr/bin/env python3
"""Paper-pipeline benchmark: builds perfbench_runner from source and runs one
workload of it.

    python3 perfbench/run.py --workload t5_linear --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The runner is compiled into .bench_build/
(CMake, Release) on the first call and reused afterwards. Each call runs
one workload in a fresh single-threaded process, times every point on the
process CPU clock, checks every point's outputs, and prints as its last
stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(with a per-layer table above the JSON). A line before the result carries
diagnostics that never feed a metric: the run's work fingerprint (exact
counts, identical for equal seeds), wall/CPU ratio and the CPU time of a
fixed calibration loop, which show whether the machine was busy.

--smoke runs every workload at tiny sizes, traced and untraced, and checks
that every metric named in BENCHMARK.json is printed with its unit and that
every point passed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUNNER = BUILD / "perfbench_runner"
RUNNER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

WORKLOADS = ("t5_linear", "claims_quadratic", "scale_implicit")

END_TO_END = {
    "point_cpu_ms_p50": "ms",
    "point_cpu_ms_tail": "ms",
    "points_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_share": "share",
}

PER_LAYER = {
    "lowerbound.build_ms": "ms",
    "lowerbound.instantiate_ms": "ms",
    "congest.network_ms": "ms",
    "congest.run_ms": "ms",
    "comm.blackboard_ms": "ms",
    "maxis.solve_ms": "ms",
    "claims.check_ms": "ms",
    "sim.reduction_ms": "ms",
    "harness.point_ms": "ms",
    "harness.span_coverage": "share",
    "harness.trace_overhead": "ms",
    "harness.wall_over_cpu": "ratio",
    "harness.calibration_ms": "ms",
    "congest.rounds": "count",
    "congest.messages": "count",
    "congest.bits": "bit",
    "congest.ns_per_message": "ns",
    "comm.posts": "count",
    "comm.bits": "bit",
    "comm.cut_share": "share",
    "maxis.solves": "count",
    "maxis.search_nodes": "count",
    "maxis.kernel_nodes": "count",
    "maxis.jobs": "count",
    "graph.nodes": "count",
    "graph.explicit_edges": "count",
    "graph.implicit_edges": "count",
}


def build():
    """Configure and build the runner; exits non-zero if either fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench_runner", "-j", jobs],
    )
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def run_runner(workload, seed, seconds, trace, smoke=False):
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUNNER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: runner failed on {workload} (exit {proc.returncode})")
    return json.loads(lines[-1])


def tail_percentile(n):
    """The highest percentile with at least ten samples beyond it."""
    for q in (99.9, 99, 95, 90, 80, 75):
        if n * (1 - q / 100) >= 10:
            return q
    return 50


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(raw):
    cpu = raw["point_cpu_ms"]
    tail_q = tail_percentile(len(cpu))
    values = {
        "point_cpu_ms_p50": statistics.median(cpu),
        "point_cpu_ms_tail": percentile(cpu, tail_q),
        "points_per_cpu_s": len(cpu) / (sum(cpu) / 1000),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(raw["setup_s"]),
        "pass_share": (raw["attempted"] - raw["failed"]) / raw["attempted"],
    }
    notes = {"points": len(cpu), "tail_percentile": tail_q,
             "tail_samples_beyond": len(cpu) - math.ceil(tail_q / 100 * len(cpu))}
    return values, notes


def diagnostics(raw, notes):
    wall, cpu = sum(raw["point_wall_ms"]), sum(raw["point_cpu_ms"])
    return {"diagnostics": dict(
        workload=raw["workload"], seed=raw["seed"], trace=raw["trace"],
        wall_over_cpu=wall / cpu, calibration_ms=raw["calibration_ms"],
        fingerprint=raw["fingerprint"], **notes)}


def layer_table(raw):
    """Self CPU time per traced point by layer; the rows sum to the point."""
    rows = raw["point_self_ms"]
    point = raw["layers"]["harness.point_ms"]
    out = [f"per-layer self CPU time per traced point: {raw['workload']} "
           f"(seed {raw['seed']}, {raw['fingerprint']['points']} points)"]
    for name, ms in rows.items():
        out.append(f"  {name:<28}{ms:>12.3f} ms {100 * ms / point:6.1f}%")
    out.append(f"  {'sum':<28}{sum(rows.values()):>12.3f} ms")
    out.append(f"  {'traced point':<28}{point:>12.3f} ms")
    out.append(f"  {'trace overhead':<28}{raw['layers']['harness.trace_overhead']:>12.3f} ms"
               " (traced minus untraced median point)")
    return out


def result(raw):
    """The benchmark's result object for one runner output."""
    values, notes = end_to_end(raw)
    if raw["trace"]:
        values, units = raw["layers"], PER_LAYER
    else:
        units = END_TO_END
    return notes, {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def smoke():
    """Tiny sizes; checks every declared metric, its unit, and pass_share."""
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.exists() else {}
    declared = {0: {m["name"]: m["unit"] for m in spec.get("end_to_end", [])},
                1: {m["name"]: m["unit"] for m in spec.get("per_layer", [])}}
    problems = []
    if {w["name"] for w in spec.get("workloads", [])} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the runner's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            raw = run_runner(workload, 1, 1, trace, smoke=True)
            _, res = result(raw)
            if declared[trace] != {n: m["unit"] for n, m in res["metrics"].items()}:
                problems.append(f"{workload} trace {trace}: metrics or units "
                                "differ from BENCHMARK.json")
            if not res["correct"] or raw["failed"] != 0:
                problems.append(f"{workload} trace {trace}: {raw['failed']} points failed")
            if trace == 0 and res["metrics"]["pass_share"]["value"] != 1.0:
                problems.append(f"{workload}: pass_share != 1")
            print(f"smoke {workload} trace {trace}: {len(res['metrics'])} metrics, "
                  f"{raw['attempted']} points, {raw['failed']} failed")
    for p in problems:
        print("FAIL", p)
    print(json.dumps({"smoke_ok": not problems}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.smoke:
        return smoke()
    raw = run_runner(args.workload, args.seed, args.seconds, args.trace)
    notes, res = result(raw)
    if args.trace:
        print("\n".join(layer_table(raw)))
    print(json.dumps(diagnostics(raw, notes)))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
