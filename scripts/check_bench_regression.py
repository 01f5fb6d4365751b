#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against the checked-in baseline.

Usage:
    scripts/check_bench_regression.py <measured.json> <baseline.json> [--factor F]

Every bench document has one row shape. The clb benches write it directly
(schema clb-bench-v2, support/json.hpp's write_bench_json):

    {"schema": "clb-bench-v2", "benchmark": ...,
     "entries": [{"name": ..., "dims": {...}, "metrics": {...}}, ...], ...}

bench_micro writes google-benchmark's own JSON (a "benchmarks" array);
the loader turns each iteration row into the same shape, with real_time
normalized to metrics.ns_per_iteration. A measured row is joined to its
baseline row by (name, dims): dims is the configuration the row was
measured under (threads, variant, the realized n of a scale row), so a
gain in one configuration can never mask a regression in another.

The rules are one table keyed by metric name (_RULES):
  - timing (ns_per_round, ns_per_solve, ns_per_iteration) and
    peak_rss_bytes fail when measured > factor * baseline (default 2x);
  - allocs_per_round must be 0 on flood/* rows (steady-state flood);
  - jobs_quarantined and jobs_blocked must be 0 (a bench runs with no
    chaos injected, so any of them means real work failed).

Rows present on only one side are reported but do not fail the check, so
adding or renaming workloads does not need a lockstep baseline update. But
when *no* baseline row matches a measured row, the comparison is vacuous
(wrong file, renamed family, emptied run) and the check fails (exit 1). A
file that is not a bench document this checker understands — neither a
"benchmarks" array nor a clb-bench-v2 "entries" array of {name, dims,
metrics} rows — is a hard error (exit 2), never a silent pass.

The baselines in bench/baselines/ are deliberately generous: they exist to
catch order-of-magnitude regressions on shared CI runners, not to police
noise. Refresh one from a Release run when the code genuinely gets faster
(see docs/PERFORMANCE.md).
"""

import argparse
import json
import sys


_SCHEMA = "clb-bench-v2"

# google-benchmark time_unit values, normalized to nanoseconds.
_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Metric name -> rule. ("factor",): measured must not exceed --factor x
# the baseline row's value. ("zero", prefix): measured must be 0 on every
# measured row whose name starts with prefix, baseline or not.
_RULES = {
    "ns_per_round": ("factor",),
    "ns_per_solve": ("factor",),
    "ns_per_iteration": ("factor",),
    "peak_rss_bytes": ("factor",),
    "allocs_per_round": ("zero", "flood/"),
    "jobs_quarantined": ("zero", ""),
    "jobs_blocked": ("zero", ""),
}


class SchemaError(Exception):
    """The input file is not a bench JSON this checker understands."""


def _gbench_row(e):
    ns = e.get("real_time")
    if ns is not None:
        ns *= _TIME_UNIT_NS.get(e.get("time_unit", "ns"), 1.0)
    return {"name": e.get("name", "?"), "dims": {},
            "metrics": {"ns_per_iteration": ns}}


def load_rows(path):
    """{(name, dims): row} for every row of the document at `path`."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level is not a JSON object")
    if isinstance(doc.get("benchmarks"), list):
        # google-benchmark (BENCH_micro.json): aggregate rows (mean,
        # median, stddev) are skipped so only raw iterations compare.
        rows = [_gbench_row(e) for e in doc["benchmarks"]
                if isinstance(e, dict)
                and e.get("run_type", "iteration") == "iteration"]
    elif "entries" in doc:
        if doc.get("schema") != _SCHEMA:
            raise SchemaError(
                f"{path}: declares schema {doc.get('schema')!r}; this "
                f"checker only understands {_SCHEMA!r}")
        rows = doc["entries"]
        if not isinstance(rows, list):
            raise SchemaError(f"{path}: 'entries' is not an array")
    else:
        raise SchemaError(
            f"{path}: unrecognized bench schema — expected a 'benchmarks' "
            f"(google-benchmark) or 'entries' ({_SCHEMA}) array; found "
            f"top-level keys {sorted(doc)}")
    keyed = {}
    for r in rows:
        if not (isinstance(r, dict) and isinstance(r.get("name"), str)
                and isinstance(r.get("dims"), dict)
                and isinstance(r.get("metrics"), dict)):
            raise SchemaError(
                f"{path}: entry {r!r} is not a {{name, dims, metrics}} row")
        keyed[(r["name"], tuple(sorted(r["dims"].items())))] = r
    return keyed


def describe(key):
    name, dims = key
    return name + "".join(f" {k}={v}" for k, v in dims)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("measured")
    parser.add_argument("baseline")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="fail when a timing or memory metric exceeds "
                             "factor * baseline")
    args = parser.parse_args()

    try:
        measured = load_rows(args.measured)
        baseline = load_rows(args.baseline)
    except SchemaError as err:
        print(f"Benchmark regression check FAILED: {err}", file=sys.stderr)
        return 2

    failures = []
    matched = 0
    for key, base in sorted(baseline.items()):
        got = measured.get(key)
        if got is None:
            print(f"note: baseline entry {describe(key)} missing from "
                  f"measured run")
            continue
        matched += 1
        for metric, base_v in sorted(base["metrics"].items()):
            got_v = got["metrics"].get(metric)
            if _RULES.get(metric) != ("factor",) or not base_v or got_v is None:
                continue
            ratio = got_v / base_v
            status = "ok"
            if got_v > args.factor * base_v:
                status = "REGRESSION"
                failures.append(
                    f"{describe(key)}: {metric} {got_v:.0f} vs baseline "
                    f"{base_v:.0f} ({ratio:.2f}x > {args.factor}x)")
            print(f"{describe(key)}: {metric} {got_v:.0f}, "
                  f"{ratio:.2f}x baseline -> {status}")
    if baseline and matched == 0:
        failures.append(
            f"no baseline entry matched the measured run "
            f"(0 of {len(baseline)} matched) -- wrong file or renamed family?")

    for key, got in sorted(measured.items()):
        if key not in baseline:
            print(f"note: new entry {describe(key)} has no baseline yet")
        for metric, value in sorted(got["metrics"].items()):
            rule = _RULES.get(metric)
            if rule and rule[0] == "zero" and key[0].startswith(rule[1]) \
                    and value:
                failures.append(
                    f"{describe(key)}: {metric} = {value} (must be 0)")

    if failures:
        print("\nBenchmark regression check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nBenchmark regression check passed ({matched} entries "
          f"compared).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
