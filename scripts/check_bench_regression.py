#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against the checked-in baseline.

Usage:
    scripts/check_bench_regression.py <measured.json> <baseline.json> [--factor F]

Three input schemas are understood: clb-bench-v1 (an "entries" array,
timing in ns_per_round / ns_per_solve), clb-scale-v1 (the BENCH_scale.json scaling-curve format: "entries" keyed
by (name, variant, n), timing in ns_per_round plus a peak_rss_bytes
memory gate held to the same factor — a leaked O(implicit edges)
allocation fails on memory long before it fails on time), and
google-benchmark's own JSON (a "benchmarks" array, timing in
real_time + time_unit — the BENCH_micro.json format). Entries are matched
by (name, variant, threads) — or (name, variant, n) for the scale
schema — where variant distinguishes rows measured under different kernel
implementations (the SIMD dispatch levels: "scalar", "avx2", "avx512") —
each variant is compared against its own baseline independently, so a vector-kernel speedup can never mask
a scalar-fallback regression or vice versa. The
check fails (exit 1) when any matched entry's metric exceeds
factor * baseline (default 2x), or when a steady-state flood workload
reports nonzero allocations per round. Individual entries present on only
one side are reported but do not fail the check, so adding or renaming
workloads does not require a lockstep baseline update — but when *every*
baseline row is missing from the measured run, the comparison is vacuous
(wrong file, renamed family, empty run) and the check fails rather than
passing on zero comparisons. A file that matches *neither* schema — no
"benchmarks" and no "entries" array, or a clb document declaring an
unknown "schema" marker — is a hard error (exit 2), never a silent pass:
a renamed baseline key must break CI, not disable it.

The baseline in bench/baselines/ is deliberately generous: it exists to
catch order-of-magnitude engine regressions on shared CI runners, not to
police noise. Refresh it from a Release run when the engine genuinely gets
faster (see docs/PERFORMANCE.md).
"""

import argparse
import json
import sys


# google-benchmark time_unit values, normalized to nanoseconds.
_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# The clb schema markers this checker understands; documents that declare
# a different one are from a future (or foreign) writer and must not be
# silently compared. The scale schema (BENCH_scale.json) keys by problem
# size n instead of worker threads and additionally carries a
# peak_rss_bytes gate; everything else is shared.
_CLB_SCHEMA = "clb-bench-v1"
_SCALE_SCHEMA = "clb-scale-v1"
_CLB_SCHEMAS = (_CLB_SCHEMA, _SCALE_SCHEMA)

# Key dimension per schema: which entry field joins a measured row to its
# baseline row alongside (name, variant).
_SCHEMA_DIM = {
    _CLB_SCHEMA: "threads",
    _SCALE_SCHEMA: "n",
}


class SchemaError(Exception):
    """The input file is not a bench JSON this checker understands."""


def load_entries(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level is not a JSON object")
    entries = {}
    if "benchmarks" in doc:
        # google-benchmark's own JSON (BENCH_micro.json): one row per
        # benchmark run; skip aggregate rows (mean/median/stddev) so only
        # raw iterations are compared. The time metric is real_time in
        # time_unit; normalize to ns under the clb metric name so the
        # comparison below is schema-agnostic.
        for e in doc.get("benchmarks", []):
            if e.get("run_type", "iteration") != "iteration":
                continue
            ns = e.get("real_time")
            if ns is not None:
                ns *= _TIME_UNIT_NS.get(e.get("time_unit", "ns"), 1.0)
            entries[(e.get("name", "?"), "", 1)] = {
                "name": e.get("name", "?"),
                "ns_per_round": ns,
            }
        return entries
    if "entries" not in doc:
        # A document with neither array is from an unknown schema (renamed
        # keys, truncated write, wrong file). Silently returning zero
        # entries here used to make the whole comparison vacuous — and the
        # vacuous-pass guard below never fires when the *baseline* is the
        # empty side. Fail loudly instead.
        raise SchemaError(
            f"{path}: unrecognized bench schema — expected a 'benchmarks' "
            f"(google-benchmark) or 'entries' ({_CLB_SCHEMA}) array; "
            f"found top-level keys {sorted(doc)}")
    declared = doc.get("schema", _CLB_SCHEMA)
    if declared not in _CLB_SCHEMAS:
        raise SchemaError(
            f"{path}: declares schema {declared!r}; this checker only "
            f"understands {_CLB_SCHEMAS!r}")
    if not isinstance(doc["entries"], list):
        raise SchemaError(f"{path}: 'entries' is not an array")
    # The scale schema scales by problem size n, not worker threads — the
    # third key component follows the schema so a small-n row never
    # silently compares against a million-node baseline.
    dim = _SCHEMA_DIM[declared]
    for e in doc["entries"]:
        if not isinstance(e, dict):
            raise SchemaError(f"{path}: entry {e!r} is not an object")
        # Entries are keyed by (name, variant, threads|n); rows
        # from newer bench families (e.g. BENCH_campaign.json) may omit
        # the third component or carry no ns_per_round at all — key them
        # anyway so they show up as "new", never as a crash. The declared
        # dim is stashed on the entry (underscore key: never a bench
        # field) so reporting below names the right axis.
        e["_dim"] = dim
        entries[(e.get("name", "?"), e.get("variant", ""),
                 e.get(dim, 1))] = e
    return entries


def metric_ns(entry):
    """The entry's timing metric: ns_per_round or ns_per_solve."""
    for field in ("ns_per_round", "ns_per_solve"):
        if field in entry and entry[field] is not None:
            return entry[field]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("measured")
    parser.add_argument("baseline")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="fail when measured ns/round > factor * baseline")
    args = parser.parse_args()

    try:
        measured = load_entries(args.measured)
        baseline = load_entries(args.baseline)
    except SchemaError as err:
        print(f"Benchmark regression check FAILED: {err}", file=sys.stderr)
        return 2

    failures = []
    compared = 0
    comparable = 0
    for key, base in sorted(baseline.items()):
        base_ns = metric_ns(base)
        if base_ns is None:
            continue
        comparable += 1
        got = measured.get(key)
        if got is None:
            print(f"note: baseline entry {key} missing from measured run")
            continue
        got_ns = metric_ns(got)
        if got_ns is None:
            print(f"note: entry {key} carries no timing metric; skipping")
            continue
        compared += 1
        ratio = got_ns / base_ns
        status = "ok"
        if got_ns > args.factor * base_ns:
            status = "REGRESSION"
            failures.append(
                f"{key}: {got_ns:.0f} ns vs baseline "
                f"{base_ns:.0f} ({ratio:.2f}x > {args.factor}x)")
        # Memory gate (scale schema): peak resident set is held to the
        # same factor as timing. A leaked O(implicit edges) allocation
        # shows up here long before it shows up as time.
        base_rss = base.get("peak_rss_bytes")
        got_rss = got.get("peak_rss_bytes")
        if base_rss and got_rss and got_rss > args.factor * base_rss:
            status = "REGRESSION"
            failures.append(
                f"{key}: peak RSS {got_rss} B vs baseline {base_rss} "
                f"({got_rss / base_rss:.2f}x > {args.factor}x)")
        variant = f" [{key[1]}]" if key[1] else ""
        dim = base.get("_dim", "threads")
        print(f"{key[0]}{variant} ({dim}={key[2]}): {got_ns:.0f} ns, "
              f"{ratio:.2f}x baseline -> {status}")
    if comparable > 0 and compared == 0:
        failures.append(
            f"no baseline entry matched the measured run "
            f"(0 of {comparable} compared) -- wrong file or renamed family?")

    for key, got in sorted(measured.items()):
        if key not in baseline:
            print(f"note: new entry {key} has no baseline yet")
        if key[0].startswith("flood/") and got.get("allocs_per_round", 0) > 0:
            failures.append(
                f"{key}: steady-state flood allocated "
                f"{got['allocs_per_round']} times/round (must be 0)")
        # Fault-domain gate (campaign entries): a bench runs with no chaos
        # injected, so any retry, quarantined, or blocked job means real
        # work failed — never acceptable in a green run, whatever the
        # timings look like.
        for fault in ("retries", "jobs_quarantined", "jobs_blocked"):
            if got.get(fault, 0) > 0:
                failures.append(
                    f"{key}: {fault} = {got[fault]} in a chaos-free bench "
                    f"run (must be 0)")

    if failures:
        print("\nBenchmark regression check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nBenchmark regression check passed ({compared} entries compared).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
