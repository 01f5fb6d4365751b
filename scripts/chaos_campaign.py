#!/usr/bin/env python3
"""Randomized process-level chaos harness for the campaign runtime.

Each trial kills a live `clb campaign run` at a random job boundary via the
CLB_CHAOS_KILL_AFTER_JOBS environment contract (campaign/campaign.hpp):
the process _Exit(137)s without running destructors, so in-flight cache
writes tear exactly like a real SIGKILL. The trial then asserts the
recovery invariant, with no repair step in between:

  1. `clb campaign resume` exits 0 and completes the campaign;
  2. the resumed canonical manifest is byte-identical to an undisturbed
     reference run's;
  3. every regular file left under the cache dir is a slot,
     `<kind>/<hex16>.clbc` — the resume renamed any tmp the kill stranded.

Usage:
    scripts/chaos_campaign.py --clb build/tools/clb [--runs 200]
        [--seed 2020] [--threads 2] [--campaign smoke]
        [--workdir DIR] [--report chaos_report.json] [--keep-failures]

The default 200 runs is the acceptance bar for local validation; CI's
chaos-smoke job runs 25 per sanitizer leg (see .github/workflows/ci.yml).
Deterministic per --seed: trial i draws its kill point from
random.Random(seed + i).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import random
import tempfile

KILLED_EXIT = 137  # the _Exit status the chaos contract promises
SLOT_RE = re.compile(r"[a-z0-9_-]+/[0-9a-f]{16}\.clbc")


def run(cmd, env_extra=None):
    """Run a command, returning its exit status (never raises)."""
    env = os.environ.copy()
    # Never leak chaos config from the caller's environment into a
    # sub-step that must run clean.
    for k in list(env):
        if k.startswith("CLB_CHAOS_"):
            del env[k]
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


def campaign_cmd(clb, action, campaign, cache_dir, manifest, threads):
    return [
        clb, "campaign", action, campaign,
        "--cache-dir", str(cache_dir), "--manifest", str(manifest),
        "--threads", str(threads), "--canonical",
    ]


def stray_cache_files(cache_dir):
    """Regular files under cache_dir that are not `<kind>/<hex16>.clbc`."""
    stray = []
    for root, _, files in os.walk(cache_dir):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), cache_dir)
            if not SLOT_RE.fullmatch(rel.replace(os.sep, "/")):
                stray.append(rel)
    return sorted(stray)


def one_trial(i, args, workdir, reference):
    """Run one kill/resume cycle; returns a failure dict or None."""
    rng = random.Random(args.seed + i)
    trial_dir = os.path.join(workdir, f"trial-{i:03d}")
    os.makedirs(trial_dir, exist_ok=True)
    cache_dir = os.path.join(trial_dir, "cache")
    manifest = os.path.join(trial_dir, "campaign.json")

    kill_after = rng.randint(1, args.max_kill)
    chaos = {"CLB_CHAOS_KILL_AFTER_JOBS": str(kill_after)}
    what = f"kill_after={kill_after}"

    def fail(step, detail):
        return {"trial": i, "step": step, "config": what, "detail": detail,
                "dir": trial_dir}

    rc = run(campaign_cmd(args.clb, "run", args.campaign, cache_dir,
                          manifest, args.threads), chaos)
    if rc == 0:
        # The whole campaign fit under the kill budget: nothing torn, but
        # the manifest must already be canonical-identical.
        with open(manifest, "rb") as f:
            if f.read() != reference:
                return fail("run", "uninterrupted run diverged from reference")
        shutil.rmtree(trial_dir)
        return None
    if rc != KILLED_EXIT:
        return fail("run", f"expected exit {KILLED_EXIT} or 0, got {rc}")

    rc = run(campaign_cmd(args.clb, "resume", args.campaign, cache_dir,
                          manifest, args.threads))
    if rc != 0:
        return fail("resume", f"exit {rc}")

    with open(manifest, "rb") as f:
        resumed = f.read()
    if resumed != reference:
        return fail("compare", "resumed canonical manifest is not "
                               "byte-identical to the reference")

    stray = stray_cache_files(cache_dir)
    if stray:
        return fail("cache tree", f"non-slot files after resume: {stray}")

    shutil.rmtree(trial_dir)
    return None


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--clb", default="build/tools/clb",
                        help="path to the clb binary")
    parser.add_argument("--runs", type=int, default=200,
                        help="number of randomized kill trials")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--threads", type=int, default=2,
                        help="workers per campaign (2+ keeps writes in "
                             "flight when the kill lands)")
    parser.add_argument("--campaign", default="smoke",
                        help="built-in campaign or spec file to attack")
    parser.add_argument("--max-kill", type=int, default=40,
                        help="kill points are drawn from [1, max-kill]; "
                             "points past the job count simply complete")
    parser.add_argument("--workdir", default=None,
                        help="scratch root (default: a temp directory)")
    parser.add_argument("--report", default=None,
                        help="write a JSON summary here")
    parser.add_argument("--keep-failures", action="store_true",
                        help="keep failing trial directories for post-mortem")
    args = parser.parse_args()

    if shutil.which(args.clb) is None and not os.access(args.clb, os.X_OK):
        print(f"error: clb binary not found at '{args.clb}'", file=sys.stderr)
        return 2

    workdir = args.workdir or tempfile.mkdtemp(prefix="clb-chaos-")
    os.makedirs(workdir, exist_ok=True)

    # The undisturbed reference every trial must converge to.
    ref_manifest = os.path.join(workdir, "ref.json")
    rc = run(campaign_cmd(args.clb, "run", args.campaign,
                          os.path.join(workdir, "cache-ref"), ref_manifest,
                          args.threads))
    if rc != 0:
        print(f"error: clean reference run failed (exit {rc}); "
              f"chaos results would be meaningless", file=sys.stderr)
        return 2
    with open(ref_manifest, "rb") as f:
        reference = f.read()

    failures = []
    for i in range(args.runs):
        failure = one_trial(i, args, workdir, reference)
        if failure:
            failures.append(failure)
            print(f"trial {i:3d}: FAIL at {failure['step']} "
                  f"({failure['config']}): {failure['detail']}")
            if not args.keep_failures:
                shutil.rmtree(failure["dir"], ignore_errors=True)
        elif (i + 1) % 25 == 0:
            print(f"trial {i + 1:3d}/{args.runs}: ok")

    summary = {
        "clb_chaos_report": 1,
        "campaign": args.campaign,
        "runs": args.runs,
        "seed": args.seed,
        "threads": args.threads,
        "failures": failures,
    }
    if args.report:
        with open(args.report, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")

    if failures:
        print(f"\nchaos harness FAILED: {len(failures)}/{args.runs} trials",
              file=sys.stderr)
        return 1
    print(f"\nchaos harness passed: {args.runs} randomized kill trials "
          f"all converged to the byte-identical canonical manifest")
    if not args.workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
