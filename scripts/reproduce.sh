#!/usr/bin/env bash
# Full reproduction: configure, build, run the test suite, every experiment
# bench, and the paper campaign, capturing outputs at the repository root
# (test_output.txt, bench_output.txt, campaign_output.txt) — the artifacts
# EXPERIMENTS.md is written from.
set -euo pipefail
cd "$(dirname "$0")/.."

CAMPAIGN_MANIFEST=campaign.json
CAMPAIGN_CACHE=.clb-cache

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    echo "===== $(basename "$b") =====" | tee -a bench_output.txt
    "$b" 2>&1 | tee -a bench_output.txt
  fi
done

# The paper campaign, resumable: an interrupted reproduction needs no
# cleanup. The cache slots are checksummed, the manifest is written by
# tmp + rename, and `resume` keeps the work a previous run finished.
build/tools/clb campaign resume paper --threads "$(nproc)" \
  --cache-dir "$CAMPAIGN_CACHE" --manifest "$CAMPAIGN_MANIFEST" \
  2>&1 | tee campaign_output.txt
build/tools/clb campaign status --manifest "$CAMPAIGN_MANIFEST" \
  2>&1 | tee -a campaign_output.txt

echo "done: test_output.txt, bench_output.txt, campaign_output.txt"
