// Resume semantics: a killed campaign completed by a resume run must
// produce a canonical manifest byte-equal to an uninterrupted run, recorded
// results must replay without re-solving, and a seed change must invalidate
// every recorded verdict. Torn state needs no repair step: a torn cache
// slot is a miss that the rerun rewrites, and a torn manifest either fails
// to parse or resumes to the reference.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "support/expect.hpp"

namespace clb = congestlb;
namespace cmp = clb::campaign;
namespace fs = std::filesystem;

namespace {

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) / ("clb_resume_test_" + tag)) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// One claim point: 4 jobs (build, solve-yes, solve-no, check), so the
/// manifest is small enough to truncate at every single byte while still
/// covering the gadget/opt/verdict cache kinds.
cmp::CampaignSpec tiny_claim_spec() {
  cmp::CampaignSpec spec;
  spec.name = "tiny";
  spec.seed = 2020;
  cmp::SweepSpec sweep;
  sweep.name = "C12";
  sweep.check = cmp::CheckKind::kClaim12;
  sweep.points = {{2, 1, 2, std::size_t{3}}};
  sweep.trials = 1;
  spec.sweeps = {sweep};
  return spec;
}

std::string canonical_manifest(const cmp::CampaignResult& result) {
  std::ostringstream os;
  cmp::ManifestWriteOptions opts;
  opts.include_volatile = false;
  cmp::write_manifest(os, result, opts);
  return os.str();
}

/// Round-trip a result through the full (volatile-bearing) manifest form,
/// exactly what `clb campaign resume` reads off disk.
std::map<std::string, cmp::JobRecord> persist_and_reload(
    const cmp::CampaignResult& result) {
  std::ostringstream os;
  cmp::write_manifest(os, result, {});
  return cmp::read_manifest(os.str()).records;
}

}  // namespace

TEST(CampaignResume, KilledRunResumesToByteIdenticalManifest) {
  const auto spec = cmp::builtin_smoke_campaign();
  const auto uninterrupted = cmp::run_campaign(spec, {});
  ASSERT_TRUE(uninterrupted.complete);
  const std::string reference = canonical_manifest(uninterrupted);

  for (const std::size_t kill_after : {1u, 5u, 12u}) {
    // Simulate a kill: the scheduler abandons everything past the budget,
    // and only finished jobs land in the manifest.
    cmp::RunOptions partial_opts;
    partial_opts.max_jobs = kill_after;
    const auto partial = cmp::run_campaign(spec, partial_opts);
    EXPECT_FALSE(partial.complete) << "kill_after=" << kill_after;
    EXPECT_EQ(partial.records.size(), kill_after);
    const auto prior = persist_and_reload(partial);

    cmp::RunOptions resume_opts;
    resume_opts.threads = 2;
    const auto resumed = cmp::run_campaign(spec, resume_opts, &prior);
    EXPECT_TRUE(resumed.complete) << "kill_after=" << kill_after;
    EXPECT_TRUE(resumed.all_hold) << "kill_after=" << kill_after;
    EXPECT_EQ(canonical_manifest(resumed), reference)
        << "kill_after=" << kill_after;
  }
}

TEST(CampaignResume, CompleteManifestResumesWithoutExecutingAnything) {
  const auto spec = cmp::builtin_smoke_campaign();
  const auto full = cmp::run_campaign(spec, {});
  const auto prior = persist_and_reload(full);

  const auto resumed = cmp::run_campaign(spec, {}, &prior);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.jobs_run, 0u);
  EXPECT_EQ(resumed.jobs_resumed, resumed.jobs_total);
  EXPECT_EQ(canonical_manifest(resumed), canonical_manifest(full));
  for (const auto& rec : resumed.records) {
    EXPECT_TRUE(rec.resumed) << rec.id;
  }
}

TEST(CampaignResume, DroppedCheckRecordsReplaySolvesWithoutResolving) {
  const auto spec = cmp::builtin_smoke_campaign();
  const auto full = cmp::run_campaign(spec, {});
  const std::string reference = canonical_manifest(full);

  auto prior = persist_and_reload(full);
  std::size_t dropped = 0;
  for (auto it = prior.begin(); it != prior.end();) {
    if (it->second.stage == "check") {
      it = prior.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  ASSERT_GT(dropped, 0u);

  const auto resumed = cmp::run_campaign(spec, {}, &prior);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(canonical_manifest(resumed), reference);
  // Claim checks recompute from the recorded OPT values: the solve jobs
  // replay from the manifest instead of re-running branch and bound.
  for (const auto& rec : resumed.records) {
    if (rec.stage == "solve-yes" || rec.stage == "solve-no") {
      EXPECT_TRUE(rec.resumed) << rec.id;
    }
    if (rec.stage == "check") {
      EXPECT_FALSE(rec.resumed) << rec.id;
    }
  }
}

TEST(CampaignResume, SeedChangeInvalidatesEveryRecordedResult) {
  const auto spec = cmp::builtin_smoke_campaign();
  const auto full = cmp::run_campaign(spec, {});
  const auto prior = persist_and_reload(full);

  auto reseeded = spec;
  reseeded.seed += 1;
  const auto fresh = cmp::run_campaign(reseeded, {});
  const auto resumed = cmp::run_campaign(reseeded, {}, &prior);

  // The stale records are ignored: nothing resumes, and the outcome equals
  // a fresh run at the new seed.
  EXPECT_EQ(resumed.jobs_resumed, 0u);
  EXPECT_EQ(resumed.jobs_run, resumed.jobs_total);
  EXPECT_EQ(canonical_manifest(resumed), canonical_manifest(fresh));
  EXPECT_NE(resumed.spec_hash, full.spec_hash);
}

TEST(CampaignResume, TamperedInputsHashForcesRerun) {
  const auto spec = cmp::builtin_smoke_campaign();
  const auto full = cmp::run_campaign(spec, {});
  auto prior = persist_and_reload(full);
  for (auto& [id, rec] : prior) rec.inputs_hash ^= 0x1;

  const auto resumed = cmp::run_campaign(spec, {}, &prior);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.jobs_resumed, 0u);
  EXPECT_EQ(canonical_manifest(resumed), canonical_manifest(full));
}

TEST(CampaignResume, CampaignRecoversFromSlotTornAtAnyBoundary) {
  ScratchDir scratch("torn_slot");
  const std::string cache_dir = (scratch.path / "cache").string();
  const auto spec = tiny_claim_spec();

  cmp::RunOptions opts;
  opts.cache_dir = cache_dir;
  const auto cold = cmp::run_campaign(spec, opts);
  ASSERT_TRUE(cold.all_hold);
  const std::string reference = canonical_manifest(cold);

  // Every slot the campaign wrote, torn at a handful of byte boundaries
  // (start, header, body, last byte): the rerun loads it as a miss,
  // rebuilds the artifact, overwrites the slot, and converges.
  std::vector<fs::path> slots;
  for (const auto& entry : fs::recursive_directory_iterator(cache_dir)) {
    if (entry.is_regular_file()) slots.push_back(entry.path());
  }
  ASSERT_GT(slots.size(), 2u) << "expected gadget/opt/verdict slots";
  for (const fs::path& slot : slots) {
    const std::string full = slurp(slot);
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{12}, full.size() / 2,
          full.size() - 1}) {
      {
        std::ofstream out(slot, std::ios::binary | std::ios::trunc);
        out << full.substr(0, std::min(len, full.size() - 1));
      }
      const auto rerun = cmp::run_campaign(spec, opts);
      EXPECT_EQ(canonical_manifest(rerun), reference) << slot << " @" << len;
      EXPECT_EQ(rerun.cache.invalid, 1u) << slot << " @" << len;
      EXPECT_EQ(slurp(slot), full) << "rerun must rewrite " << slot;
    }
  }
}

TEST(CampaignResume, ManifestTornAtEveryByteParsesOrThrows) {
  // The manifest is written by tmp + rename, so a kill never tears it; a
  // torn one can only come from outside. Truncated at *every* byte, it
  // either fails to parse with InvariantError (resume then starts over)
  // or parses into records that resume to the reference.
  ScratchDir scratch("torn_manifest");
  const auto spec = tiny_claim_spec();
  cmp::RunOptions opts;
  opts.cache_dir = (scratch.path / "cache").string();
  const auto cold = cmp::run_campaign(spec, opts);
  ASSERT_TRUE(cold.all_hold);
  const std::string reference = canonical_manifest(cold);
  std::ostringstream full_os;
  cmp::write_manifest(full_os, cold);  // the full form clb writes to disk
  const std::string full = full_os.str();

  std::size_t parsed = 0;
  for (std::size_t len = 0; len <= full.size(); ++len) {
    std::map<std::string, cmp::JobRecord> prior;
    bool have_prior = false;
    try {
      prior = cmp::read_manifest(full.substr(0, len)).records;
      have_prior = true;
      ++parsed;
    } catch (const clb::InvariantError&) {
    }
    const auto resumed =
        cmp::run_campaign(spec, opts, have_prior ? &prior : nullptr);
    ASSERT_EQ(canonical_manifest(resumed), reference)
        << "truncation at byte " << len << "/" << full.size();
  }
  // Only the whole document (with or without its final newline) parses.
  EXPECT_EQ(parsed, 2u);
}

namespace {

/// A full manifest as written before retries were removed: a poisoned
/// solve-no quarantined after 3 attempts, with the per-job `attempts` and
/// `backoff_us` keys and the volatile `retries` total.
constexpr const char* kLegacyFullManifest = R"json({
  "clb_campaign_manifest": 1,
  "campaign": "tiny",
  "spec_hash": "6052d84d730351e7",
  "jobs_total": 4,
  "complete": true,
  "summary": {
    "jobs_recorded": 4,
    "checks": 1,
    "checks_holding": 0,
    "quarantined": 1,
    "blocked": 1,
    "all_hold": false
  },
  "jobs": [
    {
      "id": "C12/ell=2,alpha=1,t=2,k=3/check",
      "inputs_hash": "e85b718a74a7ad70",
      "stage": "check",
      "verdict": "blocked",
      "data": {
        "checked": 0,
        "min_matching": 0,
        "max_shared": 0,
        "yes_opt": -1,
        "no_opt": -1,
        "bound_yes": 0,
        "bound_no": 0
      },
      "wall_ms": 0.000306,
      "cache_hit": false,
      "resumed": false,
      "attempts": 1,
      "backoff_us": 0,
      "diagnostic": "dependency quarantined or blocked"
    },
    {
      "id": "C12/ell=2,alpha=1,t=2,k=3/solve-no",
      "inputs_hash": "63c70beeb850d7bd",
      "stage": "solve-no",
      "verdict": "quarantined",
      "data": {
        "opt": -1
      },
      "wall_ms": 1.412733,
      "cache_hit": false,
      "resumed": false,
      "attempts": 3,
      "backoff_us": 1244,
      "diagnostic": "chaos: injected failure (attempt 2)"
    },
    {
      "id": "C12/ell=2,alpha=1,t=2,k=3/solve-yes",
      "inputs_hash": "5b98556886cda467",
      "stage": "solve-yes",
      "verdict": "opt",
      "data": {
        "opt": 10
      },
      "wall_ms": 0.046512,
      "cache_hit": false,
      "resumed": false,
      "attempts": 1,
      "backoff_us": 0
    },
    {
      "id": "gadget/ell=2,alpha=1,t=2,k=3",
      "inputs_hash": "f084e7bd627e07ee",
      "stage": "build",
      "verdict": "built",
      "data": {
        "nodes": 24,
        "edges": 78,
        "cut": 18
      },
      "wall_ms": 0.040222,
      "cache_hit": false,
      "resumed": false,
      "attempts": 1,
      "backoff_us": 0
    }
  ],
  "volatile": {
    "threads": 1,
    "jobs_run": 4,
    "jobs_resumed": 0,
    "retries": 2,
    "wall_ms": 1.583181,
    "cache": {
      "mem_hits": 0,
      "disk_hits": 0,
      "misses": 2,
      "writes": 2,
      "invalid": 0
    },
    "metrics": {
      "counters": {
        "campaign.jobs.executed": 2,
        "campaign.jobs.replayed": 0,
        "campaign.checks.holds": 0,
        "campaign.checks.violated": 0,
        "campaign.jobs.retried": 2,
        "campaign.jobs.quarantined": 1,
        "campaign.jobs.blocked": 1
      },
      "gauges": {},
      "histograms": {
        "campaign.job_wall_us": {
          "upper_bounds": [
            100,
            1000,
            10000,
            100000,
            1000000
          ],
          "counts": [
            3,
            0,
            1,
            0,
            0,
            0
          ],
          "count": 4,
          "sum": 1498
        }
      }
    }
  }
}
)json";

}  // namespace

TEST(CampaignResume, LegacyManifestWithRetryKeysResumesToReference) {
  const auto spec = tiny_claim_spec();
  const auto legacy = cmp::read_manifest(kLegacyFullManifest);
  ASSERT_EQ(legacy.spec_hash, spec.content_hash());
  ASSERT_EQ(legacy.jobs_quarantined, 1u);
  ASSERT_EQ(legacy.jobs_blocked, 1u);

  const auto reference = cmp::run_campaign(spec, {});
  ASSERT_TRUE(reference.all_hold);
  const auto resumed = cmp::run_campaign(spec, {}, &legacy.records);
  EXPECT_TRUE(resumed.all_hold);
  EXPECT_EQ(resumed.jobs_resumed, 1u) << "the recorded solve-yes replays";
  EXPECT_EQ(canonical_manifest(resumed), canonical_manifest(reference));
}
