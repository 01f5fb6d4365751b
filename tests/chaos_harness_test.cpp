// Process-level chaos harness: drives the real `clb` binary (path baked in
// via CLB_TOOL_PATH by tools/CMakeLists.txt) as a subprocess, kills it
// mid-campaign through the CLB_CHAOS_KILL_AFTER_JOBS environment contract
// (_Exit(137) skips destructors, so in-flight cache writes tear exactly
// like a real SIGKILL), and pins the recovery invariant end to end, with
// no repair step:
//
//   kill at job N  ->  `campaign resume` exits 0
//                  ->  the canonical manifest is byte-identical to an
//                      undisturbed run's, and every file left in the cache
//                      tree is a slot, `<kind>/<hex16>.clbc`.
//
// scripts/chaos_campaign.py runs the same loop at randomized kill points
// (200 locally, 25 in CI); this test keeps a deterministic ladder of kill
// points so a regression bisects.

#include <gtest/gtest.h>

#if !defined(_WIN32)

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

#ifndef CLB_TOOL_PATH
#define CLB_TOOL_PATH "clb"  // fallback: resolve via PATH
#endif

namespace {

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) / ("clb_chaos_test_" + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

/// Run a shell command, return its exit status (-1 on abnormal death).
int run_cmd(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

std::string quoted(const fs::path& p) {
  std::string q = "'";
  q += p.string();
  q += '\'';
  return q;
}

/// `clb campaign <action> smoke ...` against one scratch state. `env`
/// prefixes the command (e.g. "CLB_CHAOS_KILL_AFTER_JOBS=3"), scoping any
/// chaos to that single invocation.
int run_campaign(const std::string& env, const std::string& action,
                 const fs::path& cache_dir, const fs::path& manifest,
                 const std::string& extra = "--threads 2 --canonical") {
  std::ostringstream cmd;
  cmd << env << (env.empty() ? "" : " ") << "'" << CLB_TOOL_PATH << "'"
      << " campaign " << action << " smoke --cache-dir " << quoted(cache_dir)
      << " --manifest " << quoted(manifest) << " " << extra
      << " >/dev/null 2>&1";
  return run_cmd(cmd.str());
}

/// Regular files under `cache_dir` that are not `<kind>/<hex16>.clbc`: a
/// resume must leave none, whatever tmp the kill stranded.
std::vector<std::string> stray_cache_files(const fs::path& cache_dir) {
  static const std::regex slot("[a-z0-9_-]+/[0-9a-f]{16}\\.clbc");
  std::vector<std::string> stray;
  for (const auto& entry : fs::recursive_directory_iterator(cache_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel =
        entry.path().lexically_relative(cache_dir).generic_string();
    if (!std::regex_match(rel, slot)) stray.push_back(rel);
  }
  return stray;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

TEST(ChaosHarness, KilledCampaignsResumeToByteIdenticalManifest) {
  ScratchDir scratch("kill_ladder");

  // The undisturbed reference: one clean run's canonical manifest.
  const fs::path ref_manifest = scratch.path / "ref.json";
  ASSERT_EQ(run_campaign("", "run", scratch.path / "cache-ref", ref_manifest),
            0)
      << "clean smoke campaign failed — chaos results would be meaningless";
  const std::string reference = slurp(ref_manifest);
  ASSERT_FALSE(reference.empty());

  // Kill ladder: early, mid, and late kill points (the smoke campaign has
  // a few dozen jobs). A kill point past the end simply completes — that
  // terminates the ladder having proven the interesting prefix.
  for (const int kill_after : {1, 2, 3, 5, 8, 13, 21, 34, 55}) {
    std::string tag = "k";
    tag += std::to_string(kill_after);
    const fs::path cache_dir = scratch.path / ("cache-" + tag);
    const fs::path manifest = scratch.path / (tag + ".json");

    const int killed = run_campaign(
        "CLB_CHAOS_KILL_AFTER_JOBS=" + std::to_string(kill_after), "run",
        cache_dir, manifest);
    if (killed == 0) {
      // The whole campaign fit under the kill budget; nothing torn.
      EXPECT_EQ(slurp(manifest), reference) << tag;
      break;
    }
    ASSERT_EQ(killed, 137) << tag << ": _Exit(137) contract broken";

    // Resume must complete from whatever survived, converging to the
    // byte-identical canonical manifest with only slots left behind.
    ASSERT_EQ(run_campaign("", "resume", cache_dir, manifest), 0) << tag;
    EXPECT_EQ(slurp(manifest), reference) << tag;
    EXPECT_EQ(stray_cache_files(cache_dir), std::vector<std::string>{})
        << tag;
  }
}

TEST(ChaosHarness, KillDuringResumeStillConverges) {
  // Crash-on-recovery: the first run is killed, the *resume* is killed
  // too, and only the third attempt runs to completion. Recovery must
  // compose — resume is idempotent, not single-shot.
  ScratchDir scratch("double_kill");
  const fs::path ref_manifest = scratch.path / "ref.json";
  ASSERT_EQ(run_campaign("", "run", scratch.path / "cache-ref", ref_manifest),
            0);
  const std::string reference = slurp(ref_manifest);

  const fs::path cache_dir = scratch.path / "cache";
  const fs::path manifest = scratch.path / "campaign.json";
  ASSERT_EQ(run_campaign("CLB_CHAOS_KILL_AFTER_JOBS=4", "run", cache_dir,
                         manifest),
            137);
  ASSERT_EQ(run_campaign("CLB_CHAOS_KILL_AFTER_JOBS=5", "resume", cache_dir,
                         manifest),
            137);
  ASSERT_EQ(run_campaign("", "resume", cache_dir, manifest), 0);
  EXPECT_EQ(slurp(manifest), reference);
  EXPECT_EQ(stray_cache_files(cache_dir), std::vector<std::string>{});
}

TEST(ChaosHarness, InjectedFailuresDegradeButResumeRecovers) {
  // Poison every solve-no job via the environment contract: the campaign
  // survives (quarantine, not crash), exits nonzero, `status` flags the
  // degradation, and a chaos-free resume converges to the clean manifest.
  ScratchDir scratch("poison");
  const fs::path ref_manifest = scratch.path / "ref.json";
  ASSERT_EQ(run_campaign("", "run", scratch.path / "cache-ref", ref_manifest),
            0);
  const std::string reference = slurp(ref_manifest);

  const fs::path cache_dir = scratch.path / "cache";
  const fs::path manifest = scratch.path / "campaign.json";
  ASSERT_EQ(run_campaign("CLB_CHAOS_POISON=/solve-no", "run", cache_dir,
                         manifest),
            1)
      << "a degraded campaign must exit nonzero";
  // The degraded manifest is canonical and visibly degraded.
  const std::string degraded = slurp(manifest);
  EXPECT_NE(degraded.find("\"quarantined\""), std::string::npos);
  {
    std::ostringstream cmd;
    cmd << "'" << CLB_TOOL_PATH << "' campaign status --manifest "
        << quoted(manifest) << " >/dev/null 2>&1";
    EXPECT_EQ(run_cmd(cmd.str()), 1)
        << "status must fail a CI gate on quarantined jobs";
  }
  ASSERT_EQ(run_campaign("", "resume", cache_dir, manifest), 0);
  EXPECT_EQ(slurp(manifest), reference);
  EXPECT_EQ(stray_cache_files(cache_dir), std::vector<std::string>{});
}

TEST(ChaosHarness, MalformedChaosEnvRefusesToRun) {
  // A chaos config typo must not silently run a non-chaotic campaign:
  // neither a malformed value nor a misspelled variable name.
  ScratchDir scratch("typo");
  for (const char* env :
       {"CLB_CHAOS_KILL_AFTER_JOBS=soon", "CLB_CHAOS_KILL_AFTER_JOB=3"}) {
    EXPECT_NE(run_campaign(env, "run", scratch.path / "cache",
                           scratch.path / "m.json"),
              0)
        << env;
  }
}

#else  // _WIN32

TEST(ChaosHarness, SkippedOnThisPlatform) { GTEST_SKIP(); }

#endif
