// Content cache integrity: tier behavior, corrupt-slot rejection, and the
// central soundness property — a warm cache hit yields a bit-identical
// gadget graph and OPT value to a cold build, at any worker count.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/jobs.hpp"
#include "campaign/manifest.hpp"
#include "property_harness.hpp"
#include "support/expect.hpp"
#include "support/hash.hpp"

namespace clb = congestlb;
namespace cmp = clb::campaign;
namespace fs = std::filesystem;

namespace {

/// A unique scratch directory, removed on scope exit.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) / ("clb_cache_test_" + tag)) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

std::string canonical_manifest(const cmp::CampaignResult& result) {
  std::ostringstream os;
  cmp::ManifestWriteOptions opts;
  opts.include_volatile = false;
  cmp::write_manifest(os, result, opts);
  return os.str();
}

}  // namespace

TEST(ContentCache, MemoryTierHitsAfterStore) {
  cmp::ContentCache cache;  // in-memory only
  EXPECT_FALSE(cache.disk_backed());
  EXPECT_EQ(cache.load("gadget", 42), std::nullopt);
  cache.store("gadget", 42, "payload");
  const auto hit = cache.load("gadget", 42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload");
  // Same key, different kind: a distinct slot.
  EXPECT_EQ(cache.load("opt", 42), std::nullopt);
  const auto s = cache.stats();
  EXPECT_EQ(s.mem_hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.writes, 1u);
}

TEST(ContentCache, DiskTierSurvivesProcessBoundary) {
  ScratchDir scratch("disk");
  {
    cmp::ContentCache writer(scratch.path.string());
    writer.store("opt", 7, "opt=12");
  }
  cmp::ContentCache reader(scratch.path.string());
  const auto hit = reader.load("opt", 7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "opt=12");
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  // The disk hit was promoted: the second load is a memory hit.
  reader.load("opt", 7);
  EXPECT_EQ(reader.stats().mem_hits, 1u);
}

TEST(ContentCache, CorruptSlotDemotesToMiss) {
  ScratchDir scratch("corrupt");
  {
    cmp::ContentCache writer(scratch.path.string());
    writer.store("gadget", 99, "linear 1 0 0\n");
  }
  const fs::path slot = scratch.path / "gadget" /
                        (cmp::ContentCache::hex_key(99) + ".clbc");
  ASSERT_TRUE(fs::exists(slot));
  {
    std::ofstream out(slot, std::ios::trunc);
    out << "not a clb cache slot";
  }
  cmp::ContentCache reader(scratch.path.string());
  EXPECT_EQ(reader.load("gadget", 99), std::nullopt);
  const auto s = reader.stats();
  EXPECT_EQ(s.invalid, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits(), 0u);
}

TEST(ContentCache, SlotTruncatedAtEveryByteIsInvalid) {
  // The checksummed v2 header makes every torn slot a miss: no strict
  // prefix of a valid slot file loads, so a kill at any byte of a write
  // costs a rebuild, never a wrong artifact.
  ScratchDir scratch("truncate_slot");
  const fs::path slot = scratch.path / "gadget" /
                        (cmp::ContentCache::hex_key(42) + ".clbc");
  {
    cmp::ContentCache writer(scratch.path.string());
    writer.store("gadget", 42, "linear 2 1 3\n0 1\n1 2\n");
  }
  std::string full;
  {
    std::ifstream in(slot, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    full = os.str();
  }
  ASSERT_GT(full.size(), 0u);
  for (std::size_t len = 0; len < full.size(); ++len) {
    {
      std::ofstream out(slot, std::ios::binary | std::ios::trunc);
      out << full.substr(0, len);
    }
    cmp::ContentCache reader(scratch.path.string());
    EXPECT_EQ(reader.load("gadget", 42), std::nullopt)
        << "a slot truncated to " << len << "/" << full.size()
        << " bytes loaded";
    EXPECT_EQ(reader.stats().invalid, 1u) << len;
  }
}

TEST(ContentCache, StrandedTmpIsReplacedByTheNextStore) {
  // A kill between writing a slot's tmp and renaming it strands
  // `<hex16>.clbc.tmp`. The tmp name depends only on the key, so the next
  // store of that key truncates it and renames it into place.
  ScratchDir scratch("stranded_tmp");
  const fs::path dir = scratch.path / "opt";
  const fs::path slot = dir / (cmp::ContentCache::hex_key(7) + ".clbc");
  fs::create_directories(dir);
  {
    std::ofstream out(slot.string() + ".tmp", std::ios::binary);
    out << "clb-cache v2 opt 0000000000000007 a much longer torn payload";
  }
  cmp::ContentCache cache(scratch.path.string());
  EXPECT_EQ(cache.load("opt", 7), std::nullopt);
  cache.store("opt", 7, "12");
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path(), slot);
    ++files;
  }
  EXPECT_EQ(files, 1u);
  cmp::ContentCache reader(scratch.path.string());
  EXPECT_EQ(reader.load("opt", 7), "12");
}

TEST(ContentCache, HexKeyIsStableSixteenDigits) {
  EXPECT_EQ(cmp::ContentCache::hex_key(0), "0000000000000000");
  EXPECT_EQ(cmp::ContentCache::hex_key(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(cmp::ContentCache::hex_key(~0ull), "ffffffffffffffff");
}

// The soundness property behind warm runs: serialize + rehydrate is the
// identity on the construction, so a cached gadget produces the same graph
// bytes, the same counts, and the same solver OPT as a cold build.
TEST(CampaignCache, WarmGadgetBitIdenticalToCold) {
  const clb::testing::Property prop =
      [](std::uint64_t seed,
         std::size_t size) -> std::optional<std::string> {
    cmp::GridPoint gp;
    gp.ell = 2 + (size % 2);
    gp.alpha = 1;
    gp.t = 2 + (seed % 2);
    const cmp::ResolvedPoint point = cmp::resolve_point(gp);

    const auto cold = cmp::build_gadget(point, "");
    const std::string payload = cmp::serialize_gadget(cold);
    const auto header = cmp::parse_gadget_header(payload);
    if (header.nodes != cold.num_nodes()) return "header node count drifted";

    const auto warm = cmp::rehydrate_gadget(point, payload);
    if (cmp::serialize_graph(warm.fixed_graph()) !=
        cmp::serialize_graph(cold.fixed_graph())) {
      return "rehydrated graph is not bit-identical";
    }
    if (cmp::serialize_gadget(warm) != payload) {
      return "re-serialized payload drifted (hash instability)";
    }
    if (clb::fnv1a64(cmp::serialize_gadget(warm)) != clb::fnv1a64(payload)) {
      return "payload digests differ";
    }
    const std::int64_t cold_opt = cmp::solve_branch(cold, true, 1, seed).opt;
    const std::int64_t warm_opt = cmp::solve_branch(warm, true, 1, seed).opt;
    if (cold_opt != warm_opt) {
      return "OPT differs between cold and rehydrated gadget";
    }
    return std::nullopt;
  };
  const auto failure = clb::testing::check_seeds(prop, /*base_seed=*/2020,
                                                 /*instances=*/4,
                                                 /*max_size=*/2);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

TEST(CampaignCache, WarmRunMatchesColdAtEveryWorkerCount) {
  ScratchDir scratch("warm");
  const auto spec = cmp::builtin_smoke_campaign();

  cmp::RunOptions cold_opts;
  cold_opts.cache_dir = scratch.path.string();
  const auto cold = cmp::run_campaign(spec, cold_opts);
  ASSERT_TRUE(cold.complete);
  ASSERT_TRUE(cold.all_hold);
  EXPECT_GT(cold.cache.writes, 0u);
  const std::string reference = canonical_manifest(cold);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    cmp::RunOptions warm_opts;
    warm_opts.threads = threads;
    warm_opts.cache_dir = scratch.path.string();
    const auto warm = cmp::run_campaign(spec, warm_opts);
    EXPECT_TRUE(warm.complete);
    EXPECT_EQ(canonical_manifest(warm), reference) << "threads=" << threads;
    // Every artifact came out of the disk tier; nothing was recomputed.
    EXPECT_EQ(warm.cache.misses, 0u) << "threads=" << threads;
    EXPECT_GT(warm.cache.hits(), 0u) << "threads=" << threads;
    for (const auto& rec : warm.records) {
      EXPECT_TRUE(rec.cache_hit) << rec.id << " threads=" << threads;
    }
  }
}

TEST(CampaignCache, CorruptGadgetSlotFallsBackToColdBuild) {
  ScratchDir scratch("fallback");
  const auto spec = cmp::builtin_smoke_campaign();
  cmp::RunOptions opts;
  opts.cache_dir = scratch.path.string();
  const auto cold = cmp::run_campaign(spec, opts);
  const std::string reference = canonical_manifest(cold);

  // Corrupt every gadget slot; the run must rebuild and still agree.
  std::size_t corrupted = 0;
  for (const auto& entry :
       fs::directory_iterator(scratch.path / "gadget")) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "garbage";
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  const auto rerun = cmp::run_campaign(spec, opts);
  EXPECT_TRUE(rerun.complete);
  EXPECT_EQ(canonical_manifest(rerun), reference);
  EXPECT_GE(rerun.cache.invalid, corrupted);
}
