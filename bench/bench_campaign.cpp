// Experiment CA: campaign subsystem throughput — cold build vs warm
// content-cache re-run, and scheduler scaling across worker counts.
//
// Writes BENCH_campaign.json:
//   - one entry per (phase, threads): wall ms, jobs run, cache traffic;
//   - "warm_speedup": cold_ms / warm_ms for the single-worker runs. The
//     acceptance bar is >= 2x (the warm run replays manifests and hits the
//     disk cache instead of re-running branch-and-bound); the binary exits
//     nonzero below that so CI catches a cache regression.
//
// CLB_BENCH_SMOKE=1 shrinks the sweep to the built-in smoke grid for CI.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
namespace cmp = clb::campaign;

namespace {

struct Row {
  std::string name;
  std::size_t threads = 0;
  double wall_ms = 0;
  std::size_t jobs_run = 0;
  std::size_t jobs_resumed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Fault-domain counters (campaign/campaign.hpp). A bench run executes
  // with no chaos injected, so any nonzero value means real jobs failed;
  // check_bench_regression.py fails the gate on them.
  std::size_t jobs_quarantined = 0;
  std::size_t jobs_blocked = 0;
};

Row run_once(const cmp::CampaignSpec& spec, const std::string& name,
             std::size_t threads, const std::string& cache_dir) {
  cmp::RunOptions opts;
  opts.threads = threads;
  opts.cache_dir = cache_dir;
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = cmp::run_campaign(spec, opts);
  const auto t1 = std::chrono::steady_clock::now();
  if (!result.all_hold) {
    std::cerr << "campaign '" << name << "' has violated checks\n";
    std::exit(1);
  }
  Row r;
  r.name = name;
  r.threads = threads;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.jobs_run = result.jobs_run;
  r.jobs_resumed = result.jobs_resumed;
  r.cache_hits = result.cache.hits();
  r.cache_misses = result.cache.misses;
  r.jobs_quarantined = result.jobs_quarantined;
  r.jobs_blocked = result.jobs_blocked;
  return r;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("CLB_BENCH_SMOKE") != nullptr;
  std::cout << "=== bench_campaign: scheduler + content cache throughput ("
            << (smoke ? "smoke" : "paper") << " sweep) ===\n";

  const cmp::CampaignSpec spec = smoke ? cmp::builtin_smoke_campaign()
                                       : cmp::builtin_paper_campaign();

  namespace fs = std::filesystem;
  const fs::path cache_dir =
      fs::temp_directory_path() / "clb-bench-campaign-cache";
  std::error_code ec;
  fs::remove_all(cache_dir, ec);

  std::vector<Row> rows;
  // Cold: empty disk cache, every gadget built and every OPT solved.
  rows.push_back(run_once(spec, "campaign/cold", 1, cache_dir.string()));
  // Warm: same spec, same cache — builds rehydrate, solves are disk hits.
  rows.push_back(run_once(spec, "campaign/warm", 1, cache_dir.string()));
  // Scaling: warm cache out of the picture (memory-only) so the scheduler,
  // not the cache, is what the thread counts compare.
  for (const std::size_t threads : {1, 2, 4}) {
    rows.push_back(run_once(spec, "campaign/nocache", threads, ""));
  }

  const double cold_ms = rows[0].wall_ms;
  const double warm_ms = rows[1].wall_ms;
  const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0;

  clb::print_heading(std::cout, "campaign wall time by phase");
  clb::Table t({"phase", "threads", "wall ms", "jobs run", "cache hits",
                "cache misses"});
  for (const Row& r : rows) {
    t.row(r.name, r.threads, clb::fmt_double(r.wall_ms, 2), r.jobs_run,
          r.cache_hits, r.cache_misses);
  }
  t.print(std::cout);
  std::cout << "warm speedup (cold/warm, 1 worker): "
            << clb::fmt_double(speedup, 2) << "x\n";

  {
    std::vector<clb::BenchRow> entries;
    for (const Row& r : rows) {
      entries.push_back(
          {r.name,
           {{"threads", std::uint64_t{r.threads}}},
           {{"wall_ms", r.wall_ms},
            {"jobs_run", std::uint64_t{r.jobs_run}},
            {"jobs_resumed", std::uint64_t{r.jobs_resumed}},
            {"cache_hits", r.cache_hits},
            {"cache_misses", r.cache_misses},
            {"jobs_quarantined", std::uint64_t{r.jobs_quarantined}},
            {"jobs_blocked", std::uint64_t{r.jobs_blocked}}}});
    }
    std::ofstream out("BENCH_campaign.json");
    clb::write_bench_json(out, "campaign", entries, [&](clb::JsonWriter& jw) {
      jw.kv("sweep", smoke ? "smoke" : "paper");
      jw.kv("cold_ms", cold_ms);
      jw.kv("warm_ms", warm_ms);
      jw.kv("warm_speedup", speedup);
    });
  }
  std::cout << "  wrote BENCH_campaign.json (" << rows.size()
            << " entries)\n";

  fs::remove_all(cache_dir, ec);

  if (speedup < 2.0) {
    std::cerr << "warm re-run is only " << clb::fmt_double(speedup, 2)
              << "x faster than cold (need >= 2x)\n";
    return 1;
  }
  std::cout << "\nCampaign bench completed.\n";
  return 0;
}
