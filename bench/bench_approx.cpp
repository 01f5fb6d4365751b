// Experiment APX: the upper-bound algorithm zoo — KKSS-style
// (1+eps)-approximate MaxIS and the blackboard MIS protocols, measured as
// gap sandwiches (alg weight <= OPT <= clique-partition upper bound) on
// the paper's gadget graphs.
//
// A timed reader of the campaign builtins `approx_sweep` and
// `blackboard_sweep`: every point of every sweep is measured through the
// campaign's own algorithm_rows call with the campaign's own job seed, so
// this table and `clb campaign run approx_sweep|blackboard_sweep` cannot
// disagree. Writes BENCH_approx.json (one row per point x variant, in the
// one bench row shape) and prints the gap-sandwich table that
// EXPERIMENTS.md reproduces. Exits 1 when any row's contract fails — the
// measured KKSS ratio must be <= 1 + eps on every instance where the exact
// solver certifies the optimum.

#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "campaign/campaign.hpp"

namespace cmp = congestlb::campaign;

int main() {
  std::cout << "=== bench_approx: upper-bound algorithm zoo ===\n";

  std::vector<cmp::ApproxBenchRow> rows;
  for (const char* builtin : {"approx_sweep", "blackboard_sweep"}) {
    const cmp::CampaignSpec spec = *cmp::builtin_campaign(builtin);
    for (const cmp::SweepSpec& sweep : spec.sweeps) {
      for (std::size_t pi = 0; pi < sweep.points.size(); ++pi) {
        const auto c =
            cmp::build_gadget(cmp::resolve_point(sweep.points[pi]), "");
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<cmp::ApproxBenchRow> got = cmp::algorithm_rows(
            sweep.check, c, cmp::check_job_seed(spec.seed, sweep.name, pi),
            sweep.eps_num, sweep.eps_den);
        const double ns = std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        // ns_per_round is the one field that varies run to run, and the
        // one the regression gate reads. Only a KKSS row carries it: the
        // blackboard sweep's two protocols share one call, so neither owns
        // its time.
        if (sweep.check == cmp::CheckKind::kApproxSweep) {
          cmp::ApproxBenchRow& row = got.front();
          row.ns_per_round =
              row.rounds > 0 ? ns / static_cast<double>(row.rounds) : ns;
        }
        for (cmp::ApproxBenchRow& row : got) rows.push_back(std::move(row));
      }
    }
  }

  cmp::render_gap_sandwich(std::cout, rows);

  std::size_t violations = 0;
  for (const cmp::ApproxBenchRow& r : rows) {
    if (!r.holds) {
      ++violations;
      std::cerr << "contract VIOLATED: " << r.name << " [" << r.variant
                << "]: alg=" << r.alg_weight << " opt=" << r.opt_exact
                << " ub=" << r.opt_upper << " rounds=" << r.rounds << "/"
                << r.round_bound << " bits=" << r.bits << "/" << r.bit_budget
                << "\n";
    }
  }

  {
    std::ofstream out("BENCH_approx.json");
    cmp::write_approx_bench_json(out, rows, "campaign");
  }
  std::cout << "  wrote BENCH_approx.json (" << rows.size() << " entries)\n";

  if (violations > 0) {
    std::cerr << violations << " contract violations\n";
    return 1;
  }
  std::cout << "\nAll " << rows.size()
            << " gap-sandwich rows hold. Approx bench completed.\n";
  return 0;
}
