// Experiment AZ: the upper-bound algorithm zoo — KKSS-style
// (1+eps)-approximate MaxIS and the blackboard MIS protocols, measured as
// gap sandwiches (alg weight <= OPT <= clique-partition upper bound) over
// the paper's gadget instances and the interconnect traffic workloads.
//
// Writes BENCH_approx.json (one row per instance x variant, in the one
// bench row shape; shared with the campaign checks and pinned by
// tests/approx_bench_golden_test.cpp) and prints the gap-sandwich table
// that EXPERIMENTS.md reproduces. Exits nonzero when any row's contract
// fails — the measured KKSS ratio must be <= 1 + eps on every instance
// where the exact solver certifies the optimum.
//
// CLB_BENCH_SMOKE=1 drops the eps = 1/8 repeat sweep for CI.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/approx_sweep.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"
#include "sim/traffic.hpp"
#include "support/rng.hpp"

namespace clb = congestlb;
namespace cmp = clb::campaign;

namespace {

struct Instance {
  std::string name;
  clb::graph::Graph g;
};

std::vector<Instance> build_instances() {
  std::vector<Instance> out;

  // The paper's own hard shapes: fixed linear-family gadget graphs plus
  // one instantiated (reweighted) draw per shape.
  const struct {
    std::size_t ell, alpha, t;
  } shapes[] = {{2, 1, 2}, {2, 1, 3}, {3, 1, 2}};
  clb::Rng rng(2020);
  for (const auto& s : shapes) {
    auto params = clb::lb::GadgetParams::from_l_alpha(s.ell, s.alpha);
    const clb::lb::LinearConstruction c(std::move(params), s.t);
    const std::string base = "gadget/ell=" + std::to_string(s.ell) +
                             ",alpha=" + std::to_string(s.alpha) +
                             ",t=" + std::to_string(s.t);
    out.push_back({base, c.fixed_graph()});

    std::vector<std::vector<std::uint8_t>> strings(
        s.t, std::vector<std::uint8_t>(c.params().k, 0));
    for (auto& str : strings) {
      for (auto& bit : str) bit = rng.chance(0.5) ? 1 : 0;
    }
    out.push_back({base + "/inst", c.instantiate_raw(strings)});
  }

  // Structured stress workloads: one graph per interconnect pattern.
  for (const clb::sim::TrafficPattern p : clb::sim::kAllTrafficPatterns) {
    out.push_back({std::string("traffic/") +
                       std::string(clb::sim::to_string(p)) + "/n=16",
                   clb::sim::traffic_graph(p, 16, /*seed=*/5)});
  }
  return out;
}

/// Wall-clock the measurement and fill the row's timing field. The
/// contract values (weights, rounds, bits) stay deterministic; only
/// ns_per_round varies run to run, and only it is regression-gated.
template <typename F>
cmp::ApproxBenchRow timed(F&& measure) {
  const auto t0 = std::chrono::steady_clock::now();
  cmp::ApproxBenchRow row = measure();
  const auto dt = std::chrono::steady_clock::now() - t0;
  const double ns =
      std::chrono::duration<double, std::nano>(dt).count();
  row.ns_per_round = row.rounds > 0 ? ns / static_cast<double>(row.rounds)
                                    : ns;
  return row;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("CLB_BENCH_SMOKE") != nullptr;
  std::cout << "=== bench_approx: upper-bound algorithm zoo ("
            << (smoke ? "smoke" : "full") << " sweep) ===\n";

  const std::vector<Instance> instances = build_instances();
  std::vector<cmp::ApproxBenchRow> rows;
  for (const Instance& inst : instances) {
    rows.push_back(timed([&] {
      return cmp::measure_approx_row(inst.g, inst.name, 1, 4, /*seed=*/7);
    }));
    if (!smoke) {
      rows.push_back(timed([&] {
        return cmp::measure_approx_row(inst.g, inst.name, 1, 8, /*seed=*/7);
      }));
    }
    for (cmp::ApproxBenchRow& row :
         cmp::measure_blackboard_rows(inst.g, inst.name, /*players=*/4,
                                      /*seed=*/7)) {
      rows.push_back(std::move(row));
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
    cmp::write_approx_bench_json(out, rows, smoke ? "smoke" : "full");
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
