// Experiment RND: the success-probability clause of Definition 1 /
// Theorem 5 ("... with probability at least 2/3").
//
// The reduction is run with a deliberately flaky exact algorithm whose
// local solver fails (returns an empty IS) independently with probability
// p_fail per run. Measured: the fraction of correct disjointness answers,
// single-run vs majority-of-3 amplification, across p_fail levels. The
// shape to reproduce: correctness ~ 1 - p_fail/2 for single runs
// (failures only misclassify intersecting inputs), amplification pushes
// it toward 1, and every run — success or failure — stays inside the
// Theorem-5 bit budget.

#include <iostream>

#include "congest/algorithms/universal_maxis.hpp"
#include "maxis/branch_and_bound.hpp"
#include "sim/reduction.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
using clb::Table;

namespace {

struct RunOutcome {
  bool decided_disjoint = false;
  bool accounting_ok = false;
};

RunOutcome run_once(const clb::lb::LinearConstruction& c,
                    const clb::comm::PromiseInstance& inst, bool fail) {
  clb::congest::LocalMaxIsSolver solver =
      [fail](const clb::graph::Graph& g) -> std::vector<clb::graph::NodeId> {
    if (fail) return {};
    return clb::maxis::solve_exact(g).nodes;
  };
  clb::comm::Blackboard board(inst.t);
  clb::congest::NetworkConfig cfg;
  cfg.bits_per_edge = clb::congest::universal_required_bits(
      c.num_nodes(), static_cast<clb::graph::Weight>(c.params().ell));
  cfg.max_rounds = 200'000;
  const auto rep = clb::sim::run_linear_reduction(
      c, inst, clb::congest::universal_maxis_factory(solver), board, cfg);
  return RunOutcome{rep.decided_disjoint, rep.accounting_ok};
}

}  // namespace

int main() {
  std::cout << "=== bench_success_probability: the 2/3 clause ===\n";
  const std::size_t t = 2;
  const auto p = clb::lb::GadgetParams::for_linear_separation(t, 1, 3);
  const clb::lb::LinearConstruction c(p, t);
  clb::Rng rng(777);
  bool all_hold = true;

  clb::print_heading(std::cout,
                     "correct-answer frequency vs algorithm failure rate "
                     "(16 instances per cell, both branches)");
  Table table({"p_fail", "single-run correct", "majority-of-3 correct",
               "all runs within budget", "clears 2/3"});
  for (double p_fail : {0.0, 0.1, 0.25, 0.4}) {
    int single_ok = 0, majority_ok = 0;
    bool accounted = true;
    const int trials = 16;
    for (int trial = 0; trial < trials; ++trial) {
      const bool intersecting = trial % 2 == 0;
      const auto inst =
          intersecting
              ? clb::comm::make_uniquely_intersecting(p.k, t, rng, 0.4)
              : clb::comm::make_pairwise_disjoint(p.k, t, rng, 0.4);
      const bool truth_disjoint = !intersecting;
      int votes = 0;
      bool first_decision = false;
      for (int r = 0; r < 3; ++r) {
        const auto out = run_once(c, inst, rng.chance(p_fail));
        accounted = accounted && out.accounting_ok;
        votes += out.decided_disjoint ? 1 : 0;
        if (r == 0) first_decision = out.decided_disjoint;
      }
      if (first_decision == truth_disjoint) ++single_ok;
      if ((votes >= 2) == truth_disjoint) ++majority_ok;
    }
    const double single = static_cast<double>(single_ok) / trials;
    const double majority = static_cast<double>(majority_ok) / trials;
    const bool clears = majority >= 2.0 / 3.0;
    all_hold = all_hold && accounted && clears;
    table.row(clb::fmt_double(p_fail, 2), clb::fmt_double(single, 3),
              clb::fmt_double(majority, 3), accounted, clears);
  }
  table.print(std::cout);
  std::cout << "  (failures only misclassify the intersecting branch — an "
               "empty IS weighs 0 < YES threshold -> \"disjoint\"; the "
               "accounting never depends on the outcome.)\n";
  if (!all_hold) {
    std::cout << "\nCLAIM VIOLATION — see tables above.\n";
    return 1;
  }
  std::cout << "\nSuccess-probability experiments completed.\n";
  return 0;
}
