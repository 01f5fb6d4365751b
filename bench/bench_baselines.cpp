// Experiment BL: baselines and context.
//
// Table 1: the framework-limitation argument from the introduction — the
//          t-way split solver achieves >= OPT/t on the hard instances with
//          only O(t log n) bits, so a t-party reduction can never rule out
//          1/t-approximations. Measured on the actual gadgets.
// Table 2: the prior-work comparison the paper's abstract draws: [8] CKP17
//          (exact), [4] Bachrach et al. 19, and this paper — approximation
//          factor vs round bound, with concrete values at a reference n.

#include <cmath>
#include <iostream>

#include "comm/instances.hpp"
#include "lowerbound/framework.hpp"
#include "lowerbound/linear_family.hpp"
#include "maxis/branch_and_bound.hpp"
#include "maxis/vertex_cover.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
using clb::Table;

int main() {
  std::cout << "=== bench_baselines: limitation argument + prior work ===\n";
  clb::Rng rng(606);
  bool all_hold = true;

  clb::print_heading(std::cout,
                     "the 1/t limitation — split solver on hard instances");
  {
    Table t({"t", "branch", "OPT", "best part", "ratio", ">= 1/t",
             "comm bits"});
    for (std::size_t tp : {2, 3, 4}) {
      const auto p = clb::lb::GadgetParams::for_linear_separation(tp, 1);
      const clb::lb::LinearConstruction c(p, tp);
      std::vector<std::vector<clb::graph::NodeId>> parts;
      for (std::size_t i = 0; i < tp; ++i) parts.push_back(c.partition(i));
      for (bool intersecting : {true, false}) {
        const auto inst =
            intersecting
                ? clb::comm::make_uniquely_intersecting(p.k, tp, rng, 0.3)
                : clb::comm::make_pairwise_disjoint(p.k, tp, rng, 0.3);
        const auto g = c.instantiate(inst);
        const auto split = clb::lb::split_solver_approximation(g, parts);
        const auto opt = clb::maxis::solve_exact(g).weight;
        const double ratio =
            static_cast<double>(split.best_part_solution.weight) /
            static_cast<double>(opt);
        const bool above_one_over_t = ratio + 1e-12 >= 1.0 / tp;
        all_hold = all_hold && above_one_over_t;
        t.row(tp, intersecting ? "YES" : "NO", opt,
              split.best_part_solution.weight, clb::fmt_double(ratio),
              above_one_over_t, split.communication_bits);
      }
    }
    t.print(std::cout);
    std::cout << "  (ratio >= 1/t everywhere -> no t-party reduction can "
                 "beat 1/t; the paper's Section 1 argument)\n";
  }

  clb::print_heading(
      std::cout,
      "the (3/2)-VC limitation — two-party split cover on hard instances");
  {
    // The paper's second limitation example: [4] proved the two-party
    // framework cannot rule out (3/2)-approximate minimum vertex cover.
    // We measure the natural split-based cover (complement of the best
    // per-part IS, plus the other part entirely): its ratio on the
    // two-party hard instances stays below 3/2 — the framework's blind
    // spot, exhibited on its own gadgets.
    Table t({"branch", "min VC", "split-based VC", "ratio", "< 3/2"});
    const auto p = clb::lb::GadgetParams::from_l_alpha(5, 1, 6);
    const clb::lb::LinearConstruction c(p, 2);
    for (bool intersecting : {true, false}) {
      const auto inst =
          intersecting
              ? clb::comm::make_uniquely_intersecting(p.k, 2, rng, 0.4)
              : clb::comm::make_pairwise_disjoint(p.k, 2, rng, 0.4);
      const auto g = c.instantiate(inst);
      const auto exact = clb::maxis::solve_vertex_cover_exact(g);
      // Each player covers its own part exactly (own-part min VC) and the
      // whole cut is covered because one side of every cut edge is taken
      // in full... simplest sound variant: best part's complement-IS plus
      // the entire other part.
      std::vector<std::vector<clb::graph::NodeId>> parts{c.partition(0),
                                                         c.partition(1)};
      const auto split = clb::lb::split_solver_approximation(g, parts);
      std::vector<clb::graph::NodeId> cover;
      std::vector<bool> in_is(g.num_nodes(), false);
      for (auto v : split.best_part_solution.nodes) in_is[v] = true;
      for (clb::graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!in_is[v]) cover.push_back(v);
      }
      const auto vc = clb::maxis::checked_cover(g, std::move(cover));
      const double ratio = static_cast<double>(vc.weight) /
                           static_cast<double>(exact.weight);
      const bool below_three_halves = ratio < 1.5;
      all_hold = all_hold && below_three_halves;
      t.row(intersecting ? "YES" : "NO", exact.weight, vc.weight,
            clb::fmt_double(ratio), below_three_halves);
    }
    t.print(std::cout);
  }

  clb::print_heading(std::cout,
                     "prior work vs this paper (round bounds at n = 2^20)");
  {
    const double n = std::pow(2.0, 20);
    const double lg = 20.0;
    Table t({"result", "approximation", "bound", "value at n=2^20"});
    t.row("CKP17 [8]", "exact", "n^2 / log^2 n",
          clb::fmt_double(n * n / (lg * lg), 0));
    t.row("Bachrach+19 [4]", "5/6 + eps", "n / log^6 n",
          clb::fmt_double(n / std::pow(lg, 6), 3));
    t.row("Bachrach+19 [4]", "7/8 + eps", "n^2 / log^7 n",
          clb::fmt_double(n * n / std::pow(lg, 7), 0));
    t.row("THIS PAPER Thm 1", "1/2 + eps", "n / log^3 n",
          clb::fmt_double(n / std::pow(lg, 3), 1));
    t.row("THIS PAPER Thm 2", "3/4 + eps", "n^2 / log^3 n",
          clb::fmt_double(n * n / std::pow(lg, 3), 0));
    t.print(std::cout);
    std::cout
        << "  Improvements reproduced: (a) hardness extends from 5/6 to 1/2\n"
           "  and 7/8 to 3/4 (stronger approximation factors); (b) the round\n"
           "  bounds gain log^3 / log^4 factors over [4] at the same shape.\n";
  }

  clb::print_heading(std::cout,
                     "log-factor gain over [4] as n grows (Thm 1 vs 5/6 bound)");
  {
    Table t({"n", "n/log^3 n (this)", "n/log^6 n ([4])", "gain"});
    for (std::size_t e = 14; e <= 26; e += 4) {
      const double n = std::pow(2.0, static_cast<double>(e));
      const double ours = n / std::pow(e, 3);
      const double theirs = n / std::pow(e, 6);
      t.row("2^" + std::to_string(e), clb::fmt_double(ours, 1),
            clb::fmt_double(theirs, 4), clb::fmt_double(ours / theirs, 0));
    }
    t.print(std::cout);
  }

  if (!all_hold) {
    std::cout << "\nCLAIM VIOLATION — see tables above.\n";
    return 1;
  }
  std::cout << "\nBaseline experiments completed.\n";
  return 0;
}
