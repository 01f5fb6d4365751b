// Experiments C67, L3: the quadratic family's YES/NO gap (Section 5).
//
// Table 1: Claims 6-7 — exact OPT on k^2-length-string instances against
//          t(4l+2a) (YES) and 3(t+1)l+3at^3 (NO).
// Table 2: Lemma 3 — hardness ratio vs t: measured OPT ratio at buildable
//          sizes (real gap even where the loose bound does not separate),
//          formula ratio at asymptotic ell, the eps -> t mapping.
//
// Expected shape: YES OPT == t(4l+2a) exactly; NO OPT <= bound; ratio
// -> 3/4 as t grows.

#include <iostream>

#include "comm/instances.hpp"
#include "lowerbound/quadratic_family.hpp"
#include "maxis/branch_and_bound.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
using clb::Table;

int main() {
  std::cout << "=== bench_gap_quadratic: Claims 6-7 and Lemma 3 ===\n";
  clb::Rng rng(505);
  bool all_hold = true;

  clb::print_heading(
      std::cout, "C67 — YES >= t(4l+2a), NO <= 3(t+1)l+3at^3 (exact OPT)");
  {
    Table t({"t", "ell", "alpha", "k", "n", "strings", "YES OPT",
             "claim YES>=", "NO OPT", "claim NO<=", "holds"});
    for (auto [tp, ell, alpha, k] :
         {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{
              2, 2, 1, 3},
          {2, 3, 1, 4},
          {2, 4, 1, 5},
          {3, 3, 1, 4},
          {3, 4, 1, 5},
          {2, 6, 1, 7}}) {
      const auto p = clb::lb::GadgetParams::from_l_alpha(ell, alpha, k);
      const clb::lb::QuadraticConstruction c(p, tp);
      clb::graph::Weight yes_opt = 0, no_opt = 0;
      for (int trial = 0; trial < 2; ++trial) {
        const auto yes = clb::comm::make_uniquely_intersecting(
            c.string_length(), tp, rng, 0.3);
        yes_opt = std::max(yes_opt,
                           clb::maxis::solve_exact(c.instantiate(yes)).weight);
        const auto no = clb::comm::make_pairwise_disjoint(c.string_length(),
                                                          tp, rng, 0.4);
        no_opt = std::max(no_opt,
                          clb::maxis::solve_exact(c.instantiate(no)).weight);
      }
      const bool holds = yes_opt >= c.yes_weight() && no_opt <= c.no_bound();
      all_hold = all_hold && holds;
      t.row(tp, ell, alpha, k, c.num_nodes(), c.string_length(), yes_opt,
            c.yes_weight(), no_opt, c.no_bound(), holds);
    }
    t.print(std::cout);
  }

  clb::print_heading(std::cout,
                     "L3 — measured OPT gap (NO/YES) at buildable sizes");
  {
    Table t({"t", "ell", "k", "measured NO OPT / YES OPT",
             "loose bound ratio", "note"});
    for (auto [tp, ell, k] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{2, 4, 5},
          {2, 6, 7},
          {3, 4, 5}}) {
      const auto p = clb::lb::GadgetParams::from_l_alpha(ell, 1, k);
      const clb::lb::QuadraticConstruction c(p, tp);
      clb::graph::Weight yes_opt = 0, no_opt = 0;
      for (int trial = 0; trial < 2; ++trial) {
        const auto yes = clb::comm::make_uniquely_intersecting(
            c.string_length(), tp, rng, 0.3);
        yes_opt = std::max(yes_opt,
                           clb::maxis::solve_exact(c.instantiate(yes)).weight);
        const auto no = clb::comm::make_pairwise_disjoint(c.string_length(),
                                                          tp, rng, 0.4);
        no_opt = std::max(no_opt,
                          clb::maxis::solve_exact(c.instantiate(no)).weight);
      }
      t.row(tp, ell, k,
            clb::fmt_double(static_cast<double>(no_opt) /
                            static_cast<double>(yes_opt)),
            clb::fmt_double(c.hardness_ratio()),
            no_opt < yes_opt ? "gap real" : "no gap");
    }
    t.print(std::cout);
  }

  clb::print_heading(std::cout,
                     "L3 — formula ratio vs t (paper: -> 3/4 + eps)");
  {
    Table t({"t", "formula (l=2^24, a=1)", "limit 3(t+1)/4t"});
    for (std::size_t tp : {2, 4, 8, 12, 16, 24, 40, 64}) {
      t.row(tp, clb::lb::quadratic_hardness_ratio_formula(1 << 24, 1, tp),
            3.0 * (tp + 1.0) / (4.0 * tp));
    }
    t.print(std::cout);
  }

  clb::print_heading(std::cout, "L3 — epsilon to player-count mapping");
  {
    Table t({"eps", "t = ceil(3/(4 eps) - 1)", "ruled-out approximation"});
    for (double eps : {0.2, 0.1, 0.05, 0.025, 0.0125}) {
      const auto tp = clb::lb::quadratic_players_for_epsilon(eps);
      t.row(clb::fmt_double(eps, 4), tp,
            "(3/4 + " + clb::fmt_double(eps, 4) + ")");
    }
    t.print(std::cout);
  }

  if (!all_hold) {
    std::cout << "\nCLAIM VIOLATION — see tables above.\n";
    return 1;
  }
  std::cout << "\nQuadratic gap experiments completed.\n";
  return 0;
}
