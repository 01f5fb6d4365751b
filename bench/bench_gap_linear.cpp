// Experiment L2: the linear family's hardness ratio (Lemma 2, Section 4).
//
// Table 1: hardness ratio vs t — measured at buildable sizes, formula at
//          asymptotic ell, and the limit (t+1)/2t.
// Table 2: the eps -> t mapping.
//
// Expected shape (matches the paper): ratio -> 1/2 as t grows with
// ell >> alpha*t. The claim tables C12/C35 (Claims 1-3, 5) are printed by
// `clb campaign run paper`; the measured ratios here solve each branch the
// way a campaign claim point does (campaign::solve_branch).

#include <iostream>

#include "campaign/jobs.hpp"
#include "lowerbound/linear_family.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
using clb::Table;

namespace {

/// The NO/YES ratio at a buildable size, measured exactly like a campaign
/// claim point (max OPT over `trials` draws per branch).
double measured_ratio(const clb::lb::LinearConstruction& c, clb::Rng& rng,
                      int trials) {
  namespace cmp = clb::campaign;
  const std::uint64_t seed = rng.next();
  const auto yes = cmp::solve_branch(c, true, trials, seed).opt;
  const auto no = cmp::solve_branch(c, false, trials, seed).opt;
  return static_cast<double>(no) / static_cast<double>(yes);
}

}  // namespace

int main() {
  std::cout << "=== bench_gap_linear: Lemma 2 ===\n";
  clb::Rng rng(2020);

  clb::print_heading(std::cout,
                     "L2 — hardness ratio vs t (paper: -> 1/2 + eps)");
  {
    Table t({"t", "measured NO/YES (l=t+2,a=1)", "formula (l=2^20)",
             "limit (t+1)/2t"});
    for (std::size_t tp : {2, 3, 4, 5, 6, 8, 12, 16}) {
      std::string measured = "-";
      if (tp <= 5) {
        const auto p = clb::lb::GadgetParams::for_linear_separation(tp, 2);
        const clb::lb::LinearConstruction c(p, tp);
        measured = clb::fmt_double(measured_ratio(c, rng, 2));
      }
      t.row(tp, measured,
            clb::lb::linear_hardness_ratio_formula(1 << 20, 1, tp),
            (tp + 1.0) / (2.0 * tp));
    }
    t.print(std::cout);
  }

  clb::print_heading(std::cout, "L2 — epsilon to player-count mapping");
  {
    Table t({"eps", "t = ceil(2/eps)", "ruled-out approximation"});
    for (double eps : {0.4, 0.25, 0.125, 0.0625, 0.03125}) {
      const auto tp = clb::lb::linear_players_for_epsilon(eps);
      t.row(clb::fmt_double(eps, 5), tp,
            "(1/2 + " + clb::fmt_double(eps, 5) + ")");
    }
    t.print(std::cout);
  }

  std::cout << "\nLinear gap experiments completed.\n";
  return 0;
}
