// Experiment CUT: the communication cut of both constructions.
//
// The lower bounds live or die by a small cut: the paper's accounting needs
// |cut(G_xbar)| = Theta(t^2 log^2 k) (in fact our realized cut is
// C(t,2) * (l+a) * p(p-1) ~ t^2 log^3 k with the concrete clique sizes).
// Table 1 checks the closed form against the actually constructed edge set;
// Table 2 shows polylogarithmic growth in k (the point: cut << k, so the
// CC bound translates into many rounds); Table 3 shows the t^2 scaling.

#include <iostream>

#include "lowerbound/linear_family.hpp"
#include "lowerbound/quadratic_family.hpp"
#include "support/math.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
using clb::Table;

int main() {
  std::cout << "=== bench_cut: cut structure of the constructions ===\n";
  bool all_hold = true;

  clb::print_heading(std::cout, "closed form vs constructed edge set");
  {
    Table t({"family", "t", "ell", "alpha", "formula", "constructed", "match"});
    for (auto [tp, ell, alpha] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{2, 2, 1},
          {3, 3, 1},
          {4, 3, 2},
          {2, 5, 2}}) {
      const auto p = clb::lb::GadgetParams::from_l_alpha(ell, alpha);
      const clb::lb::LinearConstruction lc(p, tp);
      const bool linear_match = lc.cut_size() == lc.cut_edges().size();
      t.row("linear", tp, ell, alpha, lc.cut_size(), lc.cut_edges().size(),
            linear_match);
      const clb::lb::QuadraticConstruction qc(p, tp);
      const bool quadratic_match = qc.cut_size() == qc.cut_edges().size();
      t.row("quadratic", tp, ell, alpha, qc.cut_size(), qc.cut_edges().size(),
            quadratic_match);
      all_hold = all_hold && linear_match && quadratic_match;
    }
    t.print(std::cout);
  }

  clb::print_heading(std::cout,
                     "cut growth in k (paper regime; t = 3): polylog in k");
  {
    Table t({"k", "ell", "alpha", "cut", "t^2 log^3 k", "cut / t^2 log^3 k",
             "cut / k"});
    for (std::size_t k : {64, 256, 1024, 4096, 16384, 65536, 262144}) {
      const auto p = clb::lb::GadgetParams::from_k(k);
      const std::size_t tp = 3;
      const std::size_t pcs = p.clique_size();
      const std::size_t cut =
          tp * (tp - 1) / 2 * p.num_positions() * pcs * (pcs - 1);
      const double lg = clb::ceil_log2(k);
      const double ref = tp * tp * lg * lg * lg;
      t.row(k, p.ell, p.alpha, cut, clb::fmt_double(ref, 0),
            clb::fmt_double(cut / ref, 2),
            clb::fmt_double(static_cast<double>(cut) / k, 3));
    }
    t.print(std::cout);
  }

  clb::print_heading(std::cout, "cut growth in t (fixed ell=4, alpha=1)");
  {
    Table t({"t", "linear cut", "quadratic cut", "cut / C(t,2)"});
    const auto p = clb::lb::GadgetParams::from_l_alpha(4, 1);
    for (std::size_t tp : {2, 3, 4, 6, 8, 12}) {
      const clb::lb::LinearConstruction lc(p, tp);
      const clb::lb::QuadraticConstruction qc(p, tp);
      t.row(tp, lc.cut_size(), qc.cut_size(),
            lc.cut_size() / (tp * (tp - 1) / 2));
    }
    t.print(std::cout);
  }

  if (!all_hold) {
    std::cout << "\nCLAIM VIOLATION — see tables above.\n";
    return 1;
  }
  std::cout << "\nCut experiments completed.\n";
  return 0;
}
