// Experiment R1 (Remark 1): the unweighted conversion.
//
// Expanding each weight-ell node into an ell-node independent cloud (with
// bicliques replacing heavy-heavy edges) preserves MaxIS exactly, while the
// node count grows from Theta(k) to Theta(k * ell) — which is precisely the
// one-log-factor loss in the round bound that Remark 1 states.

#include <iostream>

#include "comm/instances.hpp"
#include "lowerbound/framework.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/unweighted.hpp"
#include "maxis/branch_and_bound.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
using clb::Table;

int main() {
  std::cout << "=== bench_unweighted: Remark 1 conversion ===\n";
  clb::Rng rng(808);
  bool all_hold = true;

  clb::print_heading(std::cout,
                     "OPT preservation on instantiated hard instances (t=2)");
  {
    Table t({"ell", "k", "branch", "weighted n", "unweighted n",
             "weighted OPT", "unweighted OPT", "equal"});
    for (auto [ell, k] : {std::pair<std::size_t, std::size_t>{3, 4},
                          {4, 5},
                          {6, 7}}) {
      const auto p = clb::lb::GadgetParams::from_l_alpha(ell, 1, k);
      const clb::lb::LinearConstruction c(p, 2);
      for (bool intersecting : {true, false}) {
        const auto inst =
            intersecting
                ? clb::comm::make_uniquely_intersecting(k, 2, rng, 0.3)
                : clb::comm::make_pairwise_disjoint(k, 2, rng, 0.3);
        const auto g = c.instantiate(inst);
        const auto ex = clb::lb::to_unweighted(g);
        const auto wopt = clb::maxis::solve_exact(g).weight;
        const auto uopt = clb::maxis::solve_exact(ex.graph).weight;
        const bool equal = wopt == uopt;
        all_hold = all_hold && equal;
        t.row(ell, k, intersecting ? "YES" : "NO", g.num_nodes(),
              ex.graph.num_nodes(), wopt, uopt, equal);
      }
    }
    t.print(std::cout);
  }

  clb::print_heading(std::cout,
                     "size growth: n_unweighted / n_weighted ~ fraction of "
                     "heavy nodes * ell");
  {
    Table t({"ell", "k", "weighted n", "unweighted n", "growth",
             "round bound penalty (log factor)"});
    for (auto [ell, k] : {std::pair<std::size_t, std::size_t>{3, 4},
                          {6, 7},
                          {10, 11},
                          {16, 17}}) {
      const auto p = clb::lb::GadgetParams::from_l_alpha(ell, 1, k);
      const clb::lb::LinearConstruction c(p, 2);
      clb::Rng local(1);
      const auto inst = clb::comm::make_uniquely_intersecting(k, 2, local, 1.0);
      const auto g = c.instantiate(inst);
      const auto ex = clb::lb::to_unweighted(g);
      const auto rb_w =
          clb::lb::reduction_round_bound(p.k, 2, c.cut_size(), g.num_nodes());
      const auto rb_u = clb::lb::reduction_round_bound(p.k, 2, c.cut_size(),
                                                       ex.graph.num_nodes());
      t.row(ell, k, g.num_nodes(), ex.graph.num_nodes(),
            clb::fmt_double(static_cast<double>(ex.graph.num_nodes()) /
                            static_cast<double>(g.num_nodes()),
                            2),
            clb::fmt_double(rb_w.rounds / rb_u.rounds, 2));
    }
    t.print(std::cout);
  }

  if (!all_hold) {
    std::cout << "\nCLAIM VIOLATION — see tables above.\n";
    return 1;
  }
  std::cout << "\nUnweighted-conversion experiments completed.\n";
  return 0;
}
