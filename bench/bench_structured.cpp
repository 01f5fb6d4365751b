// Experiment STR (design-choice ablation from DESIGN.md): the structured
// exact solver — the Claim 2/4/5 case analysis as an algorithm — versus
// general branch-and-bound.
//
// Two payoffs are measured:
//   1. speed: (k+1)^t tuple enumeration vs an NP-hard search whose tree
//      explodes when alpha >= 2 (codewords overlap, the clique-cover bound
//      loosens);
//   2. reach: claim verification at parameter sizes branch-and-bound
//      cannot touch, e.g. k in the hundreds.

#include <chrono>
#include <iostream>

#include "comm/instances.hpp"
#include "lowerbound/structured_solver.hpp"
#include "maxis/branch_and_bound.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
using clb::Table;

namespace {

template <typename F>
double ms(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  std::cout << "=== bench_structured: case-analysis solver vs branch-and-bound ===\n";
  clb::Rng rng(11);
  bool all_hold = true;

  clb::print_heading(std::cout,
                     "head-to-head on pairwise-disjoint instances (NO side)");
  {
    Table t({"t", "ell", "alpha", "k", "n", "OPT", "agree", "BnB ms",
             "BnB search nodes", "structured ms", "speedup"});
    for (auto [tp, ell, alpha, k] :
         {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{
              2, 4, 1, 5},
          {3, 5, 1, 6},
          {2, 8, 2, 100},
          {3, 8, 2, 64},
          {4, 8, 1, 9},
          {3, 10, 2, 100}}) {
      const auto p = clb::lb::GadgetParams::from_l_alpha(ell, alpha, k);
      const clb::lb::LinearConstruction c(p, tp);
      const auto inst = clb::comm::make_pairwise_disjoint(k, tp, rng, 0.4);
      clb::maxis::BnBResult bnb;
      const double bnb_ms = ms([&] {
        bnb = clb::maxis::solve_branch_and_bound(c.instantiate(inst));
      });
      clb::maxis::IsSolution structured;
      const double str_ms =
          ms([&] { structured = clb::lb::solve_linear_structured(c, inst); });
      const bool agree = structured.weight == bnb.solution.weight;
      all_hold = all_hold && agree;
      t.row(tp, ell, alpha, k, c.num_nodes(), structured.weight, agree,
            clb::fmt_double(bnb_ms, 2), bnb.search_nodes,
            clb::fmt_double(str_ms, 2),
            clb::fmt_double(bnb_ms / std::max(str_ms, 0.001), 1));
    }
    t.print(std::cout);
  }

  clb::print_heading(std::cout,
                     "reach — Claims 3+5 verified at sizes beyond BnB "
                     "(structured only)");
  {
    Table t({"t", "ell", "alpha", "k", "n", "YES OPT", "claim YES",
             "NO OPT", "claim NO<=", "holds", "ms"});
    for (auto [tp, ell, alpha, k] :
         {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{
              2, 12, 2, 280},
          {2, 16, 3, 900},
          {3, 12, 2, 200},
          {2, 20, 3, 2000}}) {
      const auto p = clb::lb::GadgetParams::from_l_alpha(ell, alpha, k);
      const clb::lb::LinearConstruction c(p, tp);
      const auto yes = clb::comm::make_uniquely_intersecting(k, tp, rng, 0.2);
      const auto no = clb::comm::make_pairwise_disjoint(k, tp, rng, 0.2);
      clb::graph::Weight wy = 0, wn = 0;
      const double total_ms = ms([&] {
        wy = clb::lb::solve_linear_structured(c, yes).weight;
        wn = clb::lb::solve_linear_structured(c, no).weight;
      });
      const bool holds = wy >= c.yes_weight() && wn <= c.no_bound();
      all_hold = all_hold && holds;
      t.row(tp, ell, alpha, k, c.num_nodes(), wy, c.yes_weight(), wn,
            c.no_bound(), holds, clb::fmt_double(total_ms, 1));
    }
    t.print(std::cout);
  }

  clb::print_heading(std::cout, "quadratic family head-to-head");
  {
    Table t({"t", "ell", "k", "strings", "n", "OPT", "agree", "BnB ms",
             "structured ms"});
    for (auto [tp, ell, k] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{2, 4, 5},
          {2, 6, 7},
          {3, 4, 5}}) {
      const auto p = clb::lb::GadgetParams::from_l_alpha(ell, 1, k);
      const clb::lb::QuadraticConstruction c(p, tp);
      const auto inst = clb::comm::make_pairwise_disjoint(c.string_length(),
                                                          tp, rng, 0.4);
      clb::maxis::BnBResult bnb;
      const double bnb_ms = ms([&] {
        bnb = clb::maxis::solve_branch_and_bound(c.instantiate(inst));
      });
      clb::maxis::IsSolution structured;
      const double str_ms = ms(
          [&] { structured = clb::lb::solve_quadratic_structured(c, inst); });
      const bool agree = structured.weight == bnb.solution.weight;
      all_hold = all_hold && agree;
      t.row(tp, ell, k, c.string_length(), c.num_nodes(), structured.weight,
            agree,
            clb::fmt_double(bnb_ms, 2), clb::fmt_double(str_ms, 2));
    }
    t.print(std::cout);
  }

  if (!all_hold) {
    std::cout << "\nCLAIM VIOLATION — see tables above.\n";
    return 1;
  }
  std::cout << "\nStructured-solver experiments completed.\n";
  return 0;
}
