// Experiment ALG: the upper-bound side the paper contrasts with.
//
// Fast local algorithms (greedy MIS, Luby, weighted greedy) terminate in
// few rounds but only guarantee ~Delta-factor approximations; the universal
// gather-everything algorithm is exact but needs Theta(m) rounds — the
// O(n^2) generic upper bound that makes Theorem 2 near-tight. The tables
// measure rounds and approximation ratios on random graphs and on actual
// hard instances.

#include <iostream>

#include "comm/instances.hpp"
#include "congest/algorithms/greedy_mis.hpp"
#include "congest/algorithms/luby_mis.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/algorithms/weighted_greedy.hpp"
#include "congest/network.hpp"
#include "lowerbound/linear_family.hpp"
#include "maxis/branch_and_bound.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
using clb::Table;

namespace {

clb::graph::Graph random_connected(clb::Rng& rng, std::size_t n, double p,
                                   clb::graph::Weight max_w) {
  clb::graph::Graph g(n);
  for (clb::graph::NodeId v = 0; v < n; ++v) {
    g.set_weight(v, static_cast<clb::graph::Weight>(1 + rng.below(max_w)));
  }
  clb::graph::EdgeList edges;
  for (clb::graph::NodeId u = 0; u < n; ++u) {
    for (clb::graph::NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(p)) edges.emplace_back(u, v);
    }
  }
  for (clb::graph::NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  g.add_edges(edges);  // the path edges already drawn collapse
  return g;
}

struct AlgoRun {
  std::size_t rounds = 0;
  clb::graph::Weight weight = 0;
};

AlgoRun run(const clb::graph::Graph& g, const clb::congest::ProgramFactory& f,
            std::size_t bits_per_edge = 0) {
  clb::congest::NetworkConfig cfg;
  cfg.bits_per_edge = bits_per_edge;
  cfg.max_rounds = 400'000;
  clb::congest::Network net(g, f, cfg);
  const auto stats = net.run();
  AlgoRun r;
  r.rounds = stats.rounds;
  r.weight = g.weight_of(net.selected_nodes());
  return r;
}

}  // namespace

int main() {
  std::cout << "=== bench_congest_algorithms: upper-bound context ===\n";
  clb::Rng rng(707);

  clb::print_heading(std::cout, "random G(n, p) graphs, weights 1..8");
  {
    Table t({"n", "p", "Delta", "algorithm", "rounds", "weight", "OPT",
             "ratio"});
    for (auto [n, pr] : {std::pair<std::size_t, double>{24, 0.2},
                         {24, 0.5},
                         {40, 0.15}}) {
      auto g = random_connected(rng, n, pr, 8);
      const auto opt = clb::maxis::solve_exact(g).weight;
      const auto ub = clb::congest::universal_required_bits(n, 8);
      struct Entry {
        const char* name;
        clb::congest::ProgramFactory factory;
        std::size_t bits;
      };
      const Entry entries[] = {
          {"greedy-mis", clb::congest::greedy_mis_factory(), 0},
          {"luby-mis", clb::congest::luby_mis_factory(), 0},
          {"weighted-greedy", clb::congest::weighted_greedy_factory(), 0},
          {"universal-exact",
           clb::congest::universal_maxis_factory([](const clb::graph::Graph& gg) {
             return clb::maxis::solve_exact(gg).nodes;
           }),
           ub},
      };
      for (const auto& e : entries) {
        const auto r = run(g, e.factory, e.bits);
        t.row(n, clb::fmt_double(pr, 2), g.max_degree(), e.name, r.rounds,
              r.weight, opt,
              clb::fmt_double(static_cast<double>(r.weight) / opt));
      }
    }
    t.print(std::cout);
  }

  clb::print_heading(
      std::cout,
      "hard instances (linear family): local algorithms vs the gap");
  {
    Table t({"t", "branch", "algorithm", "rounds", "weight", "yes threshold",
             "would decide correctly"});
    for (std::size_t tp : {2, 3}) {
      const auto p = clb::lb::GadgetParams::for_linear_separation(tp, 1);
      const clb::lb::LinearConstruction c(p, tp);
      for (bool intersecting : {true, false}) {
        const auto inst =
            intersecting
                ? clb::comm::make_uniquely_intersecting(p.k, tp, rng, 0.3)
                : clb::comm::make_pairwise_disjoint(p.k, tp, rng, 0.3);
        const auto g = c.instantiate(inst);
        struct Entry {
          const char* name;
          clb::congest::ProgramFactory factory;
          std::size_t bits;
        };
        const Entry entries[] = {
            {"weighted-greedy", clb::congest::weighted_greedy_factory(), 0},
            {"universal-exact",
             clb::congest::universal_maxis_factory(
                 [](const clb::graph::Graph& gg) {
                   return clb::maxis::solve_exact(gg).nodes;
                 }),
             clb::congest::universal_required_bits(
                 c.num_nodes(), static_cast<clb::graph::Weight>(p.ell))},
        };
        for (const auto& e : entries) {
          const auto r = run(g, e.factory, e.bits);
          const bool decided_intersecting = r.weight >= c.yes_weight();
          t.row(tp, intersecting ? "YES" : "NO", e.name, r.rounds, r.weight,
                c.yes_weight(), decided_intersecting == intersecting);
        }
      }
    }
    t.print(std::cout);
    std::cout << "  (the fast local algorithm misses the gap; the exact one "
                 "decides it but pays Theta(m) rounds — the paper's "
                 "trade-off.)\n";
  }

  std::cout << "\nCONGEST algorithm experiments completed.\n";
  return 0;
}
