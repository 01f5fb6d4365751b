// CONGEST playground: run the distributed independent-set algorithms on a
// random graph and compare against the exact optimum.
//
//   $ ./congest_playground [n] [edge_prob] [max_weight] [seed]
//
// Shows the upper-bound side of the paper's story: local algorithms are
// fast but only Delta-ish approximate; the universal algorithm is exact
// but needs Theta(m) rounds.

#include <cstdlib>
#include <iostream>

#include "congest/algorithms/aggregate.hpp"
#include "congest/algorithms/bfs_tree.hpp"
#include "congest/algorithms/coloring.hpp"
#include "congest/algorithms/greedy_mis.hpp"
#include "congest/algorithms/leader_election.hpp"
#include "congest/algorithms/luby_mis.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/algorithms/weighted_greedy.hpp"
#include "congest/network.hpp"
#include "graph/algorithms.hpp"
#include "maxis/branch_and_bound.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace clb = congestlb;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60;
  const double prob = argc > 2 ? std::strtod(argv[2], nullptr) : 0.15;
  const clb::graph::Weight max_w =
      argc > 3 ? std::strtoll(argv[3], nullptr, 10) : 8;
  const std::uint64_t seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 99;

  clb::Rng rng(seed);
  clb::graph::Graph g(n);
  for (clb::graph::NodeId v = 0; v < n; ++v) {
    g.set_weight(v, static_cast<clb::graph::Weight>(1 + rng.below(max_w)));
  }
  clb::graph::EdgeList edges;
  for (clb::graph::NodeId u = 0; u < n; ++u) {
    for (clb::graph::NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(prob)) edges.emplace_back(u, v);
    }
  }
  // Keep it connected so the universal algorithm terminates (add_edges
  // skips the path edges already drawn).
  for (clb::graph::NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  g.add_edges(edges);

  std::cout << "G(n=" << n << ", p=" << prob << "): " << g.num_edges()
            << " edges, max degree " << g.max_degree() << ", weights 1.."
            << max_w << "\n";

  const auto opt = clb::maxis::solve_exact(g);
  std::cout << "exact MaxIS (centralized branch-and-bound): " << opt.weight
            << "\n\n";

  clb::Table t({"algorithm", "rounds", "messages", "IS weight", "ratio vs OPT"});
  struct Entry {
    const char* name;
    clb::congest::ProgramFactory factory;
    std::size_t bits_per_edge;
  };
  const Entry entries[] = {
      {"greedy-mis (by id)", clb::congest::greedy_mis_factory(), 0},
      {"luby-mis (randomized)", clb::congest::luby_mis_factory(), 0},
      {"weighted-greedy", clb::congest::weighted_greedy_factory(), 0},
      {"universal-exact",
       clb::congest::universal_maxis_factory([](const clb::graph::Graph& gg) {
         return clb::maxis::solve_exact(gg).nodes;
       }),
       clb::congest::universal_required_bits(n, max_w)},
  };
  for (const auto& e : entries) {
    clb::congest::NetworkConfig cfg;
    cfg.bits_per_edge = e.bits_per_edge;
    cfg.seed = seed;
    cfg.max_rounds = 500'000;
    clb::congest::Network net(g, e.factory, cfg);
    const auto stats = net.run();
    const auto sel = net.selected_nodes();
    const auto w = g.weight_of(sel);
    t.row(e.name, stats.rounds, stats.messages_sent, w,
          clb::fmt_double(static_cast<double>(w) /
                          static_cast<double>(opt.weight)));
  }
  t.print(std::cout);

  std::cout << "\nThe paper's Theorems 1-2 say this trade-off is inherent: "
               "beating ratio 1/2 costs\nOmega(n/log^3 n) rounds, beating 3/4 "
               "costs Omega(n^2/log^3 n).\n";

  // Bonus: the other CONGEST primitives on the same graph.
  std::cout << "\nother primitives (same graph, diameter "
            << clb::graph::diameter(g) << "):\n";
  clb::Table prim({"primitive", "rounds", "result"});
  {
    clb::congest::NetworkConfig cfg;
    cfg.seed = seed;
    clb::congest::Network net(g, clb::congest::bfs_level_factory(0), cfg);
    const auto stats = net.run();
    std::int64_t max_level = 0;
    for (auto lv : net.outputs()) max_level = std::max(max_level, lv);
    prim.row("bfs-levels (root 0)", stats.rounds,
             "eccentricity " + std::to_string(max_level - 1));
  }
  {
    clb::congest::NetworkConfig cfg;
    cfg.seed = seed;
    clb::congest::Network net(g, clb::congest::leader_election_factory(), cfg);
    const auto stats = net.run();
    prim.row("leader-election", stats.rounds,
             "leader " + std::to_string(net.selected_nodes().at(0)));
  }
  {
    clb::congest::NetworkConfig cfg;
    cfg.seed = seed;
    cfg.bits_per_edge = clb::congest::aggregate_required_bits(n);
    clb::congest::Network net(g, clb::congest::aggregate_weight_factory(0),
                              cfg);
    const auto stats = net.run();
    prim.row("aggregate-total-weight", stats.rounds,
             "total " + std::to_string(net.program(0).output()));
  }
  {
    clb::congest::NetworkConfig cfg;
    cfg.seed = seed;
    clb::congest::Network net(g, clb::congest::random_coloring_factory(), cfg);
    const auto stats = net.run();
    std::int64_t max_color = 0;
    for (auto col : net.outputs()) max_color = std::max(max_color, col);
    prim.row("random-(deg+1)-coloring", stats.rounds,
             std::to_string(max_color) + " colors");
  }
  prim.print(std::cout);
  return 0;
}
