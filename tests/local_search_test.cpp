// Local-search MaxIS improvement: dominance over the start, 2-swap
// optimality consequences, interaction with the exact solver.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "maxis/brute_force.hpp"
#include "maxis/local_search.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::maxis {
namespace {

class LocalSearchSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalSearchSweep, DominatesStartAndStaysBelowOpt) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    auto g = graph::gnp_random(rng, 4 + rng.below(16), 0.3, 7);
    // First-fit maximal independent set in index order.
    std::vector<NodeId> start;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      bool free = true;
      for (NodeId s : start) free = free && !g.has_edge(s, v);
      if (free) start.push_back(v);
    }
    const auto improved = improve_local_search(g, start);
    EXPECT_GE(improved.solution.weight, g.weight_of(start));
    EXPECT_LE(improved.solution.weight, solve_brute_force(g).weight);
    EXPECT_TRUE(g.is_independent_set(improved.solution.nodes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalSearchSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(LocalSearch, AddsFreeVertices) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  // Start from the empty IS: local search must at least fill in a maximal
  // set.
  const auto result = improve_local_search(g, {});
  EXPECT_GE(result.solution.nodes.size(), 3u);  // {0 or 1} + {2, 3}
  EXPECT_GT(result.moves_applied, 0u);
}

TEST(LocalSearch, OneTwoSwapFixesTheStarTrap) {
  // Star with center weight 3, five leaves weight 2: greedy-by-weight takes
  // the center (3); a (1,2)-swap upgrades to two leaves (4), further adds
  // reach all leaves (10).
  auto g = graph::star_graph(6);
  g.set_weight(0, 3);
  for (graph::NodeId v = 1; v < 6; ++v) g.set_weight(v, 2);
  const auto result = improve_local_search(g, {0});
  EXPECT_EQ(result.solution.weight, 10);
}

TEST(LocalSearch, OneOneSwapUpgradesWeight) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  g.set_weight(0, 1);
  g.set_weight(1, 5);
  const auto result = improve_local_search(g, {0});
  EXPECT_EQ(result.solution.nodes, (std::vector<NodeId>{1}));
}

TEST(LocalSearch, RejectsNonIndependentStart) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(improve_local_search(g, {0, 1}), InvariantError);
}

TEST(LocalSearch, MoveBudgetEnforced) {
  Rng rng(4);
  auto g = graph::gnp_random(rng, 40, 0.1, 5);
  EXPECT_THROW(improve_local_search(g, {}, /*max_moves=*/1), InvariantError);
}

TEST(LocalSearch, FixpointOfExactSolutionIsItself) {
  Rng rng(8);
  for (int trial = 0; trial < 8; ++trial) {
    auto g = graph::gnp_random(rng, 4 + rng.below(14), 0.35, 6);
    const auto opt = solve_brute_force(g);
    const auto result = improve_local_search(g, opt.nodes);
    EXPECT_EQ(result.solution.weight, opt.weight);
    EXPECT_EQ(result.moves_applied, 0u);
  }
}

}  // namespace
}  // namespace congestlb::maxis
