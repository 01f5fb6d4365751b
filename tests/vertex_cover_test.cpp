// Minimum weighted vertex cover: complement duality with MaxIS and
// verifier rejections.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "maxis/branch_and_bound.hpp"
#include "maxis/brute_force.hpp"
#include "maxis/vertex_cover.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::maxis {
namespace {

TEST(VertexCover, IsVertexCoverBasics) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(is_vertex_cover(g, std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(is_vertex_cover(g, std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_FALSE(is_vertex_cover(g, std::vector<NodeId>{0, 3}));  // misses 1-2
  EXPECT_FALSE(is_vertex_cover(g, std::vector<NodeId>{}));
  EXPECT_TRUE(is_vertex_cover(graph::Graph(3), std::vector<NodeId>{}));
  EXPECT_THROW(is_vertex_cover(g, std::vector<NodeId>{9}), InvariantError);
}

TEST(VertexCover, BlockedGraphMatchesMaterializedTwin) {
  // A clique block and a grid block plus explicit edges: the cover checks
  // and the exact solve must not list the block edges, and must agree with
  // the materialized twin.
  graph::Graph blocked(14);
  blocked.set_implicit_block_threshold(1);
  blocked.add_clique(std::vector<NodeId>{0, 1, 2, 3});
  blocked.add_anti_matching_grid(4, 3, 3, 3);  // nodes [4, 13)
  blocked.add_edges(std::vector<std::pair<NodeId, NodeId>>{
      {3, 4}, {4, 7}, {12, 13}, {0, 13}});
  for (NodeId v = 0; v < 14; ++v) blocked.set_weight(v, 1 + v % 4);
  ASSERT_TRUE(blocked.has_implicit_blocks());
  const graph::Graph dense = blocked.materialized();

  const VcSolution got = solve_vertex_cover_exact(blocked);
  const VcSolution want = solve_vertex_cover_exact(dense);
  EXPECT_EQ(got.weight, want.weight);
  EXPECT_EQ(got.nodes, want.nodes);
  for (const std::vector<NodeId>& cover :
       {got.nodes, std::vector<NodeId>{1, 2, 3, 5, 6, 8, 9, 13},
        std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}) {
    EXPECT_EQ(is_vertex_cover(blocked, cover), is_vertex_cover(dense, cover));
  }
  // Weights are positive, so an optimal cover is minimal: dropping any one
  // of its nodes leaves an edge, block or explicit, uncovered.
  for (std::size_t i = 0; i < got.nodes.size(); ++i) {
    std::vector<NodeId> less = got.nodes;
    less.erase(less.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(is_vertex_cover(blocked, less)) << "without " << got.nodes[i];
    EXPECT_FALSE(is_vertex_cover(dense, less)) << "without " << got.nodes[i];
  }
}

TEST(VertexCover, CheckedCoverValidatesAndDeduplicates) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.set_weight(1, 5);
  const auto sol = checked_cover(g, {1, 1});
  EXPECT_EQ(sol.nodes, (std::vector<NodeId>{1}));
  EXPECT_EQ(sol.weight, 5);
  EXPECT_THROW(checked_cover(g, {2}), InvariantError);
}

TEST(VertexCover, ComplementOfIndependentSet) {
  graph::Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto vc = cover_from_independent_set(g, std::vector<NodeId>{0, 2, 4});
  EXPECT_EQ(vc.nodes, (std::vector<NodeId>{1, 3}));
  EXPECT_THROW(
      cover_from_independent_set(g, std::vector<NodeId>{0, 1}),
      InvariantError);
}

class VcDuality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VcDuality, ExactVcEqualsTotalMinusMaxIs) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    auto g = graph::gnp_random(rng, 2 + rng.below(16), 0.35, 6);
    const auto vc = solve_vertex_cover_exact(g);
    const auto is = solve_brute_force(g);
    EXPECT_EQ(vc.weight, g.total_weight() - is.weight);
    EXPECT_TRUE(is_vertex_cover(g, vc.nodes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VcDuality, ::testing::Values(71, 72, 73, 74));

TEST(VertexCover, EdgelessGraphNeedsNothing) {
  graph::Graph g(6, 3);
  const VcSolution vc = solve_vertex_cover_exact(g);
  EXPECT_EQ(vc.weight, 0);
  EXPECT_EQ(vc.nodes.size(), 0u);
}

}  // namespace
}  // namespace congestlb::maxis
