// Tests for the weighted graph substrate: construction, adjacency,
// weights, set operations, subgraphs, complement, the bulk add_edges path,
// and copy-on-write sharing of the CSR.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.total_weight(), 0);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, DefaultWeightsAreOne) {
  Graph g(5);
  EXPECT_EQ(g.total_weight(), 5);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.weight(v), 1);
}

TEST(Graph, CustomDefaultWeight) {
  Graph g(4, 3);
  EXPECT_EQ(g.total_weight(), 12);
}

TEST(Graph, AddNodeReturnsDenseIds) {
  Graph g(2);
  EXPECT_EQ(g.add_node(7, "x"), 2u);
  EXPECT_EQ(g.add_node(), 3u);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.weight(2), 7);
  EXPECT_EQ(g.label(2), "x");
}

TEST(Graph, AddEdgeIsSymmetricAndDeduplicated) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));  // duplicate, reversed
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, SelfLoopRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), InvariantError);
}

TEST(Graph, OutOfRangeRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), InvariantError);
  EXPECT_THROW(g.weight(5), InvariantError);
  EXPECT_THROW(g.neighbors(2), InvariantError);
  EXPECT_THROW(g.set_weight(9, 1), InvariantError);
}

TEST(Graph, NeighborsSorted) {
  Graph g(6);
  g.add_edge(3, 5);
  g.add_edge(3, 0);
  g.add_edge(3, 4);
  g.add_edge(3, 1);
  const auto& nb = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 4u);
  EXPECT_EQ(g.degree(3), 4u);
  EXPECT_EQ(g.max_degree(), 4u);
}

TEST(Graph, AddClique) {
  Graph g(5);
  std::vector<NodeId> c{0, 2, 4};
  g.add_clique(c);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_TRUE(g.has_edge(2, 4));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, AddBiclique) {
  Graph g(5);
  std::vector<NodeId> a{0, 1}, b{2, 3, 4};
  g.add_biclique(a, b);
  EXPECT_EQ(g.num_edges(), 6u);
  for (NodeId u : a) {
    for (NodeId v : b) EXPECT_TRUE(g.has_edge(u, v));
  }
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Graph, WeightOfSums) {
  Graph g(4);
  g.set_weight(1, 10);
  g.set_weight(3, 5);
  std::vector<NodeId> s{1, 3};
  EXPECT_EQ(g.weight_of(s), 15);
  EXPECT_EQ(g.total_weight(), 17);
}

TEST(Graph, IndependentSetDetection) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  EXPECT_TRUE(g.is_independent_set(std::vector<NodeId>{0, 2, 3}));
  EXPECT_TRUE(g.is_independent_set(std::vector<NodeId>{}));
  EXPECT_TRUE(g.is_independent_set(std::vector<NodeId>{4}));
  EXPECT_FALSE(g.is_independent_set(std::vector<NodeId>{0, 1}));
  EXPECT_FALSE(g.is_independent_set(std::vector<NodeId>{0, 2, 4, 3}));
}

TEST(Graph, IndependentSetRejectsDuplicates) {
  Graph g(3);
  EXPECT_THROW(g.is_independent_set(std::vector<NodeId>{1, 1}),
               InvariantError);
}

TEST(Graph, InducedSubgraphKeepsStructure) {
  Graph g(6);
  g.set_weight(2, 9);
  g.set_label(2, "two");
  g.add_edge(0, 2);
  g.add_edge(2, 4);
  g.add_edge(4, 5);
  g.add_edge(1, 3);
  const std::vector<NodeId> keep{0, 2, 4};
  Graph sub = g.induced_subgraph(keep);
  ASSERT_EQ(sub.num_nodes(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);
  EXPECT_TRUE(sub.has_edge(0, 1));  // 0-2
  EXPECT_TRUE(sub.has_edge(1, 2));  // 2-4
  EXPECT_FALSE(sub.has_edge(0, 2));
  EXPECT_EQ(sub.weight(1), 9);
  EXPECT_EQ(sub.label(1), "two");
}

TEST(Graph, InducedSubgraphRespectsOrder) {
  Graph g(4);
  g.add_edge(0, 3);
  Graph sub = g.induced_subgraph(std::vector<NodeId>{3, 0});
  EXPECT_TRUE(sub.has_edge(0, 1));
}

TEST(Graph, InducedSubgraphRejectsDuplicates) {
  Graph g(3);
  EXPECT_THROW(g.induced_subgraph(std::vector<NodeId>{0, 0}), InvariantError);
}

TEST(Graph, ComplementInvolution) {
  Rng rng(5);
  Graph g(12);
  for (NodeId u = 0; u < 12; ++u) {
    g.set_weight(u, static_cast<Weight>(1 + rng.below(5)));
    for (NodeId v = u + 1; v < 12; ++v) {
      if (rng.chance(0.4)) g.add_edge(u, v);
    }
  }
  const Graph cc = g.complement().complement();
  EXPECT_TRUE(cc == g);
}

TEST(Graph, ComplementEdgeCount) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const Graph c = g.complement();
  EXPECT_EQ(c.num_edges(), 5u * 4 / 2 - 2);
  EXPECT_FALSE(c.has_edge(0, 1));
  EXPECT_TRUE(c.has_edge(0, 2));
}

TEST(Graph, EqualityIgnoresLabels) {
  Graph a(2), b(2);
  a.add_edge(0, 1);
  b.add_edge(0, 1);
  a.set_label(0, "foo");
  EXPECT_TRUE(a == b);
  b.set_weight(0, 2);
  EXPECT_FALSE(a == b);
}

TEST(Graph, EdgeListSortedAndComplete) {
  Graph g(5);
  g.add_edge(4, 0);
  g.add_edge(2, 1);
  g.add_edge(0, 1);
  const auto edges = edge_list(g);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  for (auto [u, v] : edges) EXPECT_LT(u, v);
}

// ------------------------------------------------ bulk path and sharing --

/// A graph equal to g but built on its own fresh adjacency storage, so it
/// cannot observe an in-place edit of g's.
Graph deep_copy(const Graph& g) {
  Graph copy(g.num_nodes());
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    copy.set_weight(u, g.weight(u));
    for (NodeId v : g.explicit_neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  for (auto [u, v] : edges) copy.add_edge(u, v);
  for (const auto& b : g.implicit_blocks()) copy.add_implicit_block(b);
  return copy;
}

TEST(Graph, AddEdgesThrowLeavesGraphUnchanged) {
  Graph g(4);
  g.add_edge(0, 3);
  const Graph before = deep_copy(g);

  const std::vector<std::pair<NodeId, NodeId>> self_loop = {
      {2, 1}, {0, 1}, {3, 3}};
  EXPECT_THROW(g.add_edges(self_loop), InvariantError);
  EXPECT_TRUE(g == before);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);

  const std::vector<std::pair<NodeId, NodeId>> out_of_range = {
      {2, 1}, {0, 1}, {1, 4}};
  EXPECT_THROW(g.add_edges(out_of_range), InvariantError);
  EXPECT_TRUE(g == before);
  EXPECT_EQ(g.degree(1), 0u);
}

TEST(Graph, AddEdgesMatchesPerEdgeReference) {
  // Repeated pairs, both orientations and already-present edges: the batch
  // must land on exactly the graph (and count) that one add_edge per pair
  // produces.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const std::size_t n = 2 + rng.below(30);
    const auto node = [&] { return static_cast<NodeId>(rng.below(n)); };
    Graph g(n);
    std::vector<std::pair<NodeId, NodeId>> present;
    for (std::size_t e = rng.below(2 * n); e > 0; --e) {
      const NodeId u = node(), v = node();
      if (u != v && g.add_edge(u, v)) present.emplace_back(u, v);
    }
    std::vector<std::pair<NodeId, NodeId>> batch;
    for (std::size_t e = rng.below(4 * n); e > 0; --e) {
      if (!batch.empty() && rng.chance(0.25)) {
        const auto [u, v] = batch[rng.below(batch.size())];
        batch.emplace_back(v, u);
      } else if (!present.empty() && rng.chance(0.2)) {
        batch.push_back(present[rng.below(present.size())]);
      } else {
        const NodeId u = node(), v = node();
        if (u != v) batch.emplace_back(u, v);
      }
    }

    Graph reference = deep_copy(g);
    std::size_t want = 0;
    for (auto [u, v] : batch) want += reference.add_edge(u, v) ? 1 : 0;
    EXPECT_EQ(g.add_edges(batch), want) << "seed " << seed;
    EXPECT_TRUE(g == reference) << "seed " << seed;
    for (NodeId v = 0; v < n; ++v) {
      const auto nb = g.neighbors(v);
      EXPECT_TRUE(std::adjacent_find(nb.begin(), nb.end(),
                                     std::greater_equal<>()) == nb.end())
          << "row " << v << " not strictly ascending, seed " << seed;
    }
    EXPECT_EQ(edge_list(g).size(), g.num_edges());
  }
}

TEST(Graph, CopiesShareAdjacency) {
  Graph g(5);
  g.add_edges(std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}, {3, 4}});
  const Graph copy = g;
  EXPECT_EQ(&copy.csr(), &g.csr());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(copy.explicit_neighbors(v).data(),
              g.explicit_neighbors(v).data());
  }
}

TEST(Graph, MovedFromGraphIsEmpty) {
  Graph g(4);
  g.add_edge(0, 3);
  g.set_implicit_block_threshold(1);
  g.add_clique(std::vector<NodeId>{0, 1, 2});
  const Graph moved = std::move(g);
  EXPECT_EQ(moved.num_edges(), 4u);
  EXPECT_EQ(g.num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.csr().offsets.size(), 1u);
  g = Graph(2);
  EXPECT_TRUE(g.add_edge(0, 1));
}

TEST(Graph, MutatingACopyLeavesTheOriginal) {
  Graph g(8);
  g.add_edges(
      std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}, {2, 3}, {0, 4}});
  g.set_weight(2, 5);
  const Graph snapshot = deep_copy(g);
  const auto first_row = g.explicit_neighbors(0);

  const std::vector<std::function<void(Graph&)>> mutations = {
      [](Graph& c) { c.add_edge(0, 7); },
      [](Graph& c) {
        c.add_edges(std::vector<std::pair<NodeId, NodeId>>{{1, 6}, {0, 2}});
      },
      [](Graph& c) { c.add_clique(std::vector<NodeId>{4, 5, 6}); },
      [](Graph& c) { c.add_implicit_block(ImplicitBlock::clique(5, 8)); },
      [](Graph& c) { c.set_weight(0, 9); },
  };
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    Graph copy = g;
    mutations[i](copy);
    EXPECT_FALSE(copy == snapshot) << "mutation " << i << " had no effect";
    EXPECT_TRUE(g == snapshot) << "mutation " << i << " reached the original";
    EXPECT_EQ(g.explicit_neighbors(0).data(), first_row.data());
  }
  EXPECT_EQ(std::vector<NodeId>(first_row.begin(), first_row.end()),
            (std::vector<NodeId>{1, 4}));
}

// Property sweep: random graphs keep degree/edge-count invariants.
class GraphRandomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphRandomProperty, HandshakeLemmaAndAdjacencyConsistency) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.below(40);
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(0.3)) g.add_edge(u, v);
    }
  }
  std::size_t degree_sum = 0;
  for (NodeId v = 0; v < n; ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId nb : g.neighbors(v)) {
      EXPECT_TRUE(g.has_edge(nb, v));
    }
  }
  EXPECT_EQ(edge_list(g).size(), g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphRandomProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace congestlb::graph
