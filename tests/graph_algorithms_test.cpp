// BFS distances, connectivity, diameter.

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "support/expect.hpp"

namespace congestlb::graph {
namespace {

Graph path(std::size_t n) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

Graph cycle(std::size_t n) {
  Graph g = path(n);
  g.add_edge(0, n - 1);
  return g;
}

TEST(Bfs, DistancesOnPath) {
  const Graph g = path(5);
  const auto d = bfs_distances(g, 0);
  for (std::size_t v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, UnreachableIsInfinite) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kInfiniteDistance);
}

TEST(Bfs, SourceOutOfRange) {
  Graph g(2);
  EXPECT_THROW(bfs_distances(g, 5), InvariantError);
}

TEST(Connectivity, DetectsComponents) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  EXPECT_FALSE(is_connected(g));
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[3]);
}

TEST(Connectivity, EmptyGraphIsConnected) {
  EXPECT_TRUE(is_connected(Graph(0)));
}

TEST(Connectivity, SingletonIsConnected) {
  EXPECT_TRUE(is_connected(Graph(1)));
}

TEST(Diameter, PathAndCycle) {
  EXPECT_EQ(diameter(path(7)), 6u);
  EXPECT_EQ(diameter(cycle(8)), 4u);
  EXPECT_EQ(diameter(Graph(1)), 0u);
}

TEST(Diameter, CompleteGraphIsOne) {
  Graph g(5);
  std::vector<NodeId> all{0, 1, 2, 3, 4};
  g.add_clique(all);
  EXPECT_EQ(diameter(g), 1u);
}

TEST(Diameter, DisconnectedThrows) {
  Graph g(2);
  EXPECT_THROW(diameter(g), InvariantError);
}

}  // namespace
}  // namespace congestlb::graph
