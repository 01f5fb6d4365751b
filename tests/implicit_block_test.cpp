// ImplicitBlock arithmetic against brute force, Graph-level block
// recording, and the kernelizer on block-backed graphs.
//
// Every rank/select/degree identity the hybrid topology relies on is
// checked here exhaustively at small sizes: the block's closed-form
// answers must agree with the edge set its own for_each_edge enumerates.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/implicit.hpp"
#include "maxis/brute_force.hpp"
#include "maxis/kernel.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::graph {
namespace {

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

EdgeSet enumerate_edges(const ImplicitBlock& b) {
  EdgeSet edges;
  b.for_each_edge([&](NodeId u, NodeId v) {
    EXPECT_LT(u, v) << "for_each_edge must emit u < v";
    EXPECT_TRUE(edges.emplace(u, v).second) << "duplicate edge " << u << "," << v;
  });
  return edges;
}

/// Check every arithmetic accessor of `b` against the brute-force edge set,
/// over the node universe [0, n).
void check_block(const ImplicitBlock& b, NodeId n) {
  const EdgeSet edges = enumerate_edges(b);
  ASSERT_EQ(b.num_edges(), edges.size());

  // Sorted neighbor lists from the edge set.
  std::map<NodeId, std::vector<NodeId>> nbr;
  for (auto [u, v] : edges) {
    nbr[u].push_back(v);
    nbr[v].push_back(u);
  }
  for (auto& [v, list] : nbr) std::sort(list.begin(), list.end());

  std::uint64_t prefix = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto it = nbr.find(v);
    const std::vector<NodeId> empty;
    const std::vector<NodeId>& list = it == nbr.end() ? empty : it->second;

    ASSERT_EQ(b.degree_of(v), list.size()) << "degree_of(" << v << ")";
    ASSERT_EQ(b.degree_prefix(v), prefix) << "degree_prefix(" << v << ")";
    prefix += list.size();

    // is_edge both orders.
    for (NodeId u = 0; u < n; ++u) {
      const bool expect =
          edges.count({std::min(u, v), std::max(u, v)}) != 0 && u != v;
      ASSERT_EQ(b.is_edge(v, u), expect) << "is_edge(" << v << "," << u << ")";
    }

    // count_leq is the rank of x among v's neighbors.
    std::size_t rank = 0;
    for (NodeId x = 0; x < n; ++x) {
      while (rank < list.size() && list[rank] <= x) ++rank;
      ASSERT_EQ(b.count_leq(v, x), rank) << "count_leq(" << v << "," << x << ")";
    }

    // neighbor_after walks exactly the sorted list.
    std::vector<NodeId> walked;
    for (NodeId u = b.neighbor_after(v, kNoNode); u != kNoNode;
         u = b.neighbor_after(v, u)) {
      walked.push_back(u);
    }
    ASSERT_EQ(walked, list) << "neighbor_after chain of " << v;

    // select is the inverse of count_leq: the i-th smallest neighbor.
    for (std::size_t i = 0; i < list.size(); ++i) {
      ASSERT_EQ(b.select(v, i), list[i]) << "select(" << v << "," << i << ")";
    }

    std::vector<NodeId> visited;
    b.for_each_neighbor(v, [&](NodeId u) { visited.push_back(u); });
    ASSERT_EQ(visited, list) << "for_each_neighbor of " << v;
  }
  ASSERT_EQ(prefix, 2 * b.num_edges());
}

TEST(ImplicitBlock, CliqueArithmetic) {
  check_block(ImplicitBlock::clique(3, 9), 12);
  check_block(ImplicitBlock::clique(0, 2), 4);
}

TEST(ImplicitBlock, BicliqueArithmetic) {
  check_block(ImplicitBlock::biclique(0, 4, 4, 9), 11);
  // Sides in either id order.
  check_block(ImplicitBlock::biclique(6, 9, 1, 4), 11);
}

TEST(ImplicitBlock, AntiMatchingGridArithmetic) {
  // stride > row_len: gap ids between rows are non-members.
  check_block(ImplicitBlock::anti_matching_grid(2, 7, 4, 5), 32);
  // stride == row_len: rows are contiguous.
  check_block(ImplicitBlock::anti_matching_grid(0, 3, 3, 3), 10);
  // Minimal grid.
  check_block(ImplicitBlock::anti_matching_grid(1, 2, 2, 2), 6);
}

TEST(ImplicitBlock, GridMatchesPaperAntiMatching) {
  // rows = copies, columns = symbols: (i,r1) ~ (j,r2) iff i != j, r1 != r2.
  const std::size_t rows = 3, p = 4;
  const auto b = ImplicitBlock::anti_matching_grid(0, p, rows, p);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < rows; ++j) {
      for (std::size_t r1 = 0; r1 < p; ++r1) {
        for (std::size_t r2 = 0; r2 < p; ++r2) {
          const bool expect = i != j && r1 != r2;
          EXPECT_EQ(b.is_edge(i * p + r1, j * p + r2), expect);
        }
      }
    }
  }
  EXPECT_EQ(b.num_edges(), rows * (rows - 1) / 2 * p * (p - 1));
}

TEST(ImplicitBlock, FactoryValidation) {
  EXPECT_THROW(ImplicitBlock::clique(5, 5), InvariantError);
  EXPECT_THROW(ImplicitBlock::clique(5, 6), InvariantError);  // one node
  EXPECT_THROW(ImplicitBlock::biclique(0, 5, 3, 8), InvariantError);  // overlap
  EXPECT_THROW(ImplicitBlock::biclique(0, 0, 1, 2), InvariantError);  // empty
  EXPECT_THROW(ImplicitBlock::anti_matching_grid(0, 4, 1, 4), InvariantError);
  EXPECT_THROW(ImplicitBlock::anti_matching_grid(0, 4, 2, 1), InvariantError);
  EXPECT_THROW(ImplicitBlock::anti_matching_grid(0, 2, 2, 4), InvariantError);
}

// ---------------------------------------------------------------------------
// Graph-level block recording.

TEST(GraphImplicit, ThresholdGatesRecording) {
  Graph g(10);
  // Default: never implicit.
  std::vector<NodeId> clique{0, 1, 2, 3};
  g.add_clique(clique);
  EXPECT_FALSE(g.has_implicit_blocks());
  EXPECT_EQ(g.num_explicit_edges(), 6u);

  Graph h(10);
  h.set_implicit_block_threshold(1);
  h.add_clique(clique);
  EXPECT_TRUE(h.has_implicit_blocks());
  EXPECT_EQ(h.num_explicit_edges(), 0u);
  EXPECT_EQ(h.num_implicit_edges(), 6u);
  EXPECT_EQ(h.num_edges(), 6u);
  for (NodeId v : clique) {
    EXPECT_TRUE(h.in_implicit_block(v));
    EXPECT_EQ(h.degree(v), 3u);
    EXPECT_EQ(h.explicit_degree(v), 0u);
    EXPECT_EQ(h.implicit_degree(v), 3u);
  }
  EXPECT_TRUE(h.has_edge(0, 3));
  EXPECT_FALSE(h.has_edge(0, 4));
}

TEST(GraphImplicit, NonContiguousCliqueStaysExplicit) {
  Graph g(10);
  g.set_implicit_block_threshold(1);
  std::vector<NodeId> scattered{0, 2, 4, 6};
  g.add_clique(scattered);
  EXPECT_FALSE(g.has_implicit_blocks());
  EXPECT_EQ(g.num_explicit_edges(), 6u);
}

TEST(GraphImplicit, NeighborsThrowsOnBlockMembers) {
  Graph g(6);
  g.set_implicit_block_threshold(1);
  std::vector<NodeId> clique{1, 2, 3};
  g.add_clique(clique);
  EXPECT_THROW(g.neighbors(2), InvariantError);
  EXPECT_NO_THROW(g.neighbors(0));  // uncovered node is fine
  EXPECT_NO_THROW(g.explicit_neighbors(2));
  EXPECT_THROW(edge_list(g), InvariantError);
}

TEST(GraphImplicit, MaterializedMatchesExplicitTwin) {
  Graph blocked(20);
  blocked.set_implicit_block_threshold(1);
  Graph dense(20);  // threshold stays kNeverImplicit

  std::vector<NodeId> clique{0, 1, 2, 3, 4};
  std::vector<NodeId> a{5, 6, 7}, b{8, 9, 10};
  for (Graph* g : {&blocked, &dense}) {
    g->add_clique(clique);
    g->add_biclique(a, b);
    g->add_anti_matching_grid(11, 3, 3, 3);
    g->add_edge(0, 19);
    g->add_edge(12, 18);  // same grid column: not a block edge
  }
  ASSERT_TRUE(blocked.has_implicit_blocks());
  ASSERT_FALSE(dense.has_implicit_blocks());
  EXPECT_EQ(blocked.num_edges(), dense.num_edges());

  const Graph expanded = blocked.materialized();
  EXPECT_FALSE(expanded.has_implicit_blocks());
  EXPECT_EQ(edge_list(expanded), edge_list(dense));
  for (NodeId v = 0; v < 20; ++v) {
    EXPECT_EQ(blocked.degree(v), dense.degree(v)) << "node " << v;
  }
  EXPECT_EQ(blocked.max_degree(), dense.max_degree());

  // for_each_neighbor merges explicit + block edges in ascending order.
  for (NodeId v = 0; v < 20; ++v) {
    std::vector<NodeId> merged;
    blocked.for_each_neighbor(v, [&](NodeId u) { merged.push_back(u); });
    const auto want = dense.neighbors(v);
    EXPECT_EQ(merged, std::vector<NodeId>(want.begin(), want.end()))
        << "node " << v;
  }
}

TEST(GraphImplicit, IndependentSetRespectsBlocks) {
  Graph g(12);
  g.set_implicit_block_threshold(1);
  g.add_anti_matching_grid(0, 4, 3, 4);
  // Same column (r fixed), different rows: never adjacent in the grid.
  std::vector<NodeId> column{1, 5, 9};
  EXPECT_TRUE(g.is_independent_set(column));
  // Different rows and different columns: adjacent.
  std::vector<NodeId> diag{0, 5};
  EXPECT_FALSE(g.is_independent_set(diag));
}

// ---------------------------------------------------------------------------
// Kernelization on block-backed graphs: the rule scans must see implicit
// neighbors, and decisions must match the materialized twin exactly.

TEST(KernelImplicit, DecisionsMatchMaterializedTwin) {
  Rng rng(0xB10C5EEDULL);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 24;
    Graph blocked(n);
    blocked.set_implicit_block_threshold(1);
    blocked.add_clique(std::vector<NodeId>{0, 1, 2, 3});
    blocked.add_anti_matching_grid(4, 3, 3, 3);
    // Random explicit edges avoiding block-covered collisions (blocks are
    // on [0,13); explicit edges keep one endpoint in [13, n)).
    for (int e = 0; e < 12; ++e) {
      const NodeId u = static_cast<NodeId>(rng.range(0, static_cast<std::int64_t>(n) - 1));
      const NodeId v = static_cast<NodeId>(rng.range(13, static_cast<std::int64_t>(n) - 1));
      if (u == v) continue;
      blocked.add_edge(std::min(u, v), std::max(u, v));
    }
    for (NodeId v = 0; v < n; ++v) {
      blocked.set_weight(v, static_cast<Weight>(rng.range(1, 4)));
    }
    const Graph dense = blocked.materialized();

    ASSERT_EQ(maxis::kernelizable(blocked, {}), maxis::kernelizable(dense, {}))
        << "iter " << iter;

    const maxis::Kernel kb(blocked, {});
    const maxis::Kernel kd(dense, {});
    EXPECT_EQ(kb.offset(), kd.offset()) << "iter " << iter;
    ASSERT_EQ(kb.reduced().num_nodes(), kd.reduced().num_nodes())
        << "iter " << iter;
    for (std::size_t i = 0; i < kb.reduced().num_nodes(); ++i) {
      EXPECT_EQ(kb.original_id(i), kd.original_id(i)) << "iter " << iter;
    }

    // End to end: solver result through either representation agrees.
    const auto sb = maxis::solve_brute_force(blocked);
    const auto sd = maxis::solve_brute_force(dense);
    EXPECT_EQ(sb.weight, sd.weight) << "iter " << iter;
    EXPECT_EQ(sb.nodes, sd.nodes) << "iter " << iter;
  }
}

TEST(KernelImplicit, IrreducibleBlockedGadgetIsIdentity) {
  // A clique block alone: simplicial fires (all weights equal), so this IS
  // reducible — check the blocked and dense paths agree on that too.
  Graph g(5);
  g.set_implicit_block_threshold(1);
  g.add_clique(std::vector<NodeId>{0, 1, 2, 3, 4});
  EXPECT_EQ(maxis::kernelizable(g, {}),
            maxis::kernelizable(g.materialized(), {}));
}

}  // namespace
}  // namespace congestlb::graph
