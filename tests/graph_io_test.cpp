// Graph serialization: edge-list round trip (implicit blocks included),
// DOT output, malformed input.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "graph/io.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::graph {
namespace {

TEST(EdgeListIo, RoundTripsRandomGraphs) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(25);
    Graph g(n);
    for (NodeId v = 0; v < n; ++v) {
      if (rng.chance(0.3)) g.set_weight(v, static_cast<Weight>(1 + rng.below(9)));
    }
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.chance(0.25)) g.add_edge(u, v);
      }
    }
    std::stringstream ss;
    write_edge_list(ss, g);
    const Graph back = read_edge_list(ss);
    EXPECT_TRUE(back == g);
  }
}

TEST(EdgeListIo, IgnoresCommentsAndBlankLines) {
  std::istringstream in("# header\nn 3\n\ne 0 1\n# mid\nw 2 5\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.weight(2), 5);
}

TEST(EdgeListIo, RejectsMissingHeader) {
  std::istringstream in("e 0 1\n");
  EXPECT_THROW(read_edge_list(in), InvariantError);
}

TEST(EdgeListIo, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_THROW(read_edge_list(in), InvariantError);
}

TEST(EdgeListIo, RejectsBadEdge) {
  std::istringstream in("n 2\ne 0 7\n");
  EXPECT_THROW(read_edge_list(in), InvariantError);
}

TEST(EdgeListIo, RejectsSelfLoop) {
  std::istringstream in("n 2\ne 1 1\n");
  EXPECT_THROW(read_edge_list(in), InvariantError);
}

TEST(EdgeListIo, RejectsUnknownRecord) {
  std::istringstream in("n 2\nz 0 1\n");
  EXPECT_THROW(read_edge_list(in), InvariantError);
}

TEST(EdgeListIo, RejectsDuplicateHeader) {
  std::istringstream in("n 2\nn 3\n");
  EXPECT_THROW(read_edge_list(in), InvariantError);
}

TEST(Dot, ContainsNodesEdgesAndClusters) {
  Graph g(3);
  g.add_edge(0, 1);
  g.set_weight(2, 4);
  g.set_label(0, "v1");
  DotOptions opts;
  opts.cluster[0] = "A";
  opts.cluster[1] = "A";
  std::ostringstream os;
  write_dot(os, g, opts);
  const std::string s = os.str();
  EXPECT_NE(s.find("graph G {"), std::string::npos);
  EXPECT_NE(s.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(s.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(s.find("label=\"A\""), std::string::npos);
  EXPECT_NE(s.find("v1"), std::string::npos);
  EXPECT_NE(s.find("w=4"), std::string::npos);
}

TEST(Dot, WeightsHiddenOnRequest) {
  Graph g(1);
  g.set_weight(0, 9);
  DotOptions opts;
  opts.show_weights = false;
  std::ostringstream os;
  write_dot(os, g, opts);
  EXPECT_EQ(os.str().find("w=9"), std::string::npos);
}

TEST(EdgeListText, RoundTripsBlocks) {
  Graph g(30);
  g.set_implicit_block_threshold(1);
  g.add_clique(std::vector<NodeId>{0, 1, 2, 3});
  g.add_biclique(std::vector<NodeId>{4, 5}, std::vector<NodeId>{6, 7, 8});
  g.add_anti_matching_grid(9, 5, 3, 4);
  g.add_edge(24, 25);
  g.add_edge(0, 29);
  g.set_weight(2, 11);

  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(back, g);
  EXPECT_EQ(back.num_implicit_edges(), g.num_implicit_edges());
}

TEST(EdgeListText, RejectsMalformedBlockRecords) {
  {
    std::stringstream ss("n 10\nb clique 5 5\n");
    EXPECT_THROW(read_edge_list(ss), InvariantError);
  }
  {
    std::stringstream ss("n 10\nb grid 0 2 2 4\n");  // stride < row_len
    EXPECT_THROW(read_edge_list(ss), InvariantError);
  }
  {
    std::stringstream ss("n 4\nb clique 0 9\n");  // out of bounds
    EXPECT_THROW(read_edge_list(ss), InvariantError);
  }
}

/// The error read_edge_list throws on `text`, or "" when it parses.
std::string read_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    read_edge_list(ss);
  } catch (const InvariantError& e) {
    return e.what();
  }
  return {};
}

TEST(EdgeListText, RejectsBlocksThatShareAnEdge) {
  // Two copies of one clique: node 0 would count degree 4 for 2 neighbours.
  EXPECT_NE(read_error("n 4\nb clique 0 3\nb clique 0 3\n")
                .find("overlaps another block or an explicit edge at line 3"),
            std::string::npos);
  // Overlapping blocks of different kinds.
  EXPECT_NE(read_error("n 6\nb biclique 0 2 2 4\nb clique 1 3\n").find(
                "at line 3"),
            std::string::npos);
}

TEST(EdgeListText, RejectsExplicitCopiesOfBlockEdges) {
  // {0, 1} is both a block edge and an explicit one: 5 edges for 4.
  EXPECT_NE(read_error("n 4\nb clique 0 3\ne 0 1\ne 2 3\n")
                .find("overlaps another block or an explicit edge at line 3"),
            std::string::npos);
  // The explicit copy may come first; the block record is then the later.
  EXPECT_NE(read_error("n 4\ne 2 3\ne 1 2\nb clique 0 3\n").find(
                "at line 4"),
            std::string::npos);
  // Disjoint blocks and edges still parse.
  EXPECT_EQ(read_error("n 6\nb clique 0 3\nb clique 3 6\ne 2 3\n"), "");
}

}  // namespace
}  // namespace congestlb::graph
