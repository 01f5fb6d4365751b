// Streaming CSR construction, the binary topology snapshot, and the
// block-aware edge-list text format.
//
// The contract: every path that round-trips a topology — streamed chunks,
// spill files, mmapped snapshots, text — must reproduce exactly what the
// in-memory builders produce, blocks included.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "congest/topology.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::graph {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* tag) {
  return (fs::temp_directory_path() / (std::string("clb_io_test_") + tag))
      .string();
}

Graph random_graph(std::uint64_t seed, std::size_t n, std::size_t edges) {
  Graph g(n);
  Rng rng(seed);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<NodeId>(
        rng.range(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<NodeId>(
        rng.range(0, static_cast<std::int64_t>(n) - 1));
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(u, v);
  }
  return g;
}

// The graph's own CSR (built by add_edge's merge path) is the reference.
TEST(StreamingCsrBuilder, MatchesExportCsr) {
  const Graph g = random_graph(42, 300, 900);
  const Csr& want = g.csr();

  // Tiny chunks force many flushes.
  StreamingCsrBuilder::Options opts;
  opts.chunk_edges = 64;
  StreamingCsrBuilder b(g.num_nodes(), opts);
  for (auto [u, v] : edge_list(g)) b.add_edge(u, v);
  EXPECT_EQ(b.num_edges(), g.num_edges());
  const Csr got = b.finish();
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.targets, want.targets);
}

TEST(StreamingCsrBuilder, SpillFileMatchesInMemory) {
  const Graph g = random_graph(7, 200, 600);
  const Csr& want = g.csr();

  StreamingCsrBuilder::Options opts;
  opts.chunk_edges = 32;
  opts.spill_path = temp_path("spill");
  {
    StreamingCsrBuilder b(g.num_nodes(), opts);
    for (auto [u, v] : edge_list(g)) b.add_edge(u, v);
    const Csr got = b.finish();
    EXPECT_EQ(got.offsets, want.offsets);
    EXPECT_EQ(got.targets, want.targets);
  }
  // finish() removes its scratch file.
  EXPECT_FALSE(fs::exists(opts.spill_path));
}

TEST(StreamingCsrBuilder, DuplicateEdgeThrows) {
  StreamingCsrBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // same undirected edge, other orientation
  EXPECT_THROW(b.finish(), InvariantError);
}

TEST(StreamingCsrBuilder, RejectsBadEndpoints) {
  StreamingCsrBuilder b(4);
  EXPECT_THROW(b.add_edge(1, 1), InvariantError);
  EXPECT_THROW(b.add_edge(0, 4), InvariantError);
}

TEST(TopologySnapshot, RoundTripsBlockedTopology) {
  Graph g(40);
  g.set_implicit_block_threshold(1);
  g.add_clique(std::vector<NodeId>{0, 1, 2, 3, 4});
  g.add_anti_matching_grid(5, 4, 3, 4);
  for (NodeId v = 17; v + 1 < 40; ++v) g.add_edge(v, v + 1);
  g.add_edge(0, 39);
  g.set_weight(3, 7);
  g.set_weight(20, 5);

  const auto built = congest::Topology::build(g);
  MappedCsr snap;
  snap.n = built->n;
  snap.m = built->m;
  snap.implicit_edges = built->implicit_edges;
  snap.offsets = built->offsets;
  snap.targets = built->neighbors;
  snap.reverse_slot = built->reverse_slot;
  snap.weights = built->weights;
  snap.blocks = built->blocks;

  const std::string path = temp_path("snapshot");
  write_topology_snapshot(path, snap);
  const MappedCsr mapped = map_topology_snapshot(path);
  const auto restored = congest::Topology::from_snapshot(mapped);

  ASSERT_EQ(restored->n, built->n);
  ASSERT_EQ(restored->m, built->m);
  ASSERT_EQ(restored->implicit_edges, built->implicit_edges);
  ASSERT_EQ(restored->blocks, built->blocks);
  EXPECT_TRUE(std::equal(restored->offsets.begin(), restored->offsets.end(),
                         built->offsets.begin(), built->offsets.end()));
  EXPECT_TRUE(std::equal(restored->neighbors.begin(),
                         restored->neighbors.end(),
                         built->neighbors.begin(), built->neighbors.end()));
  EXPECT_TRUE(std::equal(restored->reverse_slot.begin(),
                         restored->reverse_slot.end(),
                         built->reverse_slot.begin(),
                         built->reverse_slot.end()));
  EXPECT_TRUE(std::equal(restored->weights.begin(), restored->weights.end(),
                         built->weights.begin(), built->weights.end()));

  // Query-level equivalence, explicit and implicit.
  for (NodeId v = 0; v < built->n; ++v) {
    ASSERT_EQ(restored->total_degree(v), built->total_degree(v));
    for (NodeId u = 0; u < built->n; ++u) {
      ASSERT_EQ(restored->has_edge(v, u), built->has_edge(v, u));
    }
    for (std::size_t s = 0; s < built->total_degree(v); ++s) {
      ASSERT_EQ(restored->neighbor_at(v, s), built->neighbor_at(v, s));
    }
  }
  fs::remove(path);
}

TEST(TopologySnapshot, RejectsTruncatedFile) {
  Graph g(8);
  for (NodeId v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1);
  const auto built = congest::Topology::build(g);
  MappedCsr snap;
  snap.n = built->n;
  snap.m = built->m;
  snap.offsets = built->offsets;
  snap.targets = built->neighbors;
  snap.reverse_slot = built->reverse_slot;
  snap.weights = built->weights;

  const std::string path = temp_path("truncated");
  write_topology_snapshot(path, snap);
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_THROW(map_topology_snapshot(path), InvariantError);
  fs::remove(path);
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

}  // namespace
}  // namespace congestlb::graph
