// Graph serialization: a plain edge-list text format (round-trippable,
// implicit-block aware) and Graphviz DOT output used to regenerate the
// paper's Figures 1-6 — plus the scale machinery for million-node gadgets:
// a chunked streaming CSR builder whose resident memory is O(n + chunk)
// and a binary topology snapshot that can be memory-mapped back in with
// zero copies.

#pragma once

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace congestlb::graph {

/// Write as text:
///   line 1: "n <num_nodes>"
///   then    "w <id> <weight>"      for every non-unit weight
///   then    "b clique <begin> <end>"                      per implicit block
///           "b biclique <a0> <a1> <b0> <b1>"
///           "b grid <base> <stride> <rows> <row_len>"
///   then    "e <u> <v>"            for every explicit edge (u < v)
void write_edge_list(std::ostream& os, const Graph& g);

/// Parse the format produced by write_edge_list. Throws InvariantError on
/// malformed input.
Graph read_edge_list(std::istream& is);

/// Options for DOT rendering.
struct DotOptions {
  /// Cluster name per node (nodes with equal values are grouped into a DOT
  /// subgraph cluster); empty string means no cluster.
  std::map<NodeId, std::string> cluster;
  /// Show node weights in the label.
  bool show_weights = true;
  std::string graph_name = "G";
};

/// Graphviz DOT output (undirected). Node labels come from Graph::label when
/// set, otherwise the node id.
void write_dot(std::ostream& os, const Graph& g, const DotOptions& opts = {});

/// Chunked streaming CSR construction. Edges arrive one at a time (in any
/// order, each undirected edge exactly once) and are buffered in
/// fixed-size chunks — optionally spilled to a scratch file — so peak
/// resident memory during the build is O(n + chunk_edges) plus the final
/// CSR itself. finish() runs the CsrScatter that Graph::add_edges also
/// uses over the buffered stream, then rejects duplicate edges.
class StreamingCsrBuilder {
 public:
  struct Options {
    std::size_t chunk_edges = std::size_t{1} << 20;  ///< pairs per chunk
    /// When set, full chunks are appended to this scratch file instead of
    /// being kept in memory; finish() streams them back and removes it.
    std::string spill_path;
  };

  explicit StreamingCsrBuilder(std::size_t n);
  StreamingCsrBuilder(std::size_t n, Options opts);
  ~StreamingCsrBuilder();

  StreamingCsrBuilder(const StreamingCsrBuilder&) = delete;
  StreamingCsrBuilder& operator=(const StreamingCsrBuilder&) = delete;

  /// Record undirected edge {u, v}. u != v, both < n, no duplicates across
  /// the whole stream (finish() verifies and throws).
  void add_edge(NodeId u, NodeId v);

  std::size_t num_edges() const { return num_edges_; }

  /// Build the CSR (targets sorted ascending per row). The builder is spent
  /// afterwards.
  Csr finish();

 private:
  void flush_chunk();

  std::size_t n_;
  Options opts_;
  std::vector<std::uint32_t> degree_;  ///< per-node degree counts
  std::vector<std::pair<NodeId, NodeId>> chunk_;
  std::vector<std::vector<std::pair<NodeId, NodeId>>> spilled_chunks_;
  std::FILE* spill_ = nullptr;
  std::size_t num_edges_ = 0;
  bool finished_ = false;
};

/// A CSR topology image, either owned (keepalive holds a heap buffer) or
/// borrowed from a memory-mapped snapshot file (keepalive holds the
/// mapping). The spans stay valid for the lifetime of `keepalive`. This is
/// the interchange type between graph-level snapshot IO and
/// congest::Topology::from_snapshot.
struct MappedCsr {
  std::size_t n = 0;
  std::size_t m = 0;                 ///< explicit undirected edges
  std::uint64_t implicit_edges = 0;  ///< block-implied undirected edges
  std::span<const std::size_t> offsets;         ///< size n+1
  std::span<const NodeId> targets;              ///< size 2m
  std::span<const std::uint32_t> reverse_slot;  ///< size 2m
  std::span<const Weight> weights;              ///< size n
  std::vector<ImplicitBlock> blocks;
  std::shared_ptr<const void> keepalive;
};

/// Serialize a topology image to `path` (native-endian binary; a
/// machine-local cache format, not an interchange format). Arrays are
/// 64-byte aligned in the file so the mapped-back spans are cache-line
/// aligned.
void write_topology_snapshot(const std::string& path, const MappedCsr& snap);

/// Map a snapshot written by write_topology_snapshot. Uses mmap(2) where
/// available (resident cost is then demand-paged, not anticipatory), with
/// a plain heap read as fallback. Throws InvariantError on a malformed or
/// truncated file.
MappedCsr map_topology_snapshot(const std::string& path);

}  // namespace congestlb::graph
