// Vertex-weighted undirected simple graphs.
//
// This is the substrate every construction in the paper lives on. The gadget
// graphs of Sections 4 and 5 are weighted (node weights in {1, ell}), so
// weights are first-class. The explicit adjacency is one immutable CSR
// (offsets plus per-node sorted targets) held behind a shared_ptr: copies
// of a graph share it, and a mutation builds a replacement CSR instead of
// editing a shared one. A lower-bound instance is therefore a weight
// overlay on its fixed construction, and the CONGEST engine's Topology
// borrows the same arrays. Sorted rows make has_edge O(log deg) and let the
// independent-set verifier run in O(|I| log n) per member.
//
// Dense gadget structure (cliques, bicliques, the Figure 2 anti-matching
// grids) can additionally be stored *implicitly*: above a caller-set edge
// threshold, add_clique / add_biclique / add_anti_matching_grid record an
// ImplicitBlock descriptor instead of materializing O(n^2) adjacency, and
// degrees / adjacency tests / neighbor iteration combine the explicit CSR
// with block arithmetic. The default threshold is kNeverImplicit, so
// existing callers see byte-identical behavior unless they opt in.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/implicit.hpp"

namespace congestlb::graph {

using Weight = std::int64_t;

/// A list of undirected edges, each pair in any orientation.
using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/// Compressed-sparse-row explicit adjacency: targets[offsets[v] ..
/// offsets[v+1]) are v's explicit neighbors, sorted ascending. A Graph holds
/// one immutably behind a shared_ptr; the CONGEST engine's Topology aliases
/// the same arrays, and implicit blocks ride alongside, never inside.
struct Csr {
  std::vector<std::size_t> offsets;  ///< size num_nodes()+1
  std::vector<NodeId> targets;       ///< size 2*num_explicit_edges()

  std::span<const NodeId> row(NodeId v) const {
    return {targets.data() + offsets[v], offsets[v + 1] - offsets[v]};
  }
  bool operator==(const Csr&) const = default;
};

/// Counting-sort scatter of an undirected pair stream into CSR rows — the
/// one bulk path behind Graph::add_edges. The
/// caller counts each node's endpoint occurrences up front; pairs then
/// arrive in any number of chunks, and finish() sorts every row.
/// O(n + pairs) plus the per-row sorts.
class CsrScatter {
 public:
  /// `degree[v]`: how many of the pairs to be scattered have endpoint v.
  explicit CsrScatter(std::vector<std::uint32_t> degree);

  /// Write each pair {u, v} into rows u and v.
  void scatter(std::span<const std::pair<NodeId, NodeId>> pairs);

  /// The CSR with every row sorted ascending (duplicates kept). Requires
  /// exactly the counted pairs to have been scattered; the scatter is spent.
  Csr finish();

 private:
  Csr csr_;
  std::vector<std::uint32_t> cursor_;  ///< starts as the degree counts
};

/// An undirected simple graph with integer node weights and optional node
/// labels. Nodes are identified by dense indices [0, num_nodes()).
class Graph {
 public:
  /// A graph with n isolated nodes, each of weight `default_weight`.
  explicit Graph(std::size_t n = 0, Weight default_weight = 1);

  /// Copies share the CSR (O(n) for weights and labels, O(1) adjacency).
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  /// Moving leaves `other` an empty graph, so its CSR is never null.
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  std::size_t num_nodes() const { return weight_.size(); }

  /// Total edges, explicit + implicit-block. Fits std::size_t on 64-bit
  /// targets even for the 10^10-edge scaled families.
  std::size_t num_edges() const {
    return num_explicit_edges() + static_cast<std::size_t>(implicit_edges_);
  }

  std::size_t num_explicit_edges() const { return adj_->targets.size() / 2; }
  std::uint64_t num_implicit_edges() const { return implicit_edges_; }

  /// Append a new isolated node; returns its id. Rebuilds the CSR offsets:
  /// O(n + m).
  NodeId add_node(Weight w = 1, std::string label = {});

  /// Add edge {u,v}. Self-loops are rejected. Returns false if the edge was
  /// already present (the graph stays simple). Builds a replacement CSR, so
  /// each call is O(n + m): for small graphs and tests — anything larger
  /// collects its edges and calls add_edges once.
  bool add_edge(NodeId u, NodeId v);

  /// Batch edge insertion, the bulk path: validates the whole batch first
  /// (out-of-range endpoints and self-loops throw, leaving the graph
  /// unchanged), then merges it into a replacement CSR with one
  /// counting-sort scatter plus a sort and dedupe per row — O(n + m +
  /// b log b). Duplicate and already-present edges are silently skipped (as
  /// with add_edge). Returns the number of edges actually added.
  std::size_t add_edges(std::span<const std::pair<NodeId, NodeId>> edges);

  bool has_edge(NodeId u, NodeId v) const;

  /// Add all C(|nodes|,2) edges among `nodes` (ids must be distinct).
  /// When `nodes` is a contiguous ascending id range and the clique's edge
  /// count reaches the implicit threshold, an ImplicitBlock is recorded
  /// instead (precondition: none of those edges already exist).
  void add_clique(std::span<const NodeId> nodes);

  /// Deferred form: records the implicit block now, or appends the
  /// clique's pairs to `batch` for one later add_edges call — how a
  /// construction builds one CSR from many cliques.
  void add_clique(std::span<const NodeId> nodes, EdgeList& batch);

  /// Add all |a|*|b| edges between disjoint sets a and b. Records an
  /// ImplicitBlock above the threshold when both sides are contiguous
  /// ascending ranges.
  void add_biclique(std::span<const NodeId> a, std::span<const NodeId> b);

  /// Deferred form of add_biclique (see the deferred add_clique).
  void add_biclique(std::span<const NodeId> a, std::span<const NodeId> b,
                    EdgeList& batch);

  /// Add the Figure 2 anti-matching union over a rows x row_len grid: node
  /// (i, r) is base + i*stride + r, edge (i,r1)~(j,r2) iff i != j and
  /// r1 != r2. Records an ImplicitBlock above the threshold, otherwise
  /// materializes.
  void add_anti_matching_grid(NodeId base, std::size_t stride,
                              std::size_t rows, std::size_t row_len);

  /// Deferred form of add_anti_matching_grid (see the deferred add_clique).
  void add_anti_matching_grid(NodeId base, std::size_t stride,
                              std::size_t rows, std::size_t row_len,
                              EdgeList& batch);

  /// Minimum block edge count at which the builders above record an
  /// ImplicitBlock instead of materializing. Defaults to kNeverImplicit.
  static constexpr std::size_t kNeverImplicit =
      std::numeric_limits<std::size_t>::max();
  void set_implicit_block_threshold(std::size_t min_edges) {
    implicit_threshold_ = min_edges;
  }
  std::size_t implicit_block_threshold() const { return implicit_threshold_; }

  /// Record a block descriptor directly. Ranges must be in bounds; the
  /// block's edges must be disjoint from all explicit edges and from every
  /// other block (the arithmetic adds degrees linearly and cannot dedupe).
  void add_implicit_block(const ImplicitBlock& b);

  const std::vector<ImplicitBlock>& implicit_blocks() const { return blocks_; }
  bool has_implicit_blocks() const { return !blocks_.empty(); }
  bool in_implicit_block(NodeId v) const;

  /// Explicit neighbors of v, sorted ascending. Throws when v is covered by
  /// an implicit block: iterating only the explicit list would silently
  /// miss block neighbors — such callers must use for_each_neighbor (or
  /// explicit_neighbors when they really mean the explicit part). The span
  /// stays valid while this graph, or any copy sharing its CSR, is
  /// neither mutated nor destroyed.
  std::span<const NodeId> neighbors(NodeId v) const;

  /// The explicit adjacency list alone, block members included. Callers own
  /// the responsibility of also consulting implicit_blocks().
  std::span<const NodeId> explicit_neighbors(NodeId v) const {
    return neighbors_unchecked(v);
  }

  /// The explicit adjacency as one CSR, shared by every copy of this graph
  /// that has not since been mutated.
  const Csr& csr() const { return *adj_; }
  /// Shared ownership of csr(), for views that must outlive the graph.
  std::shared_ptr<const Csr> shared_csr() const { return adj_; }

  std::size_t explicit_degree(NodeId v) const {
    return neighbors_unchecked(v).size();
  }
  std::size_t implicit_degree(NodeId v) const;
  std::size_t degree(NodeId v) const {
    return explicit_degree(v) + implicit_degree(v);
  }
  std::size_t max_degree() const;

  /// Visit every neighbor of v (explicit and block-implied) in ascending id
  /// order. This is the one neighbor cursor all block-aware consumers
  /// share; on a block-free graph it degenerates to the plain sorted list.
  template <class Fn>
  void for_each_neighbor(NodeId v, Fn&& fn) const {
    const auto ex = neighbors_unchecked(v);
    if (blocks_.empty()) {
      for (NodeId u : ex) fn(u);
      return;
    }
    std::size_t i = 0;
    NodeId cur = kNoNode;  // kNoNode = "before the first neighbor"
    while (true) {
      NodeId next = i < ex.size() ? ex[i] : kNoNode;
      for (const auto& b : blocks_) {
        const NodeId c = b.neighbor_after(v, cur);
        if (c < next) next = c;
      }
      if (next == kNoNode) break;
      fn(next);
      cur = next;
      if (i < ex.size() && ex[i] == next) ++i;
    }
  }

  /// A copy with every implicit block expanded into explicit adjacency —
  /// the reference representation for the small-n bit-identity contracts.
  Graph materialized() const;

  Weight weight(NodeId v) const;
  void set_weight(NodeId v, Weight w);

  /// Sum of all node weights.
  Weight total_weight() const;

  /// Sum of weights of the given nodes (ids must be valid; duplicates count
  /// twice — callers pass sets).
  Weight weight_of(std::span<const NodeId> nodes) const;

  /// True iff no two nodes in `nodes` are adjacent. Duplicate ids are
  /// rejected (a multiset is not a set of vertices).
  bool is_independent_set(std::span<const NodeId> nodes) const;

  /// Induced subgraph on `nodes` (ids must be distinct). Node i of the result
  /// corresponds to nodes[i]; weights and labels are carried over. Requires
  /// a block-free graph (materialize first).
  Graph induced_subgraph(std::span<const NodeId> nodes) const;

  /// The complement graph (same nodes/weights, complemented edge set).
  /// Requires a block-free graph (materialize first).
  Graph complement() const;

  const std::string& label(NodeId v) const;
  void set_label(NodeId v, std::string label);

  /// Structural equality at the representation level: same node count,
  /// weights, explicit edge sets, and block tables. A materialized clique
  /// and its implicit twin compare unequal — use materialized() on both
  /// sides for edge-set equality.
  bool operator==(const Graph& other) const;

 private:
  void check_node(NodeId v) const;

  std::span<const NodeId> neighbors_unchecked(NodeId v) const {
    check_node(v);
    return adj_->row(v);
  }

  /// Replace the CSR by its row-wise sorted union with `batch` (rows
  /// sorted, duplicates allowed). Returns the number of edges added.
  std::size_t merge_rows(Csr batch);

  std::shared_ptr<const Csr> adj_;  ///< never null; never edited in place
  std::vector<Weight> weight_;
  /// Empty until the first set_label (unlabeled graphs copy for free), then
  /// one entry per node.
  std::vector<std::string> label_;

  std::vector<ImplicitBlock> blocks_;
  std::uint64_t implicit_edges_ = 0;
  std::size_t implicit_threshold_ = kNeverImplicit;
};

/// All *explicit* edges of g as (u,v) pairs with u < v, lexicographically
/// sorted. Throws on a graph with implicit blocks — callers there must
/// iterate blocks explicitly (or materialize) so 10^10-edge families are
/// never expanded by accident.
EdgeList edge_list(const Graph& g);

}  // namespace congestlb::graph
