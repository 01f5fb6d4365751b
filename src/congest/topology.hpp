// Immutable flat topology snapshot for the CONGEST engine.
//
// Built once per graph and shared (read-only) by every phase of the
// simulator, including all worker threads of the parallel round executor.
// The layout is CSR: neighbors of v occupy neighbors[offsets[v] ..
// offsets[v+1]), sorted ascending. A *directed slot* is an index into that
// range — slot d = offsets[u] + s addresses the edge u -> neighbors[d].
//
// The precomputed reverse_slot map is what lets a receiver find a message
// in its sender's out-slots in O(1), with no binary search: for directed
// slot d = (v, i) with u = neighbors[d], reverse_slot[d] is the position of
// v in u's neighbor list, so the message u -> v sits at sender slot
// offsets[u] + reverse_slot[d].
//
// Hybrid topologies: alongside the explicit CSR a topology may carry a
// small table of ImplicitBlock descriptors (cliques, bicliques, the
// Figure 2 anti-matching grids) whose edges are never stored. degree()
// and neighbors_of() keep their *explicit* meaning, while total_degree(),
// neighbor_at(), and neighbor_after() select over the merged
// explicit+implicit neighbor set arithmetically. offsets and neighbors
// borrow the graph's own immutable CSR without copying; the topology holds
// a reference that keeps it alive.

#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/expect.hpp"

namespace congestlb::congest {

using graph::NodeId;

struct Topology {
  std::size_t n = 0;  ///< nodes
  std::size_t m = 0;  ///< explicit undirected edges; 2m directed slots
  std::uint64_t implicit_edges = 0;  ///< block-implied undirected edges

  std::span<const std::size_t> offsets;     ///< size n+1
  std::span<const NodeId> neighbors;        ///< size 2m, sorted per node
  std::vector<std::uint32_t> reverse_slot;  ///< size 2m, see file comment
  std::vector<graph::Weight> weights;       ///< size n

  std::vector<graph::ImplicitBlock> blocks;  ///< implicit-edge table

  bool has_implicit() const { return !blocks.empty(); }

  /// Explicit slot count of v (block-implied neighbors are not slots).
  std::size_t degree(NodeId v) const { return offsets[v + 1] - offsets[v]; }

  std::size_t implicit_degree(NodeId v) const {
    std::size_t d = 0;
    for (const auto& b : blocks) d += b.degree_of(v);
    return d;
  }

  /// Explicit + block-implied neighbors of v.
  std::size_t total_degree(NodeId v) const {
    return degree(v) + implicit_degree(v);
  }

  std::span<const NodeId> neighbors_of(NodeId v) const {
    return {neighbors.data() + offsets[v], degree(v)};
  }

  static constexpr std::size_t kNoSlot = ~static_cast<std::size_t>(0);

  /// Position of u in v's explicit neighbor list, or kNoSlot when {u,v} is
  /// not an explicit edge. O(log deg) — used only off the hot path
  /// (bits_on_edge).
  std::size_t slot_of(NodeId v, NodeId u) const;

  /// Explicit or block-implied adjacency test.
  bool has_edge(NodeId u, NodeId v) const;

  /// Select: the slot-th smallest neighbor of v in the merged set. Throws
  /// InvariantError when slot >= total_degree(v), with or without blocks;
  /// explicit-only topologies then take the O(1) array path. Hybrid cost:
  /// one O(|blocks|) pass gathers v's sources (its explicit row and the
  /// b_v blocks holding v) and brackets the answer with their O(1)
  /// per-block selects, then a binary search *inside that bracket* ranks
  /// over the gathered sources only — O(|blocks| + log(bracket) * (log deg
  /// + b_v)). Slot 0 needs no rank evaluation at all. Allocation-free.
  NodeId neighbor_at(NodeId v, std::size_t slot) const;

  /// Smallest merged-set neighbor of v with id > x, or graph::kNoNode.
  /// Pass graph::kNoNode as x to start iteration. This is the sequential
  /// neighbor cursor: O(log deg + |blocks|) per step, no per-node state.
  NodeId neighbor_after(NodeId v, NodeId x) const;

  /// Sum of total_degree(w) over w < v — the implicit-aware prefix cost
  /// edge-tiled sharding balances on. Strictly increasing in v.
  std::uint64_t prefix_cost(NodeId v) const {
    std::uint64_t c = offsets[v] + v;
    for (const auto& b : blocks) c += b.degree_prefix(v);
    return c;
  }

  /// Borrow g's CSR (zero-copy: the spans alias g.csr(), whose shared
  /// ownership the topology keeps) and copy its weights and implicit-block
  /// table; only reverse_slot is computed. The graph may be mutated or
  /// destroyed afterwards — a mutation replaces the graph's CSR, never
  /// edits the borrowed one.
  static std::shared_ptr<const Topology> build(const graph::Graph& g);

 private:
  std::shared_ptr<const graph::Csr> csr_;  ///< keeps the borrowed CSR alive
};

/// The one bounds check behind every merged-neighbor select
/// (Topology::neighbor_at, NeighborsView and Inbox indexing).
inline void expect_neighbor_slot(std::size_t slot, std::size_t degree) {
  CLB_EXPECT(slot < degree, "neighbor_at: slot >= total_degree(v)");
}

/// A node's merged (explicit + implicit) neighbor list, presented with the
/// same surface as a sorted std::span<const NodeId> — size(), operator[],
/// forward iteration — so NodeProgram code is representation-agnostic. Two
/// modes:
///  - dense: wraps the CSR row directly; operator[] and iteration are
///    pointer arithmetic, exactly the old span behavior;
///  - hybrid: backed by Topology rank/select arithmetic; operator[] is
///    Topology::neighbor_at (a bracketed select over v's own sources, no
///    rank evaluation for element 0) and iteration walks neighbor_after,
///    O(log deg + |blocks|) per step with no per-node state — a grid node
///    with millions of implied neighbors costs nothing until visited.
class NeighborsView {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const NodeId*;
    using reference = NodeId;

    const_iterator() = default;
    const_iterator(const NodeId* p) : ptr_(p) {}
    const_iterator(const Topology* topo, NodeId v, std::size_t idx, NodeId cur)
        : topo_(topo), v_(v), idx_(idx), cur_(cur) {}

    NodeId operator*() const { return topo_ == nullptr ? *ptr_ : cur_; }
    const_iterator& operator++() {
      if (topo_ == nullptr) {
        ++ptr_;
      } else {
        ++idx_;
        cur_ = topo_->neighbor_after(v_, cur_);
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }
    bool operator==(const const_iterator& o) const {
      return topo_ == nullptr ? ptr_ == o.ptr_ : idx_ == o.idx_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    const NodeId* ptr_ = nullptr;  ///< dense mode
    const Topology* topo_ = nullptr;  ///< hybrid mode; null in dense mode
    NodeId v_ = 0;
    std::size_t idx_ = 0;
    NodeId cur_ = 0;
  };

  NeighborsView() = default;
  NeighborsView(const NodeId* data, std::size_t count)
      : data_(data), count_(count) {}
  NeighborsView(const Topology* topo, NodeId v, std::size_t count)
      : topo_(topo), v_(v), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Throws InvariantError when i >= size(), in both modes.
  NodeId operator[](std::size_t i) const {
    if (topo_ != nullptr) return topo_->neighbor_at(v_, i);
    expect_neighbor_slot(i, count_);
    return data_[i];
  }
  NodeId front() const { return (*this)[0]; }
  NodeId back() const { return (*this)[count_ - 1]; }

  const_iterator begin() const {
    if (topo_ == nullptr) return const_iterator(data_);
    return const_iterator(topo_, v_, 0,
                          topo_->neighbor_after(v_, graph::kNoNode));
  }
  const_iterator end() const {
    if (topo_ == nullptr) return const_iterator(data_ + count_);
    return const_iterator(topo_, v_, count_, graph::kNoNode);
  }

 private:
  const NodeId* data_ = nullptr;  ///< dense mode
  const Topology* topo_ = nullptr;  ///< hybrid mode; null in dense mode
  NodeId v_ = 0;
  std::size_t count_ = 0;
};

/// Edge-tiled shard partition: `num_shards` contiguous [begin, end) node
/// ranges whose boundaries balance per-shard cost, where node v costs
/// total_degree(v) + 1 — directed message slots dominate a round, the +1
/// keeps degree-0 nodes from all landing in one shard. Unlike an
/// equal-node split, a high-degree gadget hub (the clique/biclique blocks
/// of the paper's F_x̄/G_x̄ constructions) gets a shard of its own instead
/// of skewing whichever shard its id falls into.
/// Implicit-block degrees count arithmetically, so the 10^10-edge scaled
/// families still balance on edges without touching them.
///
/// A pure function of (topology, num_shards) — never of thread scheduling —
/// so the parallel round executor built on it stays bit-identical to serial
/// for every thread count. Shards may be empty; ranges cover [0, n) in
/// order.
std::vector<std::pair<NodeId, NodeId>> edge_tiled_shards(
    const Topology& topo, std::size_t num_shards);

}  // namespace congestlb::congest
