// Implicit (symbolic) edge blocks: dense gadget structure that is never
// materialized.
//
// The paper's lower-bound families are dominated by three dense shapes —
// the clique A and the code cliques C_h of the base gadget H (Section 4),
// and the inter-copy "all edges except a perfect matching" bicliques that
// form the communication cut of G_x̄/F_x̄ (Figure 2). All three are
// arithmetic: given a node id, its neighbor set inside the block is a
// closed-form function of a handful of range parameters. An ImplicitBlock
// stores those parameters; degrees, rank/select over the neighbor set,
// adjacency tests, and prefix costs for edge-tiled sharding are all O(1),
// so a graph with 10^10 block-implied edges costs a few dozen bytes per
// block.
//
// The anti-matching family deserves a note: a naive encoding would store
// one biclique-minus-matching descriptor per copy pair (i, j) — C(t, 2)
// descriptors per code position, quadratic in the number of copies t. The
// kAntiMatchingGrid kind instead covers the *whole* t x p grid of one code
// position h across every copy with a single descriptor: node (i, r) is
// base + i*stride + r, and (i, r1) ~ (j, r2) iff i != j and r1 != r2.
// That is exactly the union over all pairs i < j of the Figure 2
// anti-matchings, so the block table stays O(ell + alpha) however large t
// grows.
//
// Contract: blocks are edge-disjoint from each other and from the host
// graph's explicit edges. The builders in graph::Graph maintain this; the
// arithmetic here assumes it (degrees and counts add linearly).

#pragma once

#include <cstdint>
#include <limits>
#include <utility>

#include "support/expect.hpp"

namespace congestlb::graph {

using NodeId = std::size_t;

/// Sentinel for "no such neighbor" from ImplicitBlock::neighbor_after.
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

enum class BlockKind : std::uint8_t {
  kClique,            ///< all pairs within [a_begin, a_end)
  kBiclique,          ///< all pairs across [a_begin,a_end) x [b_begin,b_end)
  kAntiMatchingGrid,  ///< rows x row_len grid, (i,r1)~(j,r2) iff i!=j, r1!=r2
};

struct ImplicitBlock {
  BlockKind kind = BlockKind::kClique;

  // kClique: members are [a_begin, a_end).
  // kBiclique: sides are [a_begin, a_end) and [b_begin, b_end), disjoint.
  NodeId a_begin = 0, a_end = 0;
  NodeId b_begin = 0, b_end = 0;

  // kAntiMatchingGrid: row i occupies [base + i*stride, base + i*stride +
  // row_len) for i in [0, rows); stride >= row_len keeps rows disjoint and
  // ascending.
  NodeId base = 0;
  std::size_t stride = 0, rows = 0, row_len = 0;

  bool operator==(const ImplicitBlock&) const = default;

  static ImplicitBlock clique(NodeId begin, NodeId end) {
    CLB_EXPECT(end >= begin + 2, "implicit clique needs >= 2 nodes");
    ImplicitBlock b;
    b.kind = BlockKind::kClique;
    b.a_begin = begin;
    b.a_end = end;
    return b;
  }

  static ImplicitBlock biclique(NodeId a0, NodeId a1, NodeId b0, NodeId b1) {
    CLB_EXPECT(a1 > a0 && b1 > b0, "implicit biclique sides must be nonempty");
    CLB_EXPECT(a1 <= b0 || b1 <= a0, "implicit biclique sides must be disjoint");
    ImplicitBlock b;
    b.kind = BlockKind::kBiclique;
    b.a_begin = a0;
    b.a_end = a1;
    b.b_begin = b0;
    b.b_end = b1;
    return b;
  }

  static ImplicitBlock anti_matching_grid(NodeId base, std::size_t stride,
                                          std::size_t rows,
                                          std::size_t row_len) {
    CLB_EXPECT(rows >= 2 && row_len >= 2,
               "anti-matching grid needs >= 2 rows and >= 2 columns");
    CLB_EXPECT(stride >= row_len,
               "anti-matching grid rows must be disjoint (stride >= row_len)");
    ImplicitBlock b;
    b.kind = BlockKind::kAntiMatchingGrid;
    b.base = base;
    b.stride = stride;
    b.rows = rows;
    b.row_len = row_len;
    return b;
  }

  /// Smallest member id.
  NodeId min_node() const {
    switch (kind) {
      case BlockKind::kClique: return a_begin;
      case BlockKind::kBiclique: return a_begin < b_begin ? a_begin : b_begin;
      case BlockKind::kAntiMatchingGrid: return base;
    }
    return 0;
  }

  /// One past the largest member id.
  NodeId max_node_excl() const {
    switch (kind) {
      case BlockKind::kClique: return a_end;
      case BlockKind::kBiclique: return a_end > b_end ? a_end : b_end;
      case BlockKind::kAntiMatchingGrid:
        return base + (rows - 1) * stride + row_len;
    }
    return 0;
  }

  bool contains(NodeId v) const {
    switch (kind) {
      case BlockKind::kClique:
        return v >= a_begin && v < a_end;
      case BlockKind::kBiclique:
        return (v >= a_begin && v < a_end) || (v >= b_begin && v < b_end);
      case BlockKind::kAntiMatchingGrid: {
        if (v < base) return false;
        const std::size_t off = v - base;
        return off / stride < rows && off % stride < row_len;
      }
    }
    return false;
  }

  /// Number of neighbors this block gives v (0 when v is not a member).
  std::size_t degree_of(NodeId v) const {
    switch (kind) {
      case BlockKind::kClique:
        return contains(v) ? (a_end - a_begin) - 1 : 0;
      case BlockKind::kBiclique:
        if (v >= a_begin && v < a_end) return b_end - b_begin;
        if (v >= b_begin && v < b_end) return a_end - a_begin;
        return 0;
      case BlockKind::kAntiMatchingGrid:
        return contains(v) ? (rows - 1) * (row_len - 1) : 0;
    }
    return 0;
  }

  /// Total undirected edges the block represents.
  std::uint64_t num_edges() const {
    switch (kind) {
      case BlockKind::kClique: {
        const std::uint64_t s = a_end - a_begin;
        return s * (s - 1) / 2;
      }
      case BlockKind::kBiclique:
        return std::uint64_t{a_end - a_begin} * (b_end - b_begin);
      case BlockKind::kAntiMatchingGrid:
        return std::uint64_t{rows} * (rows - 1) / 2 * row_len * (row_len - 1);
    }
    return 0;
  }

  bool is_edge(NodeId u, NodeId v) const {
    if (u == v) return false;
    switch (kind) {
      case BlockKind::kClique:
        return contains(u) && contains(v);
      case BlockKind::kBiclique: {
        const bool ua = u >= a_begin && u < a_end;
        const bool ub = u >= b_begin && u < b_end;
        const bool va = v >= a_begin && v < a_end;
        const bool vb = v >= b_begin && v < b_end;
        return (ua && vb) || (ub && va);
      }
      case BlockKind::kAntiMatchingGrid: {
        if (!contains(u) || !contains(v)) return false;
        const std::size_t ou = u - base, ov = v - base;
        return ou / stride != ov / stride && ou % stride != ov % stride;
      }
    }
    return false;
  }

  /// Number of neighbors of member v with id <= x. O(1); the workhorse
  /// behind rank/select neighbor access and slot arithmetic.
  std::size_t count_leq(NodeId v, NodeId x) const {
    switch (kind) {
      case BlockKind::kClique: {
        if (!contains(v) || x < a_begin) return 0;
        const NodeId hi = x + 1 < a_end ? x + 1 : a_end;
        return (hi - a_begin) - (v <= x ? 1 : 0);
      }
      case BlockKind::kBiclique: {
        NodeId lo, hi_end;
        if (v >= a_begin && v < a_end) {
          lo = b_begin;
          hi_end = b_end;
        } else if (v >= b_begin && v < b_end) {
          lo = a_begin;
          hi_end = a_end;
        } else {
          return 0;
        }
        if (x < lo) return 0;
        const NodeId hi = x + 1 < hi_end ? x + 1 : hi_end;
        return hi - lo;
      }
      case BlockKind::kAntiMatchingGrid: {
        if (!contains(v)) return 0;
        const std::size_t vi = (v - base) / stride;  // v's row
        const std::size_t vr = (v - base) % stride;  // v's column
        // Inclusion–exclusion over member ids <= x: all members, minus
        // row vi, minus column vr, plus (vi, vr) itself if counted.
        const std::size_t all = members_leq(x);
        const std::size_t col = column_leq(vr, x);
        const NodeId row_start = base + vi * stride;
        std::size_t row = 0;
        if (x >= row_start) {
          const std::size_t c = x - row_start + 1;
          row = c < row_len ? c : row_len;
        }
        const std::size_t self = (v <= x) ? 1 : 0;
        return all - col - row + self;
      }
    }
    return 0;
  }

  /// The i-th smallest neighbor of member v, for i < degree_of(v). O(1):
  /// the neighbor set is a contiguous range (clique, biclique) or a grid
  /// with v's own row and column removed, so the index maps to an id
  /// directly.
  NodeId select(NodeId v, std::size_t i) const {
    switch (kind) {
      case BlockKind::kClique: {
        const NodeId c = a_begin + i;
        return c >= v ? c + 1 : c;
      }
      case BlockKind::kBiclique:
        return (v >= a_begin && v < a_end ? b_begin : a_begin) + i;
      case BlockKind::kAntiMatchingGrid: {
        const std::size_t vi = (v - base) / stride;
        const std::size_t vr = (v - base) % stride;
        std::size_t j = i / (row_len - 1);
        std::size_t c = i % (row_len - 1);
        if (j >= vi) ++j;
        if (c >= vr) ++c;
        return base + j * stride + c;
      }
    }
    return kNoNode;
  }

  /// Smallest neighbor of member v with id > x, or kNoNode.
  NodeId neighbor_after(NodeId v, NodeId x) const {
    switch (kind) {
      case BlockKind::kClique: {
        if (!contains(v)) return kNoNode;
        NodeId c = x == kNoNode ? a_begin : (x + 1 > a_begin ? x + 1 : a_begin);
        if (c == v) ++c;
        return c < a_end ? c : kNoNode;
      }
      case BlockKind::kBiclique: {
        NodeId lo, hi_end;
        if (v >= a_begin && v < a_end) {
          lo = b_begin;
          hi_end = b_end;
        } else if (v >= b_begin && v < b_end) {
          lo = a_begin;
          hi_end = a_end;
        } else {
          return kNoNode;
        }
        const NodeId c = x == kNoNode ? lo : (x + 1 > lo ? x + 1 : lo);
        return c < hi_end ? c : kNoNode;
      }
      case BlockKind::kAntiMatchingGrid: {
        if (!contains(v)) return kNoNode;
        const std::size_t vi = (v - base) / stride;
        const std::size_t vr = (v - base) % stride;
        NodeId y = (x == kNoNode || x + 1 < base) ? base : x + 1;
        while (true) {
          std::size_t j = (y - base) / stride;
          std::size_t c = (y - base) % stride;
          if (c >= row_len) {  // in the gap between rows
            ++j;
            c = 0;
          }
          if (j == vi) {  // skip v's whole row
            ++j;
            c = 0;
          }
          if (j >= rows) return kNoNode;
          if (c == vr) {  // skip v's column in this row
            ++c;
            if (c >= row_len) {
              y = base + (j + 1) * stride;
              continue;
            }
          }
          return base + j * stride + c;
        }
      }
    }
    return kNoNode;
  }

  /// Sum of degree_of(w) over members w with w < v. Monotone in v; the
  /// edge-tiled shard planner uses it as the implicit part of prefix cost.
  std::uint64_t degree_prefix(NodeId v) const {
    switch (kind) {
      case BlockKind::kClique: {
        const std::size_t s = a_end - a_begin;
        std::size_t cnt = 0;
        if (v > a_begin) cnt = (v - a_begin < s) ? v - a_begin : s;
        return std::uint64_t{cnt} * (s - 1);
      }
      case BlockKind::kBiclique: {
        const std::size_t sa = a_end - a_begin, sb = b_end - b_begin;
        std::size_t ca = 0, cb = 0;
        if (v > a_begin) ca = (v - a_begin < sa) ? v - a_begin : sa;
        if (v > b_begin) cb = (v - b_begin < sb) ? v - b_begin : sb;
        return std::uint64_t{ca} * sb + std::uint64_t{cb} * sa;
      }
      case BlockKind::kAntiMatchingGrid: {
        const std::size_t cnt = v == 0 ? 0 : members_leq(v - 1);
        return std::uint64_t{cnt} * (rows - 1) * (row_len - 1);
      }
    }
    return 0;
  }

  /// Visit every edge as (u, v) with u < v. O(num_edges()) — materialization
  /// and small-n contract paths only; the engine never calls this at scale.
  template <class Fn>
  void for_each_edge(Fn&& fn) const {
    switch (kind) {
      case BlockKind::kClique:
        for (NodeId u = a_begin; u < a_end; ++u)
          for (NodeId v = u + 1; v < a_end; ++v) fn(u, v);
        return;
      case BlockKind::kBiclique:
        for (NodeId u = a_begin; u < a_end; ++u)
          for (NodeId v = b_begin; v < b_end; ++v)
            fn(u < v ? u : v, u < v ? v : u);
        return;
      case BlockKind::kAntiMatchingGrid:
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t j = i + 1; j < rows; ++j)
            for (std::size_t r1 = 0; r1 < row_len; ++r1)
              for (std::size_t r2 = 0; r2 < row_len; ++r2)
                if (r1 != r2)
                  fn(base + i * stride + r1, base + j * stride + r2);
        return;
    }
  }

  /// Visit the neighbors of member v in ascending id order.
  template <class Fn>
  void for_each_neighbor(NodeId v, Fn&& fn) const {
    for (NodeId u = neighbor_after(v, kNoNode); u != kNoNode;
         u = neighbor_after(v, u))
      fn(u);
  }

 private:
  // Grid helpers: counts over member ids <= x, exploiting that rows are
  // disjoint ascending ranges (stride >= row_len). At most one row is
  // partially covered by the prefix [0, x].
  std::size_t members_leq(NodeId x) const {
    if (x < base) return 0;
    std::size_t full = 0;
    if (x >= base + (row_len - 1))
      full = (x - (row_len - 1) - base) / stride + 1;
    if (full > rows) full = rows;
    std::size_t partial = 0;
    if (full < rows) {
      const NodeId start = base + full * stride;
      if (x >= start) {
        const std::size_t c = x - start + 1;
        partial = c < row_len ? c : row_len;
      }
    }
    return full * row_len + partial;
  }

  /// Members in column r with id <= x (one per row).
  std::size_t column_leq(std::size_t r, NodeId x) const {
    if (x < base + r) return 0;
    const std::size_t cnt = (x - r - base) / stride + 1;
    return cnt < rows ? cnt : rows;
  }
};

}  // namespace congestlb::graph
