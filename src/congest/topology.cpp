#include "congest/topology.hpp"

#include <algorithm>
#include <array>

#include "support/expect.hpp"

namespace congestlb::congest {

std::size_t Topology::slot_of(NodeId v, NodeId u) const {
  const auto nb = neighbors_of(v);
  const auto it = std::lower_bound(nb.begin(), nb.end(), u);
  if (it == nb.end() || *it != u) return kNoSlot;
  return static_cast<std::size_t>(it - nb.begin());
}

bool Topology::has_edge(NodeId u, NodeId v) const {
  if (u == v) return false;
  if (slot_of(v, u) != kNoSlot) return true;
  for (const auto& b : blocks) {
    if (b.is_edge(u, v)) return true;
  }
  return false;
}

NodeId Topology::neighbor_at(NodeId v, std::size_t slot) const {
  const auto nb = neighbors_of(v);
  if (blocks.empty()) {
    expect_neighbor_slot(slot, nb.size());
    return nb[slot];
  }

  // One pass over v's sources — the explicit row and every block holding
  // v — sums the merged degree and brackets the answer. Each source is
  // sorted with O(1) select, so the slot-th merged neighbor lies in
  // [lo, hi]: lo is the smallest first element (the merged minimum); hi is
  // the smallest slot-th element over sources with more than `slot`
  // members (that source alone puts slot+1 neighbors at or below it), or
  // the largest last element when no source is that deep.
  std::size_t total = 0;
  NodeId lo = graph::kNoNode, hi = graph::kNoNode, last = 0;
  auto bracket = [&](std::size_t deg, auto select) {
    total += deg;
    lo = std::min(lo, select(0));
    if (deg > slot) {
      hi = std::min(hi, select(slot));
    } else {
      last = std::max(last, select(deg - 1));
    }
  };
  if (!nb.empty()) bracket(nb.size(), [&](std::size_t i) { return nb[i]; });

  // The rank below sums over the gathered blocks only. Should v sit in
  // more blocks than the on-stack array holds, the rank also rescans
  // blocks[rest..] in full (count_leq is 0 for non-members), so any
  // membership count stays exact without a heap allocation.
  std::array<const graph::ImplicitBlock*, 8> gathered;
  std::size_t k = 0, rest = blocks.size();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const graph::ImplicitBlock& b = blocks[i];
    const std::size_t d = b.degree_of(v);
    if (d == 0) continue;
    bracket(d, [&](std::size_t j) { return b.select(v, j); });
    if (k < gathered.size()) {
      gathered[k++] = &b;
    } else if (rest == blocks.size()) {
      rest = i;
    }
  }
  expect_neighbor_slot(slot, total);
  if (hi == graph::kNoNode) hi = last;

  // Smallest x in [lo, hi] with more than `slot` merged neighbors <= x.
  const std::span<const graph::ImplicitBlock> tail(blocks.data() + rest,
                                                   blocks.size() - rest);
  while (lo < hi) {
    const NodeId mid = lo + (hi - lo) / 2;
    std::size_t rank = static_cast<std::size_t>(
        std::upper_bound(nb.begin(), nb.end(), mid) - nb.begin());
    for (std::size_t j = 0; j < k; ++j) rank += gathered[j]->count_leq(v, mid);
    for (const auto& b : tail) rank += b.count_leq(v, mid);
    if (rank <= slot) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

NodeId Topology::neighbor_after(NodeId v, NodeId x) const {
  const auto nb = neighbors_of(v);
  NodeId next = graph::kNoNode;
  const auto it = x == graph::kNoNode
                      ? nb.begin()
                      : std::upper_bound(nb.begin(), nb.end(), x);
  if (it != nb.end()) next = *it;
  for (const auto& b : blocks) {
    const NodeId c = b.neighbor_after(v, x);
    if (c < next) next = c;
  }
  return next;
}

std::shared_ptr<const Topology> Topology::build(const graph::Graph& g) {
  auto topo = std::make_shared<Topology>();
  topo->n = g.num_nodes();
  topo->m = g.num_explicit_edges();
  topo->implicit_edges = g.num_implicit_edges();
  topo->blocks = g.implicit_blocks();

  // Borrow the graph's CSR: it is immutable, and holding its shared_ptr
  // keeps it alive however the graph is mutated or destroyed later.
  topo->csr_ = g.shared_csr();
  topo->offsets = topo->csr_->offsets;
  topo->neighbors = topo->csr_->targets;

  topo->weights.resize(topo->n);
  for (NodeId v = 0; v < topo->n; ++v) topo->weights[v] = g.weight(v);

  // reverse_slot via the cursor trick: iterating senders u in ascending
  // order visits, for each receiver v, the entries "u appears in v's sorted
  // list" in ascending u — so u's position in v's list is exactly how many
  // earlier senders were adjacent to v.
  topo->reverse_slot.resize(topo->neighbors.size());
  std::vector<std::uint32_t> cursor(topo->n, 0);
  for (NodeId u = 0; u < topo->n; ++u) {
    for (std::size_t d = topo->offsets[u]; d < topo->offsets[u + 1]; ++d) {
      topo->reverse_slot[d] = cursor[topo->neighbors[d]]++;
    }
  }
  return topo;
}

std::vector<std::pair<NodeId, NodeId>> edge_tiled_shards(
    const Topology& topo, std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  const std::size_t n = topo.n;
  // Prefix cost of the first v nodes: directed slots (explicit + implicit,
  // the latter in closed form per block) + one unit per node. Strictly
  // increasing in v, so each boundary is a binary search for the first
  // prefix at or past the shard's proportional target.
  const std::uint64_t total = topo.prefix_cost(n);
  std::vector<std::pair<NodeId, NodeId>> ranges(num_shards);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::size_t end = n;
    if (s + 1 < num_shards) {
      const std::uint64_t target = total * (s + 1) / num_shards;
      std::size_t lo = begin;
      std::size_t hi = n;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (topo.prefix_cost(mid) < target) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      end = lo;
    }
    ranges[s] = {static_cast<NodeId>(begin), static_cast<NodeId>(end)};
    begin = end;
  }
  return ranges;
}

}  // namespace congestlb::congest
