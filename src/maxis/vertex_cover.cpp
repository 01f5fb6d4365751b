#include "maxis/vertex_cover.hpp"

#include <algorithm>

#include "maxis/branch_and_bound.hpp"
#include "support/expect.hpp"

namespace congestlb::maxis {

bool is_vertex_cover(const graph::Graph& g, std::span<const NodeId> nodes) {
  std::vector<bool> in(g.num_nodes(), false);
  for (NodeId v : nodes) {
    CLB_EXPECT(v < g.num_nodes(), "vertex cover: node out of range");
    in[v] = true;
  }
  // C covers every edge iff V \ C is independent — a check that handles
  // implicit blocks arithmetically instead of listing their edges.
  std::vector<NodeId> rest;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!in[v]) rest.push_back(v);
  }
  return g.is_independent_set(rest);
}

VcSolution checked_cover(const graph::Graph& g, std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  CLB_EXPECT(is_vertex_cover(g, nodes), "checked_cover: not a vertex cover");
  VcSolution sol;
  sol.weight = g.weight_of(nodes);
  sol.nodes = std::move(nodes);
  return sol;
}

VcSolution cover_from_independent_set(const graph::Graph& g,
                                      std::span<const NodeId> is) {
  CLB_EXPECT(g.is_independent_set(is),
             "cover_from_independent_set: input is not independent");
  std::vector<bool> in_is(g.num_nodes(), false);
  for (NodeId v : is) in_is[v] = true;
  std::vector<NodeId> cover;
  cover.reserve(g.num_nodes() - is.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!in_is[v]) cover.push_back(v);
  }
  return checked_cover(g, std::move(cover));
}

VcSolution solve_vertex_cover_exact(const graph::Graph& g) {
  const IsSolution is = solve_exact(g);
  VcSolution sol = cover_from_independent_set(g, is.nodes);
  CLB_EXPECT(sol.weight == g.total_weight() - is.weight,
             "vertex cover: complement accounting mismatch");
  return sol;
}

VcSolution solve_vertex_cover_local_ratio(const graph::Graph& g) {
  std::vector<Weight> residual(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    residual[v] = g.weight(v);
    CLB_EXPECT(residual[v] >= 0, "local ratio requires nonnegative weights");
  }
  for (auto [u, v] : graph::edge_list(g)) {
    if (residual[u] == 0 || residual[v] == 0) continue;  // already covered
    const Weight pay = std::min(residual[u], residual[v]);
    residual[u] -= pay;
    residual[v] -= pay;
  }
  std::vector<NodeId> cover;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // Zero-weight vertices are free: taking them never hurts and keeps the
    // cover property independent of tie-breaking.
    if (residual[v] == 0 && (g.weight(v) > 0 || g.degree(v) > 0)) {
      cover.push_back(v);
    }
  }
  return checked_cover(g, std::move(cover));
}

VcSolution solve_vertex_cover_matching(const graph::Graph& g) {
  std::vector<bool> used(g.num_nodes(), false);
  std::vector<NodeId> cover;
  for (auto [u, v] : graph::edge_list(g)) {
    if (used[u] || used[v]) continue;
    used[u] = used[v] = true;
    cover.push_back(u);
    cover.push_back(v);
  }
  return checked_cover(g, std::move(cover));
}

}  // namespace congestlb::maxis
