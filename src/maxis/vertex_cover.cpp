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

}  // namespace congestlb::maxis
