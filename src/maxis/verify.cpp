#include "maxis/verify.hpp"

#include <algorithm>
#include <cstdint>

#include "support/expect.hpp"

namespace congestlb::maxis {

IsSolution checked(const graph::Graph& g, std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  CLB_EXPECT(g.is_independent_set(nodes), "checked: not an independent set");
  IsSolution sol;
  sol.weight = g.weight_of(nodes);
  sol.nodes = std::move(nodes);
  return sol;
}

double approximation_ratio(Weight got, Weight opt) {
  CLB_EXPECT(opt > 0, "approximation_ratio: OPT must be positive");
  CLB_EXPECT(got >= 0 && got <= opt, "approximation_ratio: got outside [0, OPT]");
  return static_cast<double>(got) / static_cast<double>(opt);
}

Weight clique_partition_upper_bound(const graph::Graph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  std::vector<std::uint8_t> assigned(n, 0);
  Weight bound = 0;
  std::vector<NodeId> clique;
  for (const NodeId seed : order) {
    if (assigned[seed]) continue;
    // Grow a clique from seed among its unassigned neighbors: candidate u
    // joins if adjacent to every current member. Neighbor lists are sorted,
    // so membership checks use has_edge.
    clique.assign(1, seed);
    assigned[seed] = 1;
    Weight best = g.weight(seed);
    for (const NodeId u : g.neighbors(seed)) {
      if (assigned[u] ||
          !std::all_of(clique.begin() + 1, clique.end(),
                       [&](NodeId c) { return g.has_edge(u, c); })) {
        continue;
      }
      clique.push_back(u);
      assigned[u] = 1;
      best = std::max(best, g.weight(u));
    }
    bound += best;
  }
  return bound;
}

}  // namespace congestlb::maxis
