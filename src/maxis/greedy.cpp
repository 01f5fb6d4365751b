#include "maxis/greedy.hpp"

#include <algorithm>
#include <numeric>

#include "support/expect.hpp"

namespace congestlb::maxis {

namespace {

/// Shared skeleton: repeatedly pick the best remaining vertex under `better`,
/// then delete it and its neighbors. `dynamic_degree` recomputes degrees
/// within the remaining subgraph.
template <typename Better>
IsSolution greedy_core(const graph::Graph& g, Better better,
                       bool dynamic_degree) {
  const std::size_t n = g.num_nodes();
  std::vector<char> alive(n, 1);
  std::vector<std::size_t> deg(n);
  for (NodeId v = 0; v < n; ++v) deg[v] = g.degree(v);
  std::vector<NodeId> picked;
  std::size_t remaining = n;
  while (remaining > 0) {
    NodeId best = n;
    for (NodeId v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      if (best == n || better(v, best, deg)) best = v;
    }
    picked.push_back(best);
    // Remove best and its alive neighbors.
    std::vector<NodeId> removed{best};
    for (NodeId nb : g.neighbors(best)) {
      if (alive[nb]) removed.push_back(nb);
    }
    for (NodeId r : removed) {
      alive[r] = 0;
      --remaining;
    }
    if (dynamic_degree) {
      for (NodeId r : removed) {
        for (NodeId nb : g.neighbors(r)) {
          if (alive[nb] && deg[nb] > 0) --deg[nb];
        }
      }
    }
  }
  return checked(g, std::move(picked));
}

}  // namespace

IsSolution solve_greedy_weight_degree(const graph::Graph& g) {
  return greedy_core(
      g,
      [&](NodeId a, NodeId b, const std::vector<std::size_t>& deg) {
        // Compare w(a)/(deg(a)+1) > w(b)/(deg(b)+1) without division.
        const auto lhs = static_cast<long double>(g.weight(a)) *
                         static_cast<long double>(deg[b] + 1);
        const auto rhs = static_cast<long double>(g.weight(b)) *
                         static_cast<long double>(deg[a] + 1);
        if (lhs != rhs) return lhs > rhs;
        return a < b;
      },
      /*dynamic_degree=*/true);
}

IsSolution solve_greedy_min_degree(const graph::Graph& g) {
  return greedy_core(
      g,
      [&](NodeId a, NodeId b, const std::vector<std::size_t>& deg) {
        if (deg[a] != deg[b]) return deg[a] < deg[b];
        return a < b;
      },
      /*dynamic_degree=*/true);
}

IsSolution solve_greedy_max_weight(const graph::Graph& g) {
  return greedy_core(
      g,
      [&](NodeId a, NodeId b, const std::vector<std::size_t>&) {
        if (g.weight(a) != g.weight(b)) return g.weight(a) > g.weight(b);
        return a < b;
      },
      /*dynamic_degree=*/false);
}

}  // namespace congestlb::maxis
