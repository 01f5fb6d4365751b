#include "maxis/brute_force.hpp"

#include <vector>

#include "support/expect.hpp"

namespace congestlb::maxis {

namespace {

struct BruteState {
  std::vector<std::uint64_t> adj;  ///< adjacency masks
  std::vector<Weight> weight;
  std::uint64_t best_mask = 0;
  Weight best = 0;

  void recurse(std::uint64_t candidates, std::uint64_t chosen, Weight acc,
               Weight potential) {
    if (acc > best) {
      best = acc;
      best_mask = chosen;
    }
    if (candidates == 0 || acc + potential <= best) return;
    // Pick the lowest candidate; branch include / exclude.
    const int v = __builtin_ctzll(candidates);
    const std::uint64_t bit = 1ULL << v;
    // Include v.
    recurse(candidates & ~adj[v] & ~bit, chosen | bit, acc + weight[v],
            potential - weight[v]);
    // Exclude v.
    recurse(candidates & ~bit, chosen, acc, potential - weight[v]);
  }
};

}  // namespace

IsSolution solve_brute_force(const graph::Graph& g) {
  const std::size_t n = g.num_nodes();
  CLB_EXPECT(n <= kBruteForceLimit, "brute force limited to tiny graphs");
  BruteState st;
  st.adj.assign(n, 0);
  st.weight.resize(n);
  Weight total = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    st.weight[v] = g.weight(v);
    CLB_EXPECT(st.weight[v] >= 0, "brute force requires nonnegative weights");
    total += st.weight[v];
    for (graph::NodeId nb : g.neighbors(v)) st.adj[v] |= 1ULL << nb;
  }
  const std::uint64_t all =
      n == 64 ? ~0ULL : ((1ULL << n) - 1);
  st.recurse(all, 0, 0, total);
  std::vector<NodeId> nodes;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (st.best_mask & (1ULL << v)) nodes.push_back(v);
  }
  return checked(g, std::move(nodes));
}

}  // namespace congestlb::maxis
