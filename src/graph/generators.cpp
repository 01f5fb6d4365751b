#include "graph/generators.hpp"

#include "support/expect.hpp"

namespace congestlb::graph {

Graph path_graph(std::size_t n) {
  Graph g(n);
  EdgeList edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  g.add_edges(edges);
  return g;
}

Graph cycle_graph(std::size_t n) {
  CLB_EXPECT(n >= 3, "cycle_graph requires n >= 3");
  Graph g = path_graph(n);
  g.add_edge(0, n - 1);
  return g;
}

Graph complete_graph(std::size_t n) {
  Graph g(n);
  EdgeList edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  g.add_edges(edges);
  return g;
}

Graph star_graph(std::size_t n) {
  CLB_EXPECT(n >= 1, "star_graph requires n >= 1");
  Graph g(n);
  EdgeList edges;
  for (NodeId v = 1; v < n; ++v) edges.emplace_back(0, v);
  g.add_edges(edges);
  return g;
}

Graph gnp_random(Rng& rng, std::size_t n, double p, Weight max_weight) {
  CLB_EXPECT(max_weight >= 1, "gnp_random requires max_weight >= 1");
  Graph g(n);
  for (NodeId v = 0; v < n; ++v) {
    g.set_weight(v, max_weight == 1
                        ? 1
                        : static_cast<Weight>(
                              1 + rng.below(static_cast<std::uint64_t>(
                                      max_weight))));
  }
  EdgeList edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(p)) edges.emplace_back(u, v);
    }
  }
  g.add_edges(edges);
  return g;
}

Graph gnp_random_connected(Rng& rng, std::size_t n, double p,
                           Weight max_weight) {
  Graph g = gnp_random(rng, n, p, max_weight);
  EdgeList path;
  for (NodeId v = 0; v + 1 < n; ++v) path.emplace_back(v, v + 1);
  g.add_edges(path);  // skips the path edges already present
  return g;
}

Graph random_bipartite(Rng& rng, std::size_t n_left, std::size_t n_right,
                       double p) {
  Graph g(n_left + n_right);
  EdgeList edges;
  for (NodeId u = 0; u < n_left; ++u) {
    for (NodeId v = 0; v < n_right; ++v) {
      if (rng.chance(p)) edges.emplace_back(u, n_left + v);
    }
  }
  g.add_edges(edges);
  return g;
}

}  // namespace congestlb::graph
