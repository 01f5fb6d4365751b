#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>

#include "support/expect.hpp"

namespace congestlb::graph {

std::vector<std::size_t> bfs_distances(const Graph& g, NodeId source) {
  CLB_EXPECT(source < g.num_nodes(), "bfs: source out of range");
  std::vector<std::size_t> dist(g.num_nodes(), kInfiniteDistance);
  std::queue<NodeId> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    NodeId u = q.front();
    q.pop();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kInfiniteDistance) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(), [](std::size_t d) {
    return d == kInfiniteDistance;
  });
}

std::vector<std::size_t> connected_components(const Graph& g) {
  std::vector<std::size_t> comp(g.num_nodes(), kInfiniteDistance);
  // Flat FIFO shared across components: every vertex enters it exactly
  // once, so one n-sized buffer replaces a per-component deque (this scan
  // sits on the exact-solver hot path).
  std::vector<NodeId> queue;
  queue.reserve(g.num_nodes());
  std::size_t head = 0;
  std::size_t next = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (comp[s] != kInfiniteDistance) continue;
    comp[s] = next;
    queue.push_back(s);
    while (head < queue.size()) {
      const NodeId u = queue[head++];
      for (NodeId v : g.neighbors(u)) {
        if (comp[v] == kInfiniteDistance) {
          comp[v] = next;
          queue.push_back(v);
        }
      }
    }
    ++next;
  }
  return comp;
}

std::size_t diameter(const Graph& g) {
  CLB_EXPECT(g.num_nodes() > 0, "diameter: empty graph");
  std::size_t diam = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    auto dist = bfs_distances(g, s);
    for (std::size_t d : dist) {
      CLB_EXPECT(d != kInfiniteDistance, "diameter: graph must be connected");
      diam = std::max(diam, d);
    }
  }
  return diam;
}

}  // namespace congestlb::graph
