#include "graph/matching.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "support/expect.hpp"

namespace congestlb::graph {

namespace {

constexpr std::size_t kUnmatched = std::numeric_limits<std::size_t>::max();

/// Hopcroft–Karp on a bipartite graph given as adjacency from left to right.
class HopcroftKarp {
 public:
  HopcroftKarp(std::size_t n_left, std::size_t n_right,
               std::vector<std::vector<std::size_t>> adj)
      : n_left_(n_left),
        adj_(std::move(adj)),
        match_left_(n_left, kUnmatched),
        match_right_(n_right, kUnmatched),
        dist_(n_left) {}

  std::vector<std::pair<std::size_t, std::size_t>> solve() {
    while (bfs()) {
      for (std::size_t u = 0; u < n_left_; ++u) {
        if (match_left_[u] == kUnmatched) dfs(u);
      }
    }
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t u = 0; u < n_left_; ++u) {
      if (match_left_[u] != kUnmatched) pairs.emplace_back(u, match_left_[u]);
    }
    return pairs;
  }

 private:
  bool bfs() {
    std::queue<std::size_t> q;
    bool found_augmenting = false;
    constexpr std::size_t inf = std::numeric_limits<std::size_t>::max();
    for (std::size_t u = 0; u < n_left_; ++u) {
      if (match_left_[u] == kUnmatched) {
        dist_[u] = 0;
        q.push(u);
      } else {
        dist_[u] = inf;
      }
    }
    while (!q.empty()) {
      std::size_t u = q.front();
      q.pop();
      for (std::size_t v : adj_[u]) {
        std::size_t w = match_right_[v];
        if (w == kUnmatched) {
          found_augmenting = true;
        } else if (dist_[w] == inf) {
          dist_[w] = dist_[u] + 1;
          q.push(w);
        }
      }
    }
    return found_augmenting;
  }

  bool dfs(std::size_t u) {
    for (std::size_t v : adj_[u]) {
      std::size_t w = match_right_[v];
      if (w == kUnmatched || (dist_[w] == dist_[u] + 1 && dfs(w))) {
        match_left_[u] = v;
        match_right_[v] = u;
        return true;
      }
    }
    dist_[u] = std::numeric_limits<std::size_t>::max();
    return false;
  }

  std::size_t n_left_;
  std::vector<std::vector<std::size_t>> adj_;
  std::vector<std::size_t> match_left_;
  std::vector<std::size_t> match_right_;
  std::vector<std::size_t> dist_;
};

/// Map from original node ids to dense side-local indices; id -> index+1,
/// 0 means absent.
std::vector<std::size_t> index_side(const Graph& g,
                                    std::span<const NodeId> side) {
  std::vector<std::size_t> pos(g.num_nodes(), 0);
  for (std::size_t i = 0; i < side.size(); ++i) {
    CLB_EXPECT(side[i] < g.num_nodes(), "matching: node id out of range");
    CLB_EXPECT(pos[side[i]] == 0, "matching: duplicate node in side");
    pos[side[i]] = i + 1;
  }
  return pos;
}

}  // namespace

Matching max_bipartite_matching(const Graph& g, std::span<const NodeId> left,
                                std::span<const NodeId> right) {
  auto lpos = index_side(g, left);
  auto rpos = index_side(g, right);
  for (NodeId v : right) {
    CLB_EXPECT(lpos[v] == 0, "matching: sides must be disjoint");
  }

  std::vector<std::vector<std::size_t>> adj(left.size());
  for (std::size_t i = 0; i < left.size(); ++i) {
    for (NodeId nb : g.neighbors(left[i])) {
      if (rpos[nb] != 0) adj[i].push_back(rpos[nb] - 1);
    }
  }
  HopcroftKarp hk(left.size(), right.size(), std::move(adj));
  Matching m;
  for (auto [li, ri] : hk.solve()) {
    m.pairs.emplace_back(left[li], right[ri]);
  }
  return m;
}

Matching max_bipartite_matching(
    std::size_t n_left, std::size_t n_right,
    std::span<const std::pair<std::size_t, std::size_t>> edges) {
  std::vector<std::vector<std::size_t>> adj(n_left);
  for (auto [u, v] : edges) {
    CLB_EXPECT(u < n_left && v < n_right, "matching: edge endpoint out of range");
    adj[u].push_back(v);
  }
  HopcroftKarp hk(n_left, n_right, std::move(adj));
  Matching m;
  m.pairs = hk.solve();
  return m;
}

Matching greedy_matching(const Graph& g, std::span<const NodeId> left,
                         std::span<const NodeId> right) {
  auto rpos = index_side(g, right);
  (void)index_side(g, left);  // validates left side
  std::vector<bool> used_right(g.num_nodes(), false);
  Matching m;
  for (NodeId u : left) {
    for (NodeId nb : g.neighbors(u)) {
      if (rpos[nb] != 0 && !used_right[nb]) {
        used_right[nb] = true;
        m.pairs.emplace_back(u, nb);
        break;
      }
    }
  }
  return m;
}

}  // namespace congestlb::graph
