#include "maxis/local_search.hpp"

#include <algorithm>

#include "maxis/greedy.hpp"
#include "support/expect.hpp"

namespace congestlb::maxis {

namespace {

class LocalSearch {
 public:
  LocalSearch(const graph::Graph& g, std::vector<NodeId> start,
              std::uint64_t max_moves)
      : g_(&g), max_moves_(max_moves), in_(g.num_nodes(), false),
        tight_(g.num_nodes(), 0) {
    CLB_EXPECT(g.is_independent_set(start), "local search: start not an IS");
    for (NodeId v : start) add(v);
  }

  LocalSearchResult run() {
    bool changed = true;
    while (changed) {
      changed = try_adds();
      for (NodeId v = 0; v < g_->num_nodes() && !changed; ++v) {
        if (in_[v]) changed = try_swap(v);
      }
    }
    std::vector<NodeId> nodes;
    for (NodeId v = 0; v < g_->num_nodes(); ++v) {
      if (in_[v]) nodes.push_back(v);
    }
    LocalSearchResult result;
    result.solution = checked(*g_, std::move(nodes));
    result.moves_applied = moves_;
    return result;
  }

 private:
  void add(NodeId v) {
    CLB_CHECK(!in_[v] && tight_[v] == 0);
    in_[v] = true;
    g_->for_each_neighbor(v, [&](NodeId nb) { ++tight_[nb]; });
  }

  void remove(NodeId v) {
    CLB_CHECK(in_[v]);
    in_[v] = false;
    g_->for_each_neighbor(v, [&](NodeId nb) { --tight_[nb]; });
  }

  void count_move() {
    ++moves_;
    CLB_EXPECT(moves_ <= max_moves_, "local search: move budget exhausted");
  }

  bool try_adds() {
    bool any = false;
    for (NodeId v = 0; v < g_->num_nodes(); ++v) {
      if (!in_[v] && tight_[v] == 0 && g_->weight(v) > 0) {
        add(v);
        count_move();
        any = true;
      }
    }
    return any;
  }

  /// Try to replace v with one or two of its exclusive dependents
  /// (non-members whose only IS neighbor is v).
  bool try_swap(NodeId v) {
    std::vector<NodeId> dependents;
    g_->for_each_neighbor(v, [&](NodeId nb) {
      if (!in_[nb] && tight_[nb] == 1) dependents.push_back(nb);
    });
    if (dependents.empty()) return false;
    // Best single replacement.
    NodeId best_single = dependents[0];
    for (NodeId d : dependents) {
      if (g_->weight(d) > g_->weight(best_single)) best_single = d;
    }
    // Best non-adjacent pair (dependent lists are tiny in practice; the
    // quadratic scan is bounded by deg(v)^2).
    graph::Weight best_pair_w = -1;
    NodeId p1 = 0, p2 = 0;
    for (std::size_t a = 0; a < dependents.size(); ++a) {
      for (std::size_t b = a + 1; b < dependents.size(); ++b) {
        if (g_->has_edge(dependents[a], dependents[b])) continue;
        const graph::Weight w =
            g_->weight(dependents[a]) + g_->weight(dependents[b]);
        if (w > best_pair_w) {
          best_pair_w = w;
          p1 = dependents[a];
          p2 = dependents[b];
        }
      }
    }
    if (best_pair_w > g_->weight(v)) {
      remove(v);
      add(p1);
      add(p2);
      count_move();
      return true;
    }
    if (g_->weight(best_single) > g_->weight(v)) {
      remove(v);
      add(best_single);
      count_move();
      return true;
    }
    return false;
  }

  const graph::Graph* g_;
  std::uint64_t max_moves_;
  std::vector<bool> in_;
  std::vector<std::size_t> tight_;
  std::uint64_t moves_ = 0;
};

}  // namespace

LocalSearchResult improve_local_search(const graph::Graph& g,
                                       std::vector<NodeId> start,
                                       std::uint64_t max_moves) {
  return LocalSearch(g, std::move(start), max_moves).run();
}

IsSolution solve_greedy_plus_local_search(const graph::Graph& g) {
  IsSolution greedy = solve_greedy_weight_degree(g);
  return improve_local_search(g, std::move(greedy.nodes)).solution;
}

}  // namespace congestlb::maxis
