#include "lowerbound/unweighted.hpp"

#include "support/expect.hpp"

namespace congestlb::lb {

UnweightedExpansion to_unweighted(const graph::Graph& g) {
  UnweightedExpansion ex;
  ex.copies_of.resize(g.num_nodes());
  std::size_t total = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const graph::Weight w = g.weight(v);
    CLB_EXPECT(w >= 1, "to_unweighted requires weights >= 1");
    for (graph::Weight c = 0; c < w; ++c) {
      ex.copies_of[v].push_back(total++);
    }
  }
  ex.graph = graph::Graph(total);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::size_t c = 0; c < ex.copies_of[v].size(); ++c) {
      ex.graph.set_label(ex.copies_of[v][c],
                         g.label(v).empty()
                             ? std::to_string(v) + "#" + std::to_string(c)
                             : g.label(v) + "#" + std::to_string(c));
    }
  }
  graph::EdgeList edges;
  for (auto [u, v] : graph::edge_list(g)) {
    ex.graph.add_biclique(ex.copies_of[u], ex.copies_of[v], edges);
  }
  ex.graph.add_edges(edges);
  return ex;
}

std::vector<graph::NodeId> UnweightedExpansion::expand_set(
    const std::vector<graph::NodeId>& weighted_set) const {
  std::vector<graph::NodeId> out;
  for (graph::NodeId v : weighted_set) {
    CLB_EXPECT(v < copies_of.size(), "expand_set: node out of range");
    out.insert(out.end(), copies_of[v].begin(), copies_of[v].end());
  }
  return out;
}

}  // namespace congestlb::lb
