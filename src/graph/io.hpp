// Graph serialization: a plain edge-list text format (round-trippable,
// implicit-block aware) and Graphviz DOT output used to regenerate the
// paper's Figures 1-6.

#pragma once

#include <iosfwd>
#include <map>
#include <string>

#include "graph/graph.hpp"

namespace congestlb::graph {

/// Write as text:
///   line 1: "n <num_nodes>"
///   then    "w <id> <weight>"      for every non-unit weight
///   then    "b clique <begin> <end>"                      per implicit block
///           "b biclique <a0> <a1> <b0> <b1>"
///           "b grid <base> <stride> <rows> <row_len>"
///   then    "e <u> <v>"            for every explicit edge (u < v)
void write_edge_list(std::ostream& os, const Graph& g);

/// Parse the format produced by write_edge_list. Throws InvariantError on
/// malformed input, including a block that shares an edge with another
/// block or with an explicit edge (checked only when there are blocks).
Graph read_edge_list(std::istream& is);

/// Options for DOT rendering.
struct DotOptions {
  /// Cluster name per node (nodes with equal values are grouped into a DOT
  /// subgraph cluster); empty string means no cluster.
  std::map<NodeId, std::string> cluster;
  /// Show node weights in the label.
  bool show_weights = true;
  std::string graph_name = "G";
};

/// Graphviz DOT output (undirected). Node labels come from Graph::label when
/// set, otherwise the node id.
void write_dot(std::ostream& os, const Graph& g, const DotOptions& opts = {});

}  // namespace congestlb::graph
