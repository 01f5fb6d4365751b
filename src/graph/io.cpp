#include "graph/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "support/expect.hpp"

namespace congestlb::graph {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << "n " << g.num_nodes() << '\n';
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.weight(v) != 1) os << "w " << v << ' ' << g.weight(v) << '\n';
  }
  for (const auto& b : g.implicit_blocks()) {
    switch (b.kind) {
      case BlockKind::kClique:
        os << "b clique " << b.a_begin << ' ' << b.a_end << '\n';
        break;
      case BlockKind::kBiclique:
        os << "b biclique " << b.a_begin << ' ' << b.a_end << ' ' << b.b_begin
           << ' ' << b.b_end << '\n';
        break;
      case BlockKind::kAntiMatchingGrid:
        os << "b grid " << b.base << ' ' << b.stride << ' ' << b.rows << ' '
           << b.row_len << '\n';
        break;
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.explicit_neighbors(u)) {
      if (u < v) os << "e " << u << ' ' << v << '\n';
    }
  }
}

Graph read_edge_list(std::istream& is) {
  std::string line;
  Graph g;
  EdgeList edges;
  bool have_n = false;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    char kind = 0;
    ss >> kind;
    auto fail = [&](const char* why) {
      throw InvariantError("read_edge_list: " + std::string(why) + " at line " +
                           std::to_string(lineno));
    };
    if (kind == 'n') {
      std::size_t n = 0;
      if (!(ss >> n)) fail("bad node count");
      if (have_n) fail("duplicate 'n' line");
      g = Graph(n);
      have_n = true;
    } else if (kind == 'w') {
      std::size_t v = 0;
      Weight w = 0;
      if (!have_n) fail("'w' before 'n'");
      if (!(ss >> v >> w) || v >= g.num_nodes()) fail("bad weight line");
      g.set_weight(v, w);
    } else if (kind == 'b') {
      std::string bkind;
      if (!have_n) fail("'b' before 'n'");
      if (!(ss >> bkind)) fail("bad block line");
      try {
        if (bkind == "clique") {
          std::size_t a0 = 0, a1 = 0;
          if (!(ss >> a0 >> a1)) fail("bad clique block");
          g.add_implicit_block(ImplicitBlock::clique(a0, a1));
        } else if (bkind == "biclique") {
          std::size_t a0 = 0, a1 = 0, b0 = 0, b1 = 0;
          if (!(ss >> a0 >> a1 >> b0 >> b1)) fail("bad biclique block");
          g.add_implicit_block(ImplicitBlock::biclique(a0, a1, b0, b1));
        } else if (bkind == "grid") {
          std::size_t base = 0, stride = 0, rows = 0, row_len = 0;
          if (!(ss >> base >> stride >> rows >> row_len)) {
            fail("bad grid block");
          }
          g.add_implicit_block(
              ImplicitBlock::anti_matching_grid(base, stride, rows, row_len));
        } else {
          fail("unknown block kind");
        }
      } catch (const InvariantError&) {
        fail("invalid block parameters");
      }
    } else if (kind == 'e') {
      std::size_t u = 0, v = 0;
      if (!have_n) fail("'e' before 'n'");
      if (!(ss >> u >> v) || u >= g.num_nodes() || v >= g.num_nodes() || u == v) {
        fail("bad edge line");
      }
      edges.emplace_back(u, v);
    } else {
      fail("unknown record kind");
    }
  }
  CLB_EXPECT(have_n, "read_edge_list: missing 'n' line");
  g.add_edges(edges);
  return g;
}

void write_dot(std::ostream& os, const Graph& g, const DotOptions& opts) {
  os << "graph " << opts.graph_name << " {\n";
  os << "  node [shape=circle];\n";

  // Group nodes by cluster.
  std::map<std::string, std::vector<NodeId>> groups;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto it = opts.cluster.find(v);
    groups[it == opts.cluster.end() ? std::string{} : it->second].push_back(v);
  }
  auto emit_node = [&](NodeId v, const char* indent) {
    os << indent << 'n' << v << " [label=\"";
    if (!g.label(v).empty()) {
      os << g.label(v);
    } else {
      os << v;
    }
    if (opts.show_weights && g.weight(v) != 1) os << "\\nw=" << g.weight(v);
    os << "\"];\n";
  };
  std::size_t cluster_idx = 0;
  for (const auto& [name, nodes] : groups) {
    if (name.empty()) {
      for (NodeId v : nodes) emit_node(v, "  ");
    } else {
      os << "  subgraph cluster_" << cluster_idx++ << " {\n";
      os << "    label=\"" << name << "\";\n";
      for (NodeId v : nodes) emit_node(v, "    ");
      os << "  }\n";
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.explicit_neighbors(u)) {
      if (u < v) os << "  n" << u << " -- n" << v << ";\n";
    }
  }
  for (const auto& b : g.implicit_blocks()) {
    b.for_each_edge([&](NodeId u, NodeId v) {
      os << "  n" << u << " -- n" << v << ";\n";
    });
  }
  os << "}\n";
}

}  // namespace congestlb::graph
