#include "graph/io.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
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

namespace {

[[noreturn]] void read_error(const char* why, std::size_t lineno) {
  throw InvariantError("read_edge_list: " + std::string(why) + " at line " +
                       std::to_string(lineno));
}

/// The block contract (implicit.hpp): blocks are edge-disjoint from each
/// other and from the explicit edges. Then every node's merged cursor
/// visits degree(v) neighbours; a shared edge makes it visit fewer, since
/// the merge yields each neighbour once. Throws at the later of the records
/// that define a shared edge.
void expect_edge_disjoint_blocks(const Graph& g,
                                 std::span<const std::size_t> block_line,
                                 const EdgeList& edges,
                                 std::span<const std::size_t> edge_line) {
  const auto& blocks = g.implicit_blocks();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    if (static_cast<std::size_t>(std::distance(nb.begin(), nb.end())) ==
        nb.size()) {
      continue;
    }
    for (const NodeId u : nb) {
      std::size_t sources = 0, line = 0;
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (!blocks[i].is_edge(v, u)) continue;
        ++sources;
        line = std::max(line, block_line[i]);
      }
      const auto row = g.explicit_neighbors(v);
      if (std::binary_search(row.begin(), row.end(), u)) {
        ++sources;
        for (std::size_t j = 0; j < edges.size(); ++j) {
          if (edges[j] == std::pair(v, u) || edges[j] == std::pair(u, v)) {
            line = std::max(line, edge_line[j]);
            break;
          }
        }
      }
      if (sources > 1) {
        read_error("implicit block overlaps another block or an explicit edge",
                   line);
      }
    }
  }
}

}  // namespace

Graph read_edge_list(std::istream& is) {
  std::string line;
  Graph g;
  EdgeList edges;
  std::vector<std::size_t> edge_line, block_line;
  bool have_n = false;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    char kind = 0;
    ss >> kind;
    auto fail = [&](const char* why) { read_error(why, lineno); };
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
      block_line.push_back(lineno);
    } else if (kind == 'e') {
      std::size_t u = 0, v = 0;
      if (!have_n) fail("'e' before 'n'");
      if (!(ss >> u >> v) || u >= g.num_nodes() || v >= g.num_nodes() || u == v) {
        fail("bad edge line");
      }
      edges.emplace_back(u, v);
      edge_line.push_back(lineno);
    } else {
      fail("unknown record kind");
    }
  }
  CLB_EXPECT(have_n, "read_edge_list: missing 'n' line");
  g.add_edges(edges);
  if (!block_line.empty()) {
    expect_edge_disjoint_blocks(g, block_line, edges, edge_line);
  }
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
