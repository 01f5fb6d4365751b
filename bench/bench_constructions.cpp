// Experiments F1-F6: regenerate the paper's figures as concrete graphs.
//
// Figure 1: the base graph H at ell = 2, alpha = 1, k = 3.
// Figure 2: the anti-matching between C^i_h and C^j_h.
// Figure 3: the 3-player linear construction and its Property-1 IS.
// Figures 4-6: the quadratic construction F for t = 2 and its input edges.
//
// Each figure is emitted both as a summary table (stdout) and as a
// Graphviz .dot file under ./figures/ for visual comparison with the paper.
// Every "built" value is compared with the paper's; any mismatch makes the
// bench exit 1.

#include <filesystem>
#include <fstream>
#include <iostream>

#include "comm/instances.hpp"
#include "graph/io.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/quadratic_family.hpp"
#include "maxis/branch_and_bound.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
using clb::Table;

namespace {

/// False once a built value misses the paper's.
bool all_match = true;

bool holds(bool ok) {
  all_match = all_match && ok;
  return ok;
}

/// One "paper" vs "built" row; the paper's value is `want`.
void paper_row(Table& t, const std::string& object, const std::string& paper,
               std::size_t want, std::size_t built) {
  holds(built == want);
  t.row(object, paper, built);
}

void dump_dot(const std::string& name, const clb::graph::Graph& g,
              const clb::graph::DotOptions& opts) {
  std::filesystem::create_directories("figures");
  std::ofstream out("figures/" + name + ".dot");
  clb::graph::write_dot(out, g, opts);
  std::cout << "  wrote figures/" << name << ".dot (" << g.num_nodes()
            << " nodes, " << g.num_edges() << " edges)\n";
}

void figure1() {
  clb::print_heading(std::cout, "Figure 1 — base graph H (ell=2, alpha=1, k=3)");
  const auto p = clb::lb::GadgetParams::from_l_alpha(2, 1, 3);
  const clb::lb::BaseGadget h(p);

  std::size_t a_edges = 0;
  for (std::size_t m = 0; m < p.k; ++m) {
    for (std::size_t m2 = m + 1; m2 < p.k; ++m2) {
      a_edges += h.graph().has_edge(h.a_node(m), h.a_node(m2)) ? 1 : 0;
    }
  }
  Table t({"object", "paper", "built"});
  paper_row(t, "clique A size (k)", "3", 3, p.k);
  paper_row(t, "code cliques (ell+alpha)", "3", 3, p.num_positions());
  paper_row(t, "clique size", "3", 3, p.clique_size());
  paper_row(t, "nodes", "12", 12, h.graph().num_nodes());
  paper_row(t, "|E(A)|", "3", 3, a_edges);
  paper_row(t, "total edges", "30", 30, h.graph().num_edges());
  t.print(std::cout);

  // The Figure-1 statement: v_1 is connected to all of Code except Code_1.
  const auto cw = h.codeword_nodes(0);
  std::size_t non_neighbors = 0;
  for (clb::graph::NodeId u : h.code_nodes()) {
    if (!h.graph().has_edge(h.a_node(0), u)) ++non_neighbors;
  }
  std::cout << "  v1 non-neighbors in Code: " << non_neighbors
            << " (= |Code_1| = " << cw.size() << ") -> "
            << (holds(non_neighbors == cw.size()) ? "matches Figure 1"
                                                  : "MISMATCH")
            << "\n";

  clb::graph::DotOptions opts;
  for (std::size_t m = 0; m < p.k; ++m) opts.cluster[h.a_node(m)] = "A";
  for (std::size_t pos = 0; pos < p.num_positions(); ++pos) {
    for (std::size_t r = 0; r < p.clique_size(); ++r) {
      opts.cluster[h.code_node(pos, r)] = "C" + std::to_string(pos + 1);
    }
  }
  dump_dot("figure1_base_gadget", h.graph(), opts);
}

void figure2() {
  clb::print_heading(std::cout,
                     "Figure 2 — anti-matching between C^i_h and C^j_h (p=3)");
  const auto p = clb::lb::GadgetParams::from_l_alpha(2, 1, 3);
  const clb::lb::LinearConstruction c(p, 2);
  std::cout << "  adjacency of sigma^1_(1,r) x sigma^2_(1,r') "
               "(1 = edge; diagonal must be 0):\n";
  for (std::size_t r1 = 0; r1 < p.clique_size(); ++r1) {
    std::cout << "    ";
    for (std::size_t r2 = 0; r2 < p.clique_size(); ++r2) {
      // An anti-matching: every pair except the diagonal is an edge.
      const bool edge = c.fixed_graph().has_edge(c.code_node(0, 0, r1),
                                                 c.code_node(1, 0, r2));
      holds(edge == (r1 != r2));
      std::cout << (edge ? "1 " : "0 ");
    }
    std::cout << "\n";
  }
}

void figure3() {
  clb::print_heading(std::cout,
                     "Figure 3 — 3-player construction, Property-1 witness");
  const auto p = clb::lb::GadgetParams::from_l_alpha(2, 1, 3);
  const clb::lb::LinearConstruction c(p, 3);
  Table t({"object", "paper", "built"});
  paper_row(t, "players t", "3", 3, c.num_players());
  paper_row(t, "nodes", "36", 36, c.num_nodes());
  paper_row(t, "cut edges", "t(t-1)/2*(l+a)*p(p-1) = 54", 54,
            c.cut_edges().size());
  t.print(std::cout);

  const auto witness = c.yes_witness(0);
  holds(witness.size() == 12);
  std::cout << "  {v^i_1} U Code^i_1 over i=1..3: independent = "
            << (holds(c.fixed_graph().is_independent_set(witness)) ? "yes"
                                                                   : "NO")
            << ", size = " << witness.size() << " (paper: t(1+l+a) = 12)\n";

  clb::graph::DotOptions opts;
  for (std::size_t i = 0; i < 3; ++i) {
    for (clb::graph::NodeId v : c.partition(i)) {
      opts.cluster[v] = "V^" + std::to_string(i + 1);
    }
  }
  dump_dot("figure3_linear_t3", c.fixed_graph(), opts);
}

void figures456() {
  clb::print_heading(std::cout,
                     "Figures 4-6 — quadratic construction F (t=2)");
  const auto p = clb::lb::GadgetParams::from_l_alpha(2, 1, 3);
  const clb::lb::QuadraticConstruction c(p, 2);
  Table t({"object", "paper", "built"});
  paper_row(t, "nodes", "2t * |V_H copy| = 48", 48, c.num_nodes());
  paper_row(t, "string length k^2", "9", 9, c.string_length());
  const auto a_weight = c.fixed_graph().weight(c.a_node(0, 0, 0));
  paper_row(t, "A-node weight", "ell = 2", 2,
            static_cast<std::size_t>(a_weight));
  paper_row(t, "cut edges", "2*C(t,2)*(l+a)*p(p-1) = 36", 36,
            c.cut_edges().size());
  t.print(std::cout);

  // Figure 6: x^1_(1,1) = 0, everything else 1 -> exactly one input edge.
  clb::comm::PromiseInstance inst;
  inst.k = 9;
  inst.t = 2;
  inst.kind = clb::comm::PromiseKind::kUniquelyIntersecting;
  inst.strings = {std::vector<std::uint8_t>(9, 1),
                  std::vector<std::uint8_t>(9, 1)};
  inst.strings[0][c.pair_index(0, 0)] = 0;
  inst.witness = c.pair_index(1, 1);
  const auto fx = c.instantiate(inst);
  const std::size_t added = fx.num_edges() - c.fixed_graph().num_edges();
  holds(added == 1);
  std::cout << "  Figure 6 input-edge check: added edges = " << added
            << " (paper: 1), placed at v^(1,1)_1 -- v^(1,2)_1: "
            << (holds(fx.has_edge(c.a_node(0, 0, 0), c.a_node(0, 1, 0)))
                    ? "yes"
                    : "NO")
            << "\n";

  clb::graph::DotOptions opts;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t b = 0; b < 2; ++b) {
      const auto base = c.a_node(i, b, 0);
      for (std::size_t off = 0; off < p.nodes_per_copy(); ++off) {
        opts.cluster[base + off] =
            "V^(" + std::to_string(i + 1) + "," + std::to_string(b + 1) + ")";
      }
    }
  }
  dump_dot("figure5_quadratic_t2", fx, opts);
}

}  // namespace

int main() {
  std::cout << "=== bench_constructions: Figures 1-6 as built objects ===\n";
  figure1();
  figure2();
  figure3();
  figures456();
  if (!all_match) {
    std::cout << "\nMISMATCH against the paper — see tables above.\n";
    return 1;
  }
  std::cout << "\nAll construction checks completed.\n";
  return 0;
}
