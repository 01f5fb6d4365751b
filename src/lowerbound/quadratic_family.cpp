#include "lowerbound/quadratic_family.hpp"

#include <algorithm>
#include <cmath>

#include "support/expect.hpp"

namespace congestlb::lb {

QuadraticConstruction::QuadraticConstruction(GadgetParams params,
                                             std::size_t t)
    : QuadraticConstruction(std::move(params), t, BuildOptions{}) {}

QuadraticConstruction::QuadraticConstruction(GadgetParams params,
                                             std::size_t t,
                                             const BuildOptions& opts)
    : params_(std::move(params)), t_(t), base_(params_, opts), g_(0) {
  CLB_EXPECT(t_ >= 1, "quadratic construction: t >= 1");
  const std::size_t npc = params_.nodes_per_copy();
  const std::size_t p = params_.clique_size();
  const std::size_t m_pos = params_.num_positions();
  const std::size_t k = params_.k;

  // Per-copy structure: 2t copies of H, copy (i, b) at offset
  // (2i + b) * npc — the base gadget built with the same options, tiled
  // (see LinearConstruction) — then the fixed weights w_F: the A cliques
  // weigh ell.
  g_ = graph::Graph::tiled(base_.graph(), 2 * t_);
  for (std::size_t c = 0; c < 2 * t_; ++c) {
    for (std::size_t m = 0; m < k; ++m) {
      g_.set_weight(c * npc + m, static_cast<graph::Weight>(params_.ell));
    }
  }

  if (!opts.skip_labels) {
    for (std::size_t i = 0; i < t_; ++i) {
      for (std::size_t b = 0; b < 2; ++b) {
        const NodeId offset = a_node(i, b, 0);
        for (NodeId local = 0; local < npc; ++local) {
          g_.set_label(offset + local, base_.graph().label(local) + "^(" +
                                           std::to_string(i + 1) + "," +
                                           std::to_string(b + 1) + ")");
        }
      }
    }
  }

  // Within each block b: the Figure-2 anti-matchings between copies — one
  // grid per (b, h) over rows = copies (stride 2*npc), columns = symbols.
  // Grids below the threshold are merged into the tiled CSR by one
  // add_edges.
  graph::EdgeList edges;
  if (t_ >= 2) {
    for (std::size_t b = 0; b < 2; ++b) {
      for (std::size_t h = 0; h < m_pos; ++h) {
        g_.add_anti_matching_grid(static_cast<NodeId>(b * npc + k + h * p),
                                  2 * npc, t_, p, edges);
      }
    }
  }
  g_.add_edges(edges);
}

graph::Graph QuadraticConstruction::instantiate(
    const comm::PromiseInstance& inst) const {
  comm::validate(inst);
  CLB_EXPECT(inst.k == string_length(),
             "instantiate: instance string length must be k^2");
  CLB_EXPECT(inst.t == t_, "instantiate: instance t mismatch");
  graph::Graph fx = g_;  // shares g_'s CSR until the merge below
  graph::EdgeList zero_edges;
  zero_edges.reserve(t_ * params_.k * params_.k);
  for (std::size_t i = 0; i < t_; ++i) {
    for (std::size_t m1 = 0; m1 < params_.k; ++m1) {
      for (std::size_t m2 = 0; m2 < params_.k; ++m2) {
        if (inst.strings[i][pair_index(m1, m2)] == 0) {
          zero_edges.emplace_back(a_node(i, 0, m1), a_node(i, 1, m2));
        }
      }
    }
  }
  fx.add_edges(zero_edges);
  return fx;
}

NodeId QuadraticConstruction::a_node(std::size_t i, std::size_t b,
                                     std::size_t m) const {
  CLB_EXPECT(i < t_, "quadratic construction: player index out of range");
  CLB_EXPECT(b < 2, "quadratic construction: block index out of range");
  const std::size_t npc = params_.nodes_per_copy();
  return i * 2 * npc + b * npc + base_.a_node(m);
}

NodeId QuadraticConstruction::code_node(std::size_t i, std::size_t b,
                                        std::size_t h, std::size_t r) const {
  CLB_EXPECT(i < t_, "quadratic construction: player index out of range");
  CLB_EXPECT(b < 2, "quadratic construction: block index out of range");
  const std::size_t npc = params_.nodes_per_copy();
  return i * 2 * npc + b * npc + base_.code_node(h, r);
}

std::vector<NodeId> QuadraticConstruction::codeword_nodes(std::size_t i,
                                                          std::size_t b,
                                                          std::size_t m) const {
  std::vector<NodeId> out = base_.codeword_nodes(m);
  const NodeId offset = a_node(i, b, 0);
  for (NodeId& v : out) v += offset;
  return out;
}

std::size_t QuadraticConstruction::pair_index(std::size_t m1,
                                              std::size_t m2) const {
  CLB_EXPECT(m1 < params_.k && m2 < params_.k,
             "pair_index: message index out of range");
  return m1 * params_.k + m2;
}

std::pair<NodeId, NodeId> QuadraticConstruction::partition_range(
    std::size_t i) const {
  CLB_EXPECT(i < t_, "quadratic construction: player index out of range");
  const std::size_t span = 2 * params_.nodes_per_copy();
  return {i * span, (i + 1) * span};
}

std::vector<NodeId> QuadraticConstruction::partition(std::size_t i) const {
  auto [lo, hi] = partition_range(i);
  std::vector<NodeId> out;
  out.reserve(hi - lo);
  for (NodeId v = lo; v < hi; ++v) out.push_back(v);
  return out;
}

std::size_t QuadraticConstruction::owner(NodeId v) const {
  CLB_EXPECT(v < num_nodes(), "quadratic construction: node out of range");
  return v / (2 * params_.nodes_per_copy());
}

std::vector<std::pair<NodeId, NodeId>> QuadraticConstruction::cut_edges()
    const {
  std::vector<std::pair<NodeId, NodeId>> cut;
  const auto consider = [&](NodeId u, NodeId v) {
    if (owner(u) != owner(v)) cut.emplace_back(u, v);
  };
  if (!g_.has_implicit_blocks()) {
    for (auto [u, v] : graph::edge_list(g_)) consider(u, v);
    return cut;
  }
  for (NodeId u = 0; u < g_.num_nodes(); ++u) {
    for (NodeId v : g_.explicit_neighbors(u)) {
      if (u < v) consider(u, v);
    }
  }
  for (const auto& b : g_.implicit_blocks()) b.for_each_edge(consider);
  std::sort(cut.begin(), cut.end());
  return cut;
}

std::size_t QuadraticConstruction::cut_size() const {
  const std::size_t p = params_.clique_size();
  return 2 * (t_ * (t_ - 1) / 2) * params_.num_positions() * p * (p - 1);
}

std::vector<NodeId> QuadraticConstruction::yes_witness(std::size_t m1,
                                                       std::size_t m2) const {
  std::vector<NodeId> out;
  out.reserve(2 * t_ * (1 + params_.num_positions()));
  for (std::size_t i = 0; i < t_; ++i) {
    out.push_back(a_node(i, 0, m1));
    auto cw1 = codeword_nodes(i, 0, m1);
    out.insert(out.end(), cw1.begin(), cw1.end());
    out.push_back(a_node(i, 1, m2));
    auto cw2 = codeword_nodes(i, 1, m2);
    out.insert(out.end(), cw2.begin(), cw2.end());
  }
  return out;
}

graph::Weight QuadraticConstruction::yes_weight() const {
  return static_cast<graph::Weight>(t_ * (4 * params_.ell + 2 * params_.alpha));
}

graph::Weight QuadraticConstruction::no_bound() const {
  const auto ell = static_cast<graph::Weight>(params_.ell);
  const auto alpha = static_cast<graph::Weight>(params_.alpha);
  const auto t = static_cast<graph::Weight>(t_);
  return 3 * (t + 1) * ell + 3 * alpha * t * t * t;
}

double QuadraticConstruction::hardness_ratio() const {
  return static_cast<double>(no_bound()) / static_cast<double>(yes_weight());
}

double quadratic_hardness_ratio_formula(std::size_t ell, std::size_t alpha,
                                        std::size_t t) {
  CLB_EXPECT(t >= 1, "hardness ratio: t >= 1");
  const double no = 3.0 * (t + 1.0) * ell + 3.0 * alpha * t * t * t;
  const double yes = t * (4.0 * ell + 2.0 * alpha);
  return no / yes;
}

std::size_t quadratic_players_for_epsilon(double eps) {
  CLB_EXPECT(eps > 0.0 && eps < 0.25,
             "Theorem 2 applies for 0 < eps < 1/4");
  const double t = 3.0 / (4.0 * eps) - 1.0;
  return static_cast<std::size_t>(std::max(2.0, std::ceil(t)));
}

}  // namespace congestlb::lb
