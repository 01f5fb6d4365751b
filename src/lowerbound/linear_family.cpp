#include "lowerbound/linear_family.hpp"

#include <algorithm>
#include <cmath>

#include "support/expect.hpp"

namespace congestlb::lb {

LinearConstruction::LinearConstruction(GadgetParams params, std::size_t t)
    : LinearConstruction(std::move(params), t, BuildOptions{}) {}

LinearConstruction::LinearConstruction(GadgetParams params, std::size_t t,
                                       const BuildOptions& opts)
    : params_(std::move(params)), t_(t), base_(params_), g_(0) {
  CLB_EXPECT(t_ >= 2, "linear construction: t >= 2");
  const std::size_t npc = params_.nodes_per_copy();
  const std::size_t p = params_.clique_size();
  const std::size_t m_pos = params_.num_positions();
  const std::size_t k = params_.k;
  g_ = graph::Graph(t_ * npc);
  g_.set_implicit_block_threshold(opts.implicit_threshold);

  if (!opts.skip_labels) {
    for (std::size_t i = 0; i < t_; ++i) {
      const NodeId offset = i * npc;
      for (NodeId local = 0; local < npc; ++local) {
        g_.set_label(offset + local,
                     base_.graph().label(local) + "^" + std::to_string(i + 1));
      }
    }
  }

  // Per-copy structure: the clique A^i, the code cliques C^i_h, and the
  // codeword star edges v^i_m <-> Code^i \ Code^i_m. All are contiguous id
  // ranges, so the cliques become blocks above the threshold; the stars are
  // the irreducibly explicit part (k * (ell+alpha) * (p-1) per copy). Every
  // sub-threshold edge joins one batch, so the fixed graph's CSR is built
  // once.
  graph::EdgeList edges;
  edges.reserve(t_ * base_.graph().num_edges());  // per-copy cliques + stars
  for (std::size_t i = 0; i < t_; ++i) {
    std::vector<NodeId> a(k);
    for (std::size_t m = 0; m < k; ++m) a[m] = a_node(i, m);
    g_.add_clique(a, edges);
    for (std::size_t h = 0; h < m_pos; ++h) {
      g_.add_clique(clique_nodes(i, h), edges);
    }
    for (std::size_t m = 0; m < k; ++m) {
      const codes::Word& w = base_.codeword(m);
      for (std::size_t h = 0; h < m_pos; ++h) {
        for (std::size_t r = 0; r < p; ++r) {
          if (r != w[h]) edges.emplace_back(a_node(i, m), code_node(i, h, r));
        }
      }
    }
  }

  // Inter-copy connections (Figure 2): for each position h, all edges
  // between C^i_h and C^j_h (i != j) except the natural perfect matching —
  // exactly one anti-matching grid over rows = copies, columns = symbols,
  // covering every copy pair at once (block count stays ell+alpha, not
  // C(t,2) * (ell+alpha)).
  for (std::size_t h = 0; h < m_pos; ++h) {
    g_.add_anti_matching_grid(static_cast<NodeId>(k + h * p), npc, t_, p,
                              edges);
  }
  g_.add_edges(edges);
}

LinearConstruction::LinearConstruction(GadgetParams params, std::size_t t,
                                       graph::Graph cached_fixed)
    : params_(std::move(params)),
      t_(t),
      base_(params_),
      g_(std::move(cached_fixed)) {
  CLB_EXPECT(t_ >= 2, "linear construction: t >= 2");
  CLB_EXPECT(g_.num_nodes() == t_ * params_.nodes_per_copy(),
             "cached linear construction: node count mismatch");
  const std::size_t expected_edges =
      t_ * base_.graph().num_edges() + cut_size();
  CLB_EXPECT(g_.num_edges() == expected_edges,
             "cached linear construction: edge count mismatch");
}

graph::Graph LinearConstruction::instantiate(
    const comm::PromiseInstance& inst) const {
  comm::validate(inst);
  CLB_EXPECT(inst.k == params_.k, "instantiate: instance k mismatch");
  CLB_EXPECT(inst.t == t_, "instantiate: instance t mismatch");
  return instantiate_raw(inst.strings);
}

graph::Graph LinearConstruction::instantiate_raw(
    const std::vector<std::vector<std::uint8_t>>& strings) const {
  CLB_EXPECT(strings.size() == t_, "instantiate_raw: wrong player count");
  // Copies only the weights and the block table; the CSR is shared, so an
  // instance is a weight overlay on the fixed graph.
  graph::Graph gx = g_;
  for (std::size_t i = 0; i < t_; ++i) {
    CLB_EXPECT(strings[i].size() == params_.k,
               "instantiate_raw: wrong string length");
    for (std::size_t m = 0; m < params_.k; ++m) {
      CLB_EXPECT(strings[i][m] <= 1, "instantiate_raw: non-binary entry");
      if (strings[i][m]) {
        gx.set_weight(a_node(i, m), static_cast<graph::Weight>(params_.ell));
      }
    }
  }
  return gx;
}

NodeId LinearConstruction::a_node(std::size_t i, std::size_t m) const {
  CLB_EXPECT(i < t_, "linear construction: player index out of range");
  return i * params_.nodes_per_copy() + base_.a_node(m);
}

NodeId LinearConstruction::code_node(std::size_t i, std::size_t h,
                                     std::size_t r) const {
  CLB_EXPECT(i < t_, "linear construction: player index out of range");
  return i * params_.nodes_per_copy() + base_.code_node(h, r);
}

std::vector<NodeId> LinearConstruction::codeword_nodes(std::size_t i,
                                                       std::size_t m) const {
  CLB_EXPECT(i < t_, "linear construction: player index out of range");
  std::vector<NodeId> out = base_.codeword_nodes(m);
  for (NodeId& v : out) v += i * params_.nodes_per_copy();
  return out;
}

std::vector<NodeId> LinearConstruction::clique_nodes(std::size_t i,
                                                     std::size_t h) const {
  CLB_EXPECT(i < t_, "linear construction: player index out of range");
  std::vector<NodeId> out = base_.clique_nodes(h);
  for (NodeId& v : out) v += i * params_.nodes_per_copy();
  return out;
}

std::pair<NodeId, NodeId> LinearConstruction::partition_range(
    std::size_t i) const {
  CLB_EXPECT(i < t_, "linear construction: player index out of range");
  const std::size_t npc = params_.nodes_per_copy();
  return {i * npc, (i + 1) * npc};
}

std::vector<NodeId> LinearConstruction::partition(std::size_t i) const {
  auto [lo, hi] = partition_range(i);
  std::vector<NodeId> out;
  out.reserve(hi - lo);
  for (NodeId v = lo; v < hi; ++v) out.push_back(v);
  return out;
}

std::size_t LinearConstruction::owner(NodeId v) const {
  CLB_EXPECT(v < num_nodes(), "linear construction: node out of range");
  return v / params_.nodes_per_copy();
}

std::vector<std::pair<NodeId, NodeId>> LinearConstruction::cut_edges() const {
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

std::size_t LinearConstruction::cut_size() const {
  const std::size_t p = params_.clique_size();
  return t_ * (t_ - 1) / 2 * params_.num_positions() * p * (p - 1);
}

std::vector<NodeId> LinearConstruction::yes_witness(std::size_t m) const {
  std::vector<NodeId> out;
  out.reserve(t_ * (1 + params_.num_positions()));
  for (std::size_t i = 0; i < t_; ++i) {
    out.push_back(a_node(i, m));
    const auto cw = codeword_nodes(i, m);
    out.insert(out.end(), cw.begin(), cw.end());
  }
  return out;
}

graph::Weight LinearConstruction::yes_weight() const {
  return linear_yes_weight_formula(params_, t_);
}

graph::Weight LinearConstruction::no_bound() const {
  return linear_no_bound_formula(params_, t_);
}

graph::Weight linear_yes_weight_formula(const GadgetParams& p, std::size_t t) {
  return static_cast<graph::Weight>(t * (2 * p.ell + p.alpha));
}

graph::Weight linear_no_bound_formula(const GadgetParams& p, std::size_t t) {
  const auto ell = static_cast<graph::Weight>(p.ell);
  const auto alpha = static_cast<graph::Weight>(p.alpha);
  const auto tw = static_cast<graph::Weight>(t);
  if (t == 2) return 3 * ell + 2 * alpha + 1;  // Claim 2
  return (tw + 1) * ell + alpha * tw * tw;     // Claim 5
}

double LinearConstruction::hardness_ratio() const {
  return static_cast<double>(no_bound()) / static_cast<double>(yes_weight());
}

double linear_hardness_ratio_formula(std::size_t ell, std::size_t alpha,
                                     std::size_t t) {
  CLB_EXPECT(t >= 2, "hardness ratio: t >= 2");
  const double no =
      t == 2 ? 3.0 * ell + 2.0 * alpha + 1.0
             : (t + 1.0) * ell + 1.0 * alpha * t * t;
  const double yes = t * (2.0 * ell + alpha);
  return no / yes;
}

std::size_t linear_players_for_epsilon(double eps) {
  CLB_EXPECT(eps > 0.0 && eps < 0.5,
             "Theorem 1 applies for 0 < eps < 1/2");
  return static_cast<std::size_t>(std::ceil(2.0 / eps));
}

}  // namespace congestlb::lb
