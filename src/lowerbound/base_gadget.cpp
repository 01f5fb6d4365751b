#include "lowerbound/base_gadget.hpp"

#include "support/expect.hpp"

namespace congestlb::lb {

BaseGadget::BaseGadget(GadgetParams params)
    : BaseGadget(std::move(params), BuildOptions{}) {}

BaseGadget::BaseGadget(GadgetParams params, const BuildOptions& opts)
    : params_(std::move(params)), g_(params_.nodes_per_copy()) {
  const std::size_t k = params_.k;
  const std::size_t m_pos = params_.num_positions();
  const std::size_t p = params_.clique_size();
  const auto& code = *params_.code;
  g_.set_implicit_block_threshold(opts.implicit_threshold);

  codewords_.reserve(k);
  for (std::size_t m = 0; m < k; ++m) {
    codewords_.push_back(code.encode_index(m));
    CLB_EXPECT(codewords_.back().size() == m_pos,
               "base gadget: codeword length != ell+alpha");
  }

  // Labels (presentation only; used by the figure generator).
  if (!opts.skip_labels) {
    for (std::size_t m = 0; m < k; ++m) {
      std::string name = "v";
      name += std::to_string(m + 1);
      g_.set_label(a_node(m), std::move(name));
    }
    for (std::size_t h = 0; h < m_pos; ++h) {
      for (std::size_t r = 0; r < p; ++r) {
        g_.set_label(code_node(h, r), "s(" + std::to_string(h + 1) + "," +
                                          std::to_string(r + 1) + ")");
      }
    }
  }

  // Bulk construction: the cliques and the codeword stars go into one
  // batch, so the gadget's CSR is built once.
  graph::EdgeList edges;
  edges.reserve(k * (k - 1) / 2 + m_pos * p * (p - 1) / 2 +
                k * m_pos * (p - 1));
  // The clique A.
  g_.add_clique(a_nodes(), edges);
  // The code-gadget cliques C_h.
  for (std::size_t h = 0; h < m_pos; ++h) {
    g_.add_clique(clique_nodes(h), edges);
  }
  // v_m <-> Code \ Code_m.
  for (std::size_t m = 0; m < k; ++m) {
    const codes::Word& w = codewords_[m];
    for (std::size_t h = 0; h < m_pos; ++h) {
      for (std::size_t r = 0; r < p; ++r) {
        if (r != w[h]) edges.emplace_back(a_node(m), code_node(h, r));
      }
    }
  }
  g_.add_edges(edges);
}

NodeId BaseGadget::a_node(std::size_t m) const {
  CLB_EXPECT(m < params_.k, "base gadget: message index out of range");
  return m;
}

NodeId BaseGadget::code_node(std::size_t h, std::size_t r) const {
  CLB_EXPECT(h < params_.num_positions(), "base gadget: position out of range");
  CLB_EXPECT(r < params_.clique_size(), "base gadget: symbol out of range");
  return params_.k + h * params_.clique_size() + r;
}

std::vector<NodeId> BaseGadget::a_nodes() const {
  std::vector<NodeId> out(params_.k);
  for (std::size_t m = 0; m < params_.k; ++m) out[m] = a_node(m);
  return out;
}

std::vector<NodeId> BaseGadget::clique_nodes(std::size_t h) const {
  std::vector<NodeId> out(params_.clique_size());
  for (std::size_t r = 0; r < params_.clique_size(); ++r) {
    out[r] = code_node(h, r);
  }
  return out;
}

std::vector<NodeId> BaseGadget::code_nodes() const {
  std::vector<NodeId> out;
  out.reserve(params_.num_positions() * params_.clique_size());
  for (std::size_t h = 0; h < params_.num_positions(); ++h) {
    for (std::size_t r = 0; r < params_.clique_size(); ++r) {
      out.push_back(code_node(h, r));
    }
  }
  return out;
}

std::vector<NodeId> BaseGadget::codeword_nodes(std::size_t m) const {
  const codes::Word& w = codeword(m);
  std::vector<NodeId> out(w.size());
  for (std::size_t h = 0; h < w.size(); ++h) {
    out[h] = code_node(h, static_cast<std::size_t>(w[h]));
  }
  return out;
}

const codes::Word& BaseGadget::codeword(std::size_t m) const {
  CLB_EXPECT(m < codewords_.size(), "base gadget: message index out of range");
  return codewords_[m];
}

}  // namespace congestlb::lb
