#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/expect.hpp"

namespace congestlb::graph {

CsrScatter::CsrScatter(std::vector<std::uint32_t> degree)
    : cursor_(std::move(degree)) {
  const std::size_t n = cursor_.size();
  csr_.offsets.resize(n + 1);
  csr_.offsets[0] = 0;
  for (std::size_t v = 0; v < n; ++v) {
    csr_.offsets[v + 1] = csr_.offsets[v] + cursor_[v];
  }
  csr_.targets.resize(csr_.offsets[n]);
  // The degree array becomes the per-row fill cursor.
  std::fill(cursor_.begin(), cursor_.end(), 0);
}

void CsrScatter::scatter(std::span<const std::pair<NodeId, NodeId>> pairs) {
  for (auto [u, v] : pairs) {
    csr_.targets[csr_.offsets[u] + cursor_[u]++] = v;
    csr_.targets[csr_.offsets[v] + cursor_[v]++] = u;
  }
}

Csr CsrScatter::finish() {
  const std::size_t n = cursor_.size();
  for (std::size_t v = 0; v < n; ++v) {
    CLB_EXPECT(cursor_[v] == csr_.offsets[v + 1] - csr_.offsets[v],
               "CSR scatter: pair count differs from the degree counts");
    const auto row_begin = csr_.targets.begin() + csr_.offsets[v];
    const auto row_end = csr_.targets.begin() + csr_.offsets[v + 1];
    if (!std::is_sorted(row_begin, row_end)) std::sort(row_begin, row_end);
  }
  cursor_ = {};
  return std::move(csr_);
}

namespace {

std::shared_ptr<const Csr> empty_csr(std::size_t n) {
  auto csr = std::make_shared<Csr>();
  csr->offsets.assign(n + 1, 0);
  return csr;
}

/// The CSR of every node-free graph, shared so that default construction
/// and moves do not allocate.
const std::shared_ptr<const Csr>& no_nodes_csr() {
  static const std::shared_ptr<const Csr> csr = empty_csr(0);
  return csr;
}

}  // namespace

Graph::Graph(std::size_t n, Weight default_weight)
    : adj_(n == 0 ? no_nodes_csr() : empty_csr(n)),
      weight_(n, default_weight) {}

Graph::Graph(Graph&& other) noexcept
    : adj_(std::exchange(other.adj_, no_nodes_csr())),
      weight_(std::move(other.weight_)),
      label_(std::move(other.label_)),
      blocks_(std::move(other.blocks_)),
      implicit_edges_(std::exchange(other.implicit_edges_, 0)),
      implicit_threshold_(other.implicit_threshold_) {
  other.weight_.clear();
  other.label_.clear();
  other.blocks_.clear();
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) return *this;
  adj_ = std::exchange(other.adj_, no_nodes_csr());
  weight_ = std::move(other.weight_);
  label_ = std::move(other.label_);
  blocks_ = std::move(other.blocks_);
  implicit_edges_ = std::exchange(other.implicit_edges_, 0);
  implicit_threshold_ = other.implicit_threshold_;
  other.weight_.clear();
  other.label_.clear();
  other.blocks_.clear();
  return *this;
}

NodeId Graph::add_node(Weight w, std::string label) {
  auto next = std::make_shared<Csr>(*adj_);
  next->offsets.push_back(next->offsets.back());
  adj_ = std::move(next);
  weight_.push_back(w);
  if (!label_.empty() || !label.empty()) {
    label_.resize(weight_.size() - 1);
    label_.push_back(std::move(label));
  }
  return weight_.size() - 1;
}

void Graph::check_node(NodeId v) const {
  CLB_EXPECT(v < weight_.size(), "node id out of range");
}

bool Graph::add_edge(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  if (u != v && std::ranges::binary_search(adj_->row(u), v)) return false;
  const std::pair<NodeId, NodeId> e{u, v};
  return add_edges({&e, 1}) == 1;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  if (u == v) return false;
  const auto nu = adj_->row(u);
  if (std::binary_search(nu.begin(), nu.end(), v)) return true;
  for (const auto& b : blocks_) {
    if (b.is_edge(u, v)) return true;
  }
  return false;
}

std::size_t Graph::add_edges(
    std::span<const std::pair<NodeId, NodeId>> edges) {
  if (edges.empty()) return 0;
  CLB_EXPECT(edges.size() < std::numeric_limits<std::uint32_t>::max(),
             "add_edges: batch too large for 32-bit row counts");
  // Validate the whole batch before anything changes: a throw leaves the
  // graph exactly as it was.
  std::vector<std::uint32_t> degree(num_nodes(), 0);
  for (auto [u, v] : edges) {
    check_node(u);
    check_node(v);
    CLB_EXPECT(u != v, "self-loops are not allowed");
    ++degree[u];
    ++degree[v];
  }
  CsrScatter batch(std::move(degree));
  batch.scatter(edges);
  return merge_rows(batch.finish());
}

std::size_t Graph::merge_rows(Csr batch) {
  const Csr& base = *adj_;
  const std::size_t n = num_nodes();
  // With no explicit edges yet the batch rows dedupe in place: the write
  // cursor never passes the read cursor. Otherwise every row is the sorted
  // union of the old row and the batch row, written to fresh storage.
  const bool in_place = base.targets.empty();
  std::vector<NodeId> fresh;
  if (!in_place) fresh.resize(base.targets.size() + batch.targets.size());
  NodeId* const out = in_place ? batch.targets.data() : fresh.data();
  auto next = std::make_shared<Csr>();
  next->offsets.resize(n + 1);
  next->offsets[0] = 0;
  NodeId* w = out;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId* a = base.targets.data() + base.offsets[v];
    const NodeId* const a_end = base.targets.data() + base.offsets[v + 1];
    const NodeId* b = batch.targets.data() + batch.offsets[v];
    const NodeId* const b_end = batch.targets.data() + batch.offsets[v + 1];
    NodeId* const row = w;
    const auto emit = [&](NodeId x) {
      if (w == row || w[-1] != x) *w++ = x;
    };
    while (a != a_end && b != b_end) emit(*b < *a ? *b++ : *a++);
    while (a != a_end) emit(*a++);
    while (b != b_end) emit(*b++);
    next->offsets[v + 1] = static_cast<std::size_t>(w - out);
  }
  const std::size_t total = next->offsets[n];
  next->targets = in_place ? std::move(batch.targets) : std::move(fresh);
  next->targets.resize(total);
  next->targets.shrink_to_fit();
  const std::size_t added = (total - base.targets.size()) / 2;
  adj_ = std::move(next);
  return added;
}

namespace {

/// True when `nodes` is exactly the ascending contiguous range
/// [nodes.front(), nodes.front() + size).
bool is_contiguous_run(std::span<const NodeId> nodes) {
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i] != nodes[0] + i) return false;
  }
  return true;
}

}  // namespace

void Graph::add_implicit_block(const ImplicitBlock& b) {
  CLB_EXPECT(b.max_node_excl() <= num_nodes(),
             "implicit block range out of bounds");
  blocks_.push_back(b);
  implicit_edges_ += b.num_edges();
}

bool Graph::in_implicit_block(NodeId v) const {
  for (const auto& b : blocks_) {
    if (b.contains(v)) return true;
  }
  return false;
}

void Graph::add_clique(std::span<const NodeId> nodes) {
  EdgeList batch;
  add_clique(nodes, batch);
  add_edges(batch);
}

void Graph::add_clique(std::span<const NodeId> nodes, EdgeList& batch) {
  if (nodes.size() < 2) return;
  const std::size_t clique_edges = nodes.size() * (nodes.size() - 1) / 2;
  if (clique_edges >= implicit_threshold_ && is_contiguous_run(nodes)) {
    check_node(nodes.back());
    add_implicit_block(
        ImplicitBlock::clique(nodes.front(), nodes.front() + nodes.size()));
    return;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i] != nodes[j]) batch.emplace_back(nodes[i], nodes[j]);
    }
  }
}

void Graph::add_biclique(std::span<const NodeId> a,
                         std::span<const NodeId> b) {
  EdgeList batch;
  add_biclique(a, b, batch);
  add_edges(batch);
}

void Graph::add_biclique(std::span<const NodeId> a, std::span<const NodeId> b,
                         EdgeList& batch) {
  if (a.empty() || b.empty()) return;
  if (a.size() * b.size() >= implicit_threshold_ && is_contiguous_run(a) &&
      is_contiguous_run(b)) {
    check_node(a.back());
    check_node(b.back());
    add_implicit_block(ImplicitBlock::biclique(a.front(),
                                               a.front() + a.size(),
                                               b.front(),
                                               b.front() + b.size()));
    return;
  }
  for (NodeId u : a) {
    for (NodeId v : b) batch.emplace_back(u, v);
  }
}

void Graph::add_anti_matching_grid(NodeId base, std::size_t stride,
                                   std::size_t rows, std::size_t row_len) {
  EdgeList batch;
  add_anti_matching_grid(base, stride, rows, row_len, batch);
  add_edges(batch);
}

void Graph::add_anti_matching_grid(NodeId base, std::size_t stride,
                                   std::size_t rows, std::size_t row_len,
                                   EdgeList& batch) {
  const auto block =
      ImplicitBlock::anti_matching_grid(base, stride, rows, row_len);
  if (block.num_edges() >= implicit_threshold_) {
    add_implicit_block(block);
    return;
  }
  CLB_EXPECT(block.max_node_excl() <= num_nodes(),
             "anti-matching grid range out of bounds");
  block.for_each_edge([&](NodeId u, NodeId v) { batch.emplace_back(u, v); });
}

std::span<const NodeId> Graph::neighbors(NodeId v) const {
  check_node(v);
  CLB_EXPECT(!in_implicit_block(v),
             "node is covered by an implicit block; use for_each_neighbor "
             "(or explicit_neighbors) instead of neighbors()");
  return adj_->row(v);
}

std::size_t Graph::implicit_degree(NodeId v) const {
  check_node(v);
  std::size_t d = 0;
  for (const auto& b : blocks_) d += b.degree_of(v);
  return d;
}

Graph Graph::materialized() const {
  Graph g = *this;
  g.blocks_.clear();
  g.implicit_edges_ = 0;
  g.implicit_threshold_ = kNeverImplicit;
  EdgeList batch;
  batch.reserve(static_cast<std::size_t>(implicit_edges_));
  for (const auto& b : blocks_) {
    b.for_each_edge([&](NodeId u, NodeId v) { batch.emplace_back(u, v); });
  }
  g.add_edges(batch);
  return g;
}

std::size_t Graph::max_degree() const {
  std::size_t d = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) d = std::max(d, degree(v));
  return d;
}

Weight Graph::weight(NodeId v) const {
  check_node(v);
  return weight_[v];
}

void Graph::set_weight(NodeId v, Weight w) {
  check_node(v);
  weight_[v] = w;
}

Weight Graph::total_weight() const {
  Weight sum = 0;
  for (Weight w : weight_) sum += w;
  return sum;
}

Weight Graph::weight_of(std::span<const NodeId> nodes) const {
  Weight sum = 0;
  for (NodeId v : nodes) sum += weight(v);
  return sum;
}

bool Graph::is_independent_set(std::span<const NodeId> nodes) const {
  std::vector<NodeId> sorted(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  CLB_EXPECT(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
             "independent-set check requires distinct node ids");
  for (NodeId v : sorted) {
    // Intersect neighbors(v) (sorted) with the sorted candidate set.
    const auto nb = neighbors_unchecked(v);
    auto a = nb.begin();
    auto b = sorted.begin();
    while (a != nb.end() && b != sorted.end()) {
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        return false;
      }
    }
  }
  // Implicit blocks: each is dense enough that a direct member scan is
  // cheap relative to |I| (witness sets are small; blocks are checked
  // pairwise only among their own members).
  for (const auto& b : blocks_) {
    std::vector<NodeId> members;
    for (NodeId v : sorted) {
      if (b.contains(v)) members.push_back(v);
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (b.is_edge(members[i], members[j])) return false;
      }
    }
  }
  return true;
}

Graph Graph::induced_subgraph(std::span<const NodeId> nodes) const {
  CLB_EXPECT(blocks_.empty(),
             "induced_subgraph requires a block-free graph; materialize() first");
  std::vector<NodeId> order(nodes.begin(), nodes.end());
  std::vector<NodeId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  CLB_EXPECT(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
             "induced_subgraph requires distinct node ids");

  Graph sub(order.size());
  // old id -> new id
  std::vector<std::size_t> pos(num_nodes(), static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < order.size(); ++i) {
    check_node(order[i]);
    pos[order[i]] = i;
    sub.set_weight(i, weight_[order[i]]);
    if (!label_.empty()) sub.set_label(i, label_[order[i]]);
  }
  EdgeList batch;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (NodeId nb : adj_->row(order[i])) {
      if (pos[nb] != static_cast<std::size_t>(-1) && pos[nb] > i) {
        batch.emplace_back(i, pos[nb]);
      }
    }
  }
  sub.add_edges(batch);
  return sub;
}

Graph Graph::complement() const {
  CLB_EXPECT(blocks_.empty(),
             "complement requires a block-free graph; materialize() first");
  Graph comp(num_nodes());
  comp.weight_ = weight_;
  comp.label_ = label_;
  EdgeList batch;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    const auto nb = adj_->row(u);
    auto it = nb.begin();
    for (NodeId v = u + 1; v < num_nodes(); ++v) {
      while (it != nb.end() && *it < v) ++it;
      const bool adjacent = (it != nb.end() && *it == v);
      if (!adjacent) batch.emplace_back(u, v);
    }
  }
  comp.add_edges(batch);
  return comp;
}

const std::string& Graph::label(NodeId v) const {
  check_node(v);
  static const std::string kUnlabeled;
  return label_.empty() ? kUnlabeled : label_[v];
}

void Graph::set_label(NodeId v, std::string label) {
  check_node(v);
  if (label_.empty()) {
    if (label.empty()) return;
    label_.resize(num_nodes());
  }
  label_[v] = std::move(label);
}

bool Graph::operator==(const Graph& other) const {
  return (adj_ == other.adj_ || *adj_ == *other.adj_) &&
         weight_ == other.weight_ && blocks_ == other.blocks_;
}

EdgeList edge_list(const Graph& g) {
  CLB_EXPECT(!g.has_implicit_blocks(),
             "edge_list would materialize implicit blocks; iterate "
             "implicit_blocks() or materialize() deliberately");
  EdgeList edges;
  edges.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.explicit_neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

}  // namespace congestlb::graph
