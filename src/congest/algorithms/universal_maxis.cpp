#include "congest/algorithms/universal_maxis.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/expect.hpp"
#include "support/hash.hpp"
#include "support/math.hpp"

namespace congestlb::congest {

namespace {

constexpr std::size_t kWeightBits = 32;

struct Token {
  bool is_edge = false;
  std::uint64_t a = 0;  ///< node id / edge endpoint u
  std::uint64_t b = 0;  ///< degree / edge endpoint v
  std::uint64_t w = 0;  ///< weight (node tokens only)
};

/// Open-addressing set of edge keys (linear probing, power-of-two table,
/// at most half full). Memory stays O(keys); the table doubles as it fills.
class EdgeKeySet {
 public:
  /// Insert `key` (an edge key u * n + v < n^2, so never kEmpty); false
  /// if it was already present.
  bool insert(std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    if (!place(key)) return false;
    ++size_;
    return true;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  bool place(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash_mix64(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        return true;
      }
    }
  }

  void grow() {
    const std::vector<std::uint64_t> old = std::exchange(
        slots_, std::vector<std::uint64_t>(
                    std::max<std::size_t>(16, 2 * slots_.size()), kEmpty));
    for (std::uint64_t key : old) {
      if (key != kEmpty) place(key);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
};

class UniversalMaxIsProgram final : public NodeProgram {
 public:
  explicit UniversalMaxIsProgram(LocalMaxIsSolver solver)
      : solver_(std::move(solver)) {
    CLB_EXPECT(solver_ != nullptr, "universal-maxis: solver must be provided");
  }

  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng& /*rng*/) override {
    if (!initialized_) initialize(info);

    for (const auto& msg : inbox) {
      if (msg) ingest(info, *msg);
    }
    try_finish(info);

    // Forward one not-yet-sent token per neighbor.
    for (std::size_t s = 0; s < info.neighbors.size(); ++s) {
      if (cursor_[s] >= tokens_.size()) continue;
      const Token& tok = tokens_[cursor_[s]++];
      // Type bit, a and b in one LSB-first put: the same payload as three
      // separate puts, since both ids are < 2^id_bits_.
      MessageWriter w;
      w.put((tok.is_edge ? 1 : 0) | tok.a << 1 | tok.b << (1 + id_bits_),
            head_bits());
      if (!tok.is_edge) w.put(tok.w, kWeightBits);
      outbox.send(s, std::move(w).finish());
    }
  }

  bool finished() const override {
    if (!have_solution_) return false;
    for (std::size_t c : cursor_) {
      if (c < tokens_.size()) return false;
    }
    return true;
  }

  std::int64_t output() const override { return in_set_ ? 1 : 0; }

 private:
  void initialize(const NodeInfo& info) {
    initialized_ = true;
    id_bits_ = static_cast<std::size_t>(
        std::max(1, ceil_log2(std::max<std::size_t>(2, info.n))));
    CLB_EXPECT(id_bits_ <= 31, "universal-maxis: too many nodes for token ids");
    CLB_EXPECT(info.bits_per_edge >= head_bits() + kWeightBits,
               "universal-maxis: per-edge bandwidth too small for tokens; "
               "use universal_required_bits()");
    CLB_EXPECT(info.weight >= 0 &&
                   static_cast<std::uint64_t>(info.weight) < (1ULL << kWeightBits),
               "universal-maxis: weight does not fit token field");
    cursor_.assign(info.neighbors.size(), 0);
    node_known_.assign(info.n, false);
    weight_.assign(info.n, 0);
    // Seed with own node token and incident edge tokens.
    add_node_token(info.id, info.neighbors.size(),
                   static_cast<std::uint64_t>(info.weight));
    for (NodeId nb : info.neighbors) {
      add_edge_token(info, std::min<std::uint64_t>(info.id, nb),
                     std::max<std::uint64_t>(info.id, nb));
    }
  }

  /// Width of a token's type bit plus its two id fields.
  std::size_t head_bits() const { return 1 + 2 * id_bits_; }

  void add_node_token(std::uint64_t id, std::uint64_t deg, std::uint64_t w) {
    if (node_known_[id]) return;
    node_known_[id] = true;
    degree_sum_ += deg;
    weight_[id] = w;
    ++num_nodes_known_;
    tokens_.push_back(Token{false, id, deg, w});
  }

  void add_edge_token(const NodeInfo& info, std::uint64_t u, std::uint64_t v) {
    const std::uint64_t key = u * info.n + v;
    if (!edge_known_.insert(key)) return;
    tokens_.push_back(Token{true, u, v, 0});
  }

  void ingest(const NodeInfo& info, const Message& msg) {
    MessageReader r(msg);
    const std::uint64_t head = r.get(head_bits());
    const bool is_edge = (head & 1) != 0;
    const std::uint64_t a = (head >> 1) & ((1ULL << id_bits_) - 1);
    const std::uint64_t b = head >> (1 + id_bits_);
    CLB_EXPECT(a < info.n && b < info.n, "universal-maxis: bad token ids");
    if (is_edge) {
      CLB_EXPECT(a < b, "universal-maxis: edge token endpoints out of order");
      add_edge_token(info, a, b);
    } else {
      add_node_token(a, b, r.get(kWeightBits));
    }
  }

  void try_finish(const NodeInfo& info) {
    if (have_solution_ || num_nodes_known_ < info.n) return;
    if (edge_known_.size() * 2 != degree_sum_) return;
    // Reconstruct and solve.
    graph::Graph g(info.n);
    for (NodeId v = 0; v < info.n; ++v) {
      g.set_weight(v, static_cast<graph::Weight>(weight_[v]));
    }
    graph::EdgeList edges;
    edges.reserve(edge_known_.size());
    for (const Token& tok : tokens_) {
      if (tok.is_edge) edges.emplace_back(tok.a, tok.b);
    }
    g.add_edges(edges);
    const auto solution = solver_(g);
    CLB_EXPECT(g.is_independent_set(solution),
               "universal-maxis: solver returned a non-independent set");
    in_set_ = false;
    for (NodeId v : solution) {
      if (v == info.id) {
        in_set_ = true;
        break;
      }
    }
    have_solution_ = true;
  }

  LocalMaxIsSolver solver_;
  bool initialized_ = false;
  std::size_t id_bits_ = 0;
  std::vector<Token> tokens_;
  std::vector<std::size_t> cursor_;
  std::vector<bool> node_known_;
  std::vector<std::uint64_t> weight_;
  EdgeKeySet edge_known_;
  std::size_t num_nodes_known_ = 0;
  std::uint64_t degree_sum_ = 0;  ///< over known node tokens
  bool have_solution_ = false;
  bool in_set_ = false;
};

}  // namespace

std::size_t universal_required_bits(std::size_t n, graph::Weight max_weight) {
  CLB_EXPECT(max_weight >= 0 &&
                 static_cast<std::uint64_t>(max_weight) < (1ULL << kWeightBits),
             "universal-maxis: max weight exceeds token field");
  const std::size_t id_bits = static_cast<std::size_t>(
      std::max(1, ceil_log2(std::max<std::size_t>(2, n))));
  return 1 + 2 * id_bits + kWeightBits;
}

ProgramFactory universal_maxis_factory(LocalMaxIsSolver solver) {
  return [solver = std::move(solver)](NodeId, const NodeInfo&) {
    return std::make_unique<UniversalMaxIsProgram>(solver);
  };
}

}  // namespace congestlb::congest
