#include "congest/algorithms/universal_maxis.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "support/expect.hpp"
#include "support/math.hpp"

namespace congestlb::congest {

namespace {

constexpr std::size_t kWeightBits = 32;

/// The checked solutions of one run's programs, one per distinct learned
/// graph. A learned graph is its weights plus its known-edge bitmap; both
/// have sizes fixed by n, so equal contents mean an equal graph.
struct SolveMemo {
  struct Entry {
    std::vector<std::uint64_t> weight;
    std::vector<std::uint64_t> edge_known;
    std::vector<bool> in_set;  ///< membership, indexed by node id
  };

  explicit SolveMemo(LocalMaxIsSolver s) : solver(std::move(s)) {}

  const LocalMaxIsSolver solver;
  std::mutex mu;
  std::vector<Entry> entries;  ///< guarded by mu
};

class UniversalMaxIsProgram final : public NodeProgram {
 public:
  explicit UniversalMaxIsProgram(std::shared_ptr<SolveMemo> memo)
      : memo_(std::move(memo)) {}

  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng& /*rng*/) override {
    if (!initialized_) initialize(info);

    // A node that holds the graph already knows every token it could be
    // sent, so from then on it reads nothing and only sends.
    if (!have_solution_) {
      ingest_all(info, inbox);
      try_finish(info);
    }

    // Broadcast the next not-yet-sent token to every neighbor. (An isolated
    // node's send_all is a no-op, so its cursor runs out in one round.)
    if (cursor_ >= tokens_.size()) return;
    const std::uint64_t tok = tokens_[cursor_++];
    // One put of the head word carries the same bits as separate puts of
    // the type bit, a and b, since both ids are < 2^id_bits_.
    MessageWriter w;
    w.put(tok, head_bits());
    if ((tok & 1) == 0) w.put(weight_[field_a(tok)], kWeightBits);
    outbox.send_all(std::move(w).finish());
  }

  bool finished() const override {
    return have_solution_ && cursor_ >= tokens_.size();
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
    node_known_.assign(info.n, false);
    weight_.assign(info.n, 0);
    edge_known_.assign((info.n * (info.n - 1) / 2 + 63) / 64, 0);
    // Seed with own node token and incident edge tokens.
    add_node_token(info.id, info.neighbors.size(),
                   static_cast<std::uint64_t>(info.weight));
    for (NodeId nb : info.neighbors) {
      add_edge_token(std::min<std::uint64_t>(info.id, nb),
                     std::max<std::uint64_t>(info.id, nb));
    }
  }

  /// Width of a token's type bit plus its two id fields.
  std::size_t head_bits() const { return 1 + 2 * id_bits_; }

  // A token is the head word it is sent as: bit 0 is set for an edge
  // token, then id_bits_ bits of a (node id / edge endpoint u) and id_bits_
  // bits of b (degree / edge endpoint v). A node token's weight is
  // weight_[a].
  std::uint64_t field_a(std::uint64_t tok) const {
    return (tok >> 1) & ((std::uint64_t{1} << id_bits_) - 1);
  }
  std::uint64_t field_b(std::uint64_t tok) const {
    return tok >> (1 + id_bits_);
  }

  void add_node_token(std::uint64_t id, std::uint64_t deg, std::uint64_t w) {
    if (node_known_[id]) return;
    node_known_[id] = true;
    degree_sum_ += deg;
    weight_[id] = w;
    ++num_nodes_known_;
    tokens_.push_back(id << 1 | deg << (1 + id_bits_));
  }

  /// Edge (u, v), u < v, is bit C(v, 2) + u of the bitmap `known`. Sets
  /// the bit; true when it was clear.
  static bool mark_edge(std::uint64_t* known, std::uint64_t u,
                        std::uint64_t v) {
    const std::uint64_t bit = v * (v - 1) / 2 + u;
    std::uint64_t& word = known[bit / 64];
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    if ((word & mask) != 0) return false;
    word |= mask;
    return true;
  }

  void add_edge_token(std::uint64_t u, std::uint64_t v) {
    if (!mark_edge(edge_known_.data(), u, v)) return;
    ++num_edges_known_;
    tokens_.push_back(1 | u << 1 | v << (1 + id_bits_));
  }

  /// Store every new token of this round's inbox. The loop keeps the
  /// widths, masks, n, bitmap and edge count in locals: its 64-bit stores
  /// into the bitmap may alias the size_t members, which would otherwise be
  /// reloaded per message.
  void ingest_all(const NodeInfo& info, const Inbox& inbox) {
    const std::size_t id_bits = id_bits_;
    const std::size_t hb = head_bits();
    const std::uint64_t head_mask = (std::uint64_t{1} << hb) - 1;
    const std::uint64_t id_mask = (std::uint64_t{1} << id_bits) - 1;
    const std::uint64_t n = info.n;
    std::uint64_t* const bitmap = edge_known_.data();
    std::size_t edges = num_edges_known_;
    for (const auto& slot : inbox) {
      if (!slot) continue;
      const Message& msg = *slot;
      // The head is the low hb bits of the first word (hb <= 63); the
      // check is MessageReader's read-past-end check on it.
      CLB_EXPECT(hb <= msg.bits, "MessageReader: read past end");
      const std::uint64_t head = msg.data.words()[0] & head_mask;
      const std::uint64_t a = (head >> 1) & id_mask;
      const std::uint64_t b = head >> (1 + id_bits);
      CLB_EXPECT(a < n && b < n, "universal-maxis: bad token ids");
      if ((head & 1) != 0) {
        CLB_EXPECT(a < b, "universal-maxis: edge token endpoints out of order");
        if (!mark_edge(bitmap, a, b)) continue;
        ++edges;
        tokens_.push_back(head);  // the head word is the token
      } else {
        MessageReader r(msg);
        r.get(hb);
        add_node_token(a, b, r.get(kWeightBits));
      }
    }
    num_edges_known_ = edges;
  }

  void try_finish(const NodeInfo& info) {
    if (have_solution_ || num_nodes_known_ < info.n) return;
    if (num_edges_known_ * 2 != degree_sum_) return;
    // The run's first node to learn this graph solves it; the others read
    // their bit from its checked solution. The solve holds the lock, so a
    // node finishing meanwhile on another shard waits for the entry rather
    // than solving again.
    const std::lock_guard lock(memo_->mu);
    for (const SolveMemo::Entry& e : memo_->entries) {
      if (e.weight == weight_ && e.edge_known == edge_known_) {
        in_set_ = e.in_set[info.id];
        have_solution_ = true;
        return;
      }
    }
    // Reconstruct and solve.
    graph::Graph g(info.n);
    for (NodeId v = 0; v < info.n; ++v) {
      g.set_weight(v, static_cast<graph::Weight>(weight_[v]));
    }
    graph::EdgeList edges;
    edges.reserve(num_edges_known_);
    for (std::uint64_t tok : tokens_) {
      if ((tok & 1) != 0) edges.emplace_back(field_a(tok), field_b(tok));
    }
    g.add_edges(edges);
    const auto solution = memo_->solver(g);
    CLB_EXPECT(g.is_independent_set(solution),
               "universal-maxis: solver returned a non-independent set");
    SolveMemo::Entry entry{weight_, edge_known_,
                           std::vector<bool>(info.n, false)};
    for (NodeId v : solution) entry.in_set[v] = true;
    in_set_ = entry.in_set[info.id];
    memo_->entries.push_back(std::move(entry));
    have_solution_ = true;
  }

  std::shared_ptr<SolveMemo> memo_;  ///< shared by the run's programs
  bool initialized_ = false;
  std::size_t id_bits_ = 0;
  std::vector<std::uint64_t> tokens_;
  std::size_t cursor_ = 0;  ///< next token to broadcast
  std::vector<bool> node_known_;
  std::vector<std::uint64_t> weight_;
  std::vector<std::uint64_t> edge_known_;  ///< bitmap over pairs u < v
  std::size_t num_nodes_known_ = 0;
  std::size_t num_edges_known_ = 0;
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
  // The programs alive together share one memo; once the last of them is
  // gone the next program starts a fresh one, so no run reads another
  // run's solve.
  struct Shared {
    LocalMaxIsSolver solver;
    std::mutex mu;
    std::weak_ptr<SolveMemo> memo;  ///< guarded by mu
  };
  auto shared = std::make_shared<Shared>();
  shared->solver = std::move(solver);
  return [shared](NodeId, const NodeInfo&) -> std::unique_ptr<NodeProgram> {
    CLB_EXPECT(shared->solver != nullptr,
               "universal-maxis: solver must be provided");
    const std::lock_guard lock(shared->mu);
    std::shared_ptr<SolveMemo> memo = shared->memo.lock();
    if (!memo) {
      memo = std::make_shared<SolveMemo>(shared->solver);
      shared->memo = memo;
    }
    return std::make_unique<UniversalMaxIsProgram>(std::move(memo));
  };
}

}  // namespace congestlb::congest
