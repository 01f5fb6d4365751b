#include "congest/approx_mis.hpp"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "support/expect.hpp"
#include "support/hash.hpp"
#include "support/math.hpp"

namespace congestlb::congest {

namespace {

constexpr std::size_t kWeightBits = 32;
constexpr std::size_t kFrameChecksumBits = 6;
constexpr std::size_t kTokenChecksumBits = 6;
/// Per-round status frame: 2 status bits + checksum.
constexpr std::size_t kFrameBits = 2 + kFrameChecksumBits;

/// Frame status values (wire encoding).
enum Status : std::uint64_t {
  kStUndecided = 0,
  kStPendingIn = 1,
  kStIn = 2,
  kStOut = 3,
};

enum class TokKind : std::uint64_t {
  kNode = 0,      ///< a = id, b = degree, w = weight
  kEdge = 1,      ///< a < b endpoints
  kDecision = 2,  ///< a = id, b = 1 for In / 2 for Out
};

struct Token {
  TokKind kind = TokKind::kNode;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t w = 0;
};

std::size_t id_bits_for(std::size_t n) {
  return static_cast<std::size_t>(
      std::max(1, ceil_log2(std::max<std::size_t>(2, n))));
}

/// The token's second field holds a node id, a degree, or a decision verdict
/// (1 = In, 2 = Out) — at least 2 bits even when one id bit suffices.
std::size_t token_b_bits_for(std::size_t n) {
  return std::max<std::size_t>(id_bits_for(n), 2);
}

std::size_t token_bits_for(std::size_t n) {
  return 2 + id_bits_for(n) + token_b_bits_for(n) + kWeightBits +
         kTokenChecksumBits;
}

/// Worst-case distinct tokens a node ever holds: n node tokens, up to two
/// decisions per node (an In later dominated by an Out), all edges.
std::size_t max_tokens_for(std::size_t n) {
  return 3 * n + n * (n - 1) / 2;
}

std::size_t tokens_per_round(std::size_t n, std::size_t bits_per_edge) {
  const std::size_t per = 1 + token_bits_for(n);  // present flag + token
  CLB_EXPECT(bits_per_edge >= kFrameBits + per,
             "approx-mis: per-edge bandwidth below approx_mis_required_bits");
  return std::min((bits_per_edge - kFrameBits) / per, max_tokens_for(n));
}

std::uint64_t token_checksum(const Token& t) {
  return fold_checksum(
      hash_mix(static_cast<std::uint64_t>(t.kind), t.a, t.b, t.w),
      kTokenChecksumBits);
}

class ApproxMisProgram final : public NodeProgram {
 public:
  ApproxMisProgram(LocalMaxIsSolver solver, ApproxMisConfig cfg)
      : solver_(std::move(solver)), cfg_(cfg) {
    CLB_EXPECT(solver_ != nullptr, "approx-mis: solver must be provided");
    CLB_EXPECT(cfg_.eps_num >= 1 && cfg_.eps_den >= 1,
               "approx-mis: eps must be a positive rational");
  }

  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng& /*rng*/) override {
    if (finished_ || failed_) return;
    if (!initialized_) initialize(info);

    ingest_all(info, inbox);
    apply_decisions(info);
    if (state_ == State::kPendingIn) run_finalize_gate(info);

    // Epoch schedule: flood for W(e) rounds, carve at the window's last
    // round, then a decision window lets the carve's verdicts settle.
    const std::size_t rho = epoch_;
    if (round_index_ == epoch_start_ + flood_window(rho) - 1 &&
        state_ == State::kUndecided && decision_[info.id] == 0) {
      try_carve(info, rho);
    }
    if (round_index_ == epoch_start_ + epoch_length(rho) - 1) {
      epoch_start_ += epoch_length(rho);
      ++epoch_;
    }
    ++round_index_;

    const std::size_t deadline =
        cfg_.deadline != 0
            ? cfg_.deadline
            : approx_mis_round_bound(info.n, weight_seen_, cfg_.eps_num,
                                     cfg_.eps_den, info.bits_per_edge);
    const bool final_state = state_ == State::kIn || state_ == State::kOut;
    if (round_index_ >= deadline) {
      // A final node's verdict is monotone and already announced — at the
      // deadline it simply stops. Only a node still undecided/pending gives
      // up.
      if (final_state && announced_final_) {
        finished_ = true;
      } else {
        failed_ = true;
      }
      return;
    }

    if (final_state && announced_final_ && neighbors_sticky_final() &&
        cursors_drained()) {
      finished_ = true;
      return;
    }
    send_round(info, outbox);
    if (final_state) announced_final_ = true;
  }

  bool finished() const override { return finished_; }
  bool failed() const override { return failed_; }
  std::int64_t output() const override {
    return state_ == State::kIn ? 1 : 0;
  }

 private:
  enum class State : std::uint8_t { kUndecided, kPendingIn, kIn, kOut };

  // --- setup --------------------------------------------------------------

  void initialize(const NodeInfo& info) {
    initialized_ = true;
    n_ = info.n;
    id_bits_ = id_bits_for(info.n);
    b_bits_ = token_b_bits_for(info.n);
    token_bits_ = token_bits_for(info.n);
    tokens_per_round_ = tokens_per_round(info.n, info.bits_per_edge);
    sigma_ = (max_tokens_for(info.n) + tokens_per_round_ - 1) /
             tokens_per_round_;
    CLB_EXPECT(info.weight >= 0 && static_cast<std::uint64_t>(info.weight) <
                                       (1ULL << kWeightBits),
               "approx-mis: weight does not fit token field");
    cursor_.assign(info.neighbors.size(), 0);
    sticky_.assign(info.neighbors.size(), 0);
    fresh_status_.assign(info.neighbors.size(), 0);
    fresh_valid_.assign(info.neighbors.size(), 0);
    node_known_.assign(info.n, 0);
    degree_.assign(info.n, 0);
    weight_.assign(info.n, 0);
    decision_.assign(info.n, 0);
    known_adj_.assign(info.n, {});
    add_node_token(info.id, info.neighbors.size(),
                   static_cast<std::uint64_t>(info.weight));
    for (NodeId nb : info.neighbors) {
      add_edge_token(std::min<std::uint64_t>(info.id, nb),
                     std::max<std::uint64_t>(info.id, nb));
    }
  }

  std::size_t flood_window(std::size_t e) const { return 2 * (e + 2) * sigma_; }
  std::size_t epoch_length(std::size_t e) const { return 3 * (e + 2) * sigma_; }

  // --- monotone knowledge -------------------------------------------------

  void add_node_token(std::uint64_t id, std::uint64_t deg, std::uint64_t w) {
    if (node_known_[id]) return;
    node_known_[id] = 1;
    degree_[id] = deg;
    weight_[id] = w;
    weight_seen_ += static_cast<graph::Weight>(w);
    tokens_.push_back(Token{TokKind::kNode, id, deg, w});
  }

  void add_edge_token(std::uint64_t u, std::uint64_t v) {
    const std::uint64_t key = u * n_ + v;
    if (!edge_known_.insert(key).second) return;
    known_adj_[u].push_back(static_cast<NodeId>(v));
    known_adj_[v].push_back(static_cast<NodeId>(u));
    tokens_.push_back(Token{TokKind::kEdge, u, v, 0});
  }

  void add_decision(std::uint64_t id, bool in) {
    // Monotone: none -> In -> Out; Out is sticky (the safe direction if
    // two carves ever conflict).
    if (in) {
      if (decision_[id] != 0) return;
      decision_[id] = 1;
      tokens_.push_back(Token{TokKind::kDecision, id, 1, 0});
    } else {
      if (decision_[id] == 2) return;
      decision_[id] = 2;
      tokens_.push_back(Token{TokKind::kDecision, id, 2, 0});
    }
  }

  void ingest_all(const NodeInfo& info, const Inbox& inbox) {
    for (std::size_t s = 0; s < inbox.size(); ++s) {
      fresh_valid_[s] = 0;
      if (!inbox[s]) continue;
      MessageReader r(*inbox[s]);
      if (r.remaining() < kFrameBits) continue;
      const std::uint64_t status = r.get(2);
      const std::uint64_t chk = r.get(kFrameChecksumBits);
      const std::uint64_t expect = fold_checksum(
          (static_cast<std::uint64_t>(info.neighbors[s]) << 2) | status,
          kFrameChecksumBits);
      if (chk == expect) {
        fresh_valid_[s] = 1;
        fresh_status_[s] = static_cast<std::uint8_t>(status);
        if (status == kStIn) sticky_[s] = 1;
        if (status == kStOut) sticky_[s] = 2;
      }
      while (r.remaining() >= 1) {
        if (r.get(1) == 0) break;
        if (r.remaining() < token_bits_) break;  // truncated tail
        Token t;
        t.kind = static_cast<TokKind>(r.get(2));
        t.a = r.get(id_bits_);
        t.b = r.get(b_bits_);
        t.w = r.get(kWeightBits);
        if (r.get(kTokenChecksumBits) != token_checksum(t)) continue;
        ingest_token(t);
      }
    }
  }

  void ingest_token(const Token& t) {
    switch (t.kind) {
      case TokKind::kNode:
        if (t.a < n_ && t.b < n_) add_node_token(t.a, t.b, t.w);
        break;
      case TokKind::kEdge:
        if (t.a < t.b && t.b < n_) add_edge_token(t.a, t.b);
        break;
      case TokKind::kDecision:
        if (t.a < n_ && (t.b == 1 || t.b == 2)) add_decision(t.a, t.b == 1);
        break;
      default:
        break;  // unknown kind — ignore
    }
  }

  // --- self state machine -------------------------------------------------

  void apply_decisions(const NodeInfo& info) {
    if (decision_[info.id] == 2 && state_ != State::kIn) {
      state_ = State::kOut;
    } else if (decision_[info.id] == 1 && state_ == State::kUndecided) {
      state_ = State::kPendingIn;
    }
    // A neighbor that finalized In forces us out (its carve decided us Out;
    // this reconstructs that verdict if its token has not reached us yet).
    if (state_ != State::kIn) {
      for (std::uint8_t st : sticky_) {
        if (st == 1) {
          state_ = State::kOut;
          break;
        }
      }
    }
  }

  /// A pending-In node may finalize only in a round where every neighbor is
  /// known-final or spoke a checksum-valid frame this very round; adjacent
  /// pending-Ins resolve by smaller id first.
  void run_finalize_gate(const NodeInfo& info) {
    for (std::size_t s = 0; s < sticky_.size(); ++s) {
      if (sticky_[s] == 1) {
        state_ = State::kOut;  // neighbor already In — defer to it
        return;
      }
      if (sticky_[s] == 2) continue;
      if (!fresh_valid_[s]) return;  // incomplete picture: wait
      if (fresh_status_[s] == kStPendingIn && info.neighbors[s] < info.id) {
        return;  // smaller-id pending neighbor goes first
      }
    }
    state_ = State::kIn;
  }

  // --- carving ------------------------------------------------------------

  bool believed_live(NodeId u) const { return decision_[u] == 0; }

  /// BFS over the knowledge graph up to `depth`; returns visited nodes in
  /// deterministic discovery order, with bfs_dist_ filled in. `live_only`
  /// restricts traversal to believed-live nodes.
  const std::vector<NodeId>& bfs(NodeId src, std::size_t depth,
                                 bool live_only) {
    bfs_dist_.assign(n_, -1);
    bfs_order_.clear();
    bfs_dist_[src] = 0;
    bfs_order_.push_back(src);
    for (std::size_t head = 0; head < bfs_order_.size(); ++head) {
      const NodeId u = bfs_order_[head];
      const std::size_t d = static_cast<std::size_t>(bfs_dist_[u]);
      if (d == depth) continue;
      for (NodeId v : known_adj_[u]) {
        if (bfs_dist_[v] >= 0) continue;
        if (live_only && !believed_live(v)) continue;
        bfs_dist_[v] = static_cast<std::int32_t>(d + 1);
        bfs_order_.push_back(v);
      }
    }
    return bfs_order_;
  }

  /// Knowledge is complete to radius R when every node within R-1 hops has
  /// its node token and its full adjacency on record — the precondition for
  /// trusting an election or a ball computation out to distance R.
  bool knowledge_complete(const NodeInfo& info, std::size_t radius) {
    const auto& seen = bfs(info.id, radius, /*live_only=*/false);
    for (NodeId u : seen) {
      if (static_cast<std::size_t>(bfs_dist_[u]) >= radius) continue;
      if (!node_known_[u]) return false;
      if (known_adj_[u].size() != degree_[u]) return false;
    }
    return true;
  }

  void try_carve(const NodeInfo& info, std::size_t rho) {
    const std::size_t radius = 2 * rho + 3;
    if (!knowledge_complete(info, radius)) return;
    // Election: carve only when no smaller believed-live id exists within
    // live-distance 2*rho+3. Two same-epoch electors are then far enough
    // apart that their B(rho+1) balls are disjoint and non-adjacent.
    {
      const auto& live = bfs(info.id, radius, /*live_only=*/true);
      for (NodeId u : live) {
        if (u < info.id) return;
      }
    }
    // Ball layers over the believed-live subgraph.
    const auto order = bfs(info.id, rho + 1, /*live_only=*/true);
    std::vector<NodeId> ball = order;  // bfs_dist_ survives in member state
    std::vector<std::vector<NodeId>> by_layer(rho + 2);
    for (NodeId u : ball) {
      by_layer[static_cast<std::size_t>(bfs_dist_[u])].push_back(u);
    }
    std::vector<NodeId> cur_nodes = by_layer[0];
    std::sort(cur_nodes.begin(), cur_nodes.end());
    std::vector<NodeId> cur_sol;
    graph::Weight cur_opt = solve_ball(cur_nodes, &cur_sol);
    for (std::size_t r = 0; r + 1 < by_layer.size(); ++r) {
      std::vector<NodeId> next_nodes = cur_nodes;
      next_nodes.insert(next_nodes.end(), by_layer[r + 1].begin(),
                        by_layer[r + 1].end());
      std::sort(next_nodes.begin(), next_nodes.end());
      std::vector<NodeId> next_sol;
      const graph::Weight next_opt = solve_ball(next_nodes, &next_sol);
      // Stop when OPT(B(r+1)) <= (1+eps) * OPT(B(r)): committing OPT(B(r))
      // and discarding the shell loses at most a (1+eps) factor on
      // everything this carve removes.
      const std::uint64_t lhs =
          static_cast<std::uint64_t>(next_opt) * cfg_.eps_den;
      const std::uint64_t rhs = static_cast<std::uint64_t>(cur_opt) *
                                (cfg_.eps_den + cfg_.eps_num);
      if (lhs <= rhs) {
        in_carve_.assign(n_, 0);
        for (NodeId u : cur_sol) in_carve_[u] = 1;
        for (NodeId u : cur_sol) add_decision(u, /*in=*/true);
        for (NodeId u : next_nodes) {
          if (!in_carve_[u]) add_decision(u, /*in=*/false);
        }
        apply_decisions(info);
        return;
      }
      cur_nodes = std::move(next_nodes);
      cur_sol = std::move(next_sol);
      cur_opt = next_opt;
    }
    // No stopping radius within rho: skip; a later (larger) epoch carves.
  }

  /// Exact local optimum of the knowledge graph induced on `nodes` (sorted
  /// ascending). When `solution` is non-null it receives the witness in
  /// global ids.
  graph::Weight solve_ball(const std::vector<NodeId>& nodes,
                           std::vector<NodeId>* solution) {
    index_of_.assign(n_, -1);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      index_of_[nodes[i]] = static_cast<std::int32_t>(i);
    }
    graph::Graph sub(nodes.size());
    graph::EdgeList edges;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      sub.set_weight(i, static_cast<graph::Weight>(weight_[nodes[i]]));
      for (NodeId v : known_adj_[nodes[i]]) {
        const std::int32_t j = index_of_[v];
        if (j >= 0 && static_cast<std::size_t>(j) > i) {
          edges.emplace_back(i, static_cast<std::size_t>(j));
        }
      }
    }
    sub.add_edges(edges);
    const auto local = solver_(sub);
    CLB_EXPECT(sub.is_independent_set(local),
               "approx-mis: solver returned a non-independent set");
    graph::Weight w = 0;
    for (NodeId v : local) w += sub.weight(v);
    if (solution != nullptr) {
      solution->clear();
      for (NodeId v : local) solution->push_back(nodes[v]);
    }
    return w;
  }

  // --- sending ------------------------------------------------------------

  bool neighbors_sticky_final() const {
    for (std::uint8_t st : sticky_) {
      if (st == 0) return false;
    }
    return true;
  }

  bool cursors_drained() const {
    for (std::size_t c : cursor_) {
      if (c < tokens_.size()) return false;
    }
    return true;
  }

  std::uint64_t wire_status() const {
    switch (state_) {
      case State::kUndecided:
        return kStUndecided;
      case State::kPendingIn:
        return kStPendingIn;
      case State::kIn:
        return kStIn;
      case State::kOut:
        return kStOut;
    }
    return kStUndecided;
  }

  void send_round(const NodeInfo& info, Outbox& outbox) {
    const std::uint64_t status = wire_status();
    const std::uint64_t chk = fold_checksum(
        (static_cast<std::uint64_t>(info.id) << 2) | status,
        kFrameChecksumBits);
    for (std::size_t s = 0; s < info.neighbors.size(); ++s) {
      MessageWriter w;
      w.put(status, 2);
      w.put(chk, kFrameChecksumBits);
      std::size_t sent = 0;
      while (sent < tokens_per_round_ && cursor_[s] < tokens_.size()) {
        const Token& tok = tokens_[cursor_[s]++];
        w.put(1, 1);
        w.put(static_cast<std::uint64_t>(tok.kind), 2);
        w.put(tok.a, id_bits_);
        w.put(tok.b, b_bits_);
        w.put(tok.w, kWeightBits);
        w.put(token_checksum(tok), kTokenChecksumBits);
        ++sent;
      }
      if (w.bits() < info.bits_per_edge) w.put(0, 1);  // terminator
      outbox.send(s, std::move(w).finish());
    }
  }

  // --- state --------------------------------------------------------------

  LocalMaxIsSolver solver_;
  ApproxMisConfig cfg_;
  bool initialized_ = false;
  std::size_t n_ = 0;
  std::size_t id_bits_ = 0;
  std::size_t b_bits_ = 0;
  std::size_t token_bits_ = 0;
  std::size_t tokens_per_round_ = 0;
  std::size_t sigma_ = 1;

  std::vector<Token> tokens_;
  std::vector<std::size_t> cursor_;
  std::vector<std::uint8_t> node_known_;
  std::vector<std::uint64_t> degree_;
  std::vector<std::uint64_t> weight_;
  std::vector<std::uint8_t> decision_;  ///< 0 none / 1 In / 2 Out
  /// Adjacency learned so far; grows one edge token at a time.
  std::vector<std::vector<NodeId>> known_adj_;
  std::unordered_set<std::uint64_t> edge_known_;
  graph::Weight weight_seen_ = 0;  ///< monotone; drives the auto deadline

  State state_ = State::kUndecided;
  std::vector<std::uint8_t> sticky_;        ///< 0 none / 1 In / 2 Out
  std::vector<std::uint8_t> fresh_status_;  ///< wire Status, this round
  std::vector<std::uint8_t> fresh_valid_;

  std::size_t round_index_ = 0;
  std::size_t epoch_ = 0;
  std::size_t epoch_start_ = 0;
  bool announced_final_ = false;
  bool finished_ = false;
  bool failed_ = false;

  // Reused scratch.
  std::vector<std::int32_t> bfs_dist_;
  std::vector<NodeId> bfs_order_;
  std::vector<std::int32_t> index_of_;
  std::vector<std::uint8_t> in_carve_;
};

}  // namespace

std::size_t approx_mis_required_bits(std::size_t n, graph::Weight max_weight) {
  CLB_EXPECT(max_weight >= 0 && static_cast<std::uint64_t>(max_weight) <
                                    (1ULL << kWeightBits),
             "approx-mis: max weight exceeds token field");
  return kFrameBits + 1 + token_bits_for(n);
}

std::size_t approx_mis_local_bits(std::size_t n, graph::Weight max_weight) {
  CLB_EXPECT(max_weight >= 0 && static_cast<std::uint64_t>(max_weight) <
                                    (1ULL << kWeightBits),
             "approx-mis: max weight exceeds token field");
  return kFrameBits + max_tokens_for(n) * (1 + token_bits_for(n)) + 1;
}

std::size_t approx_mis_sigma(std::size_t n, std::size_t bits_per_edge) {
  const std::size_t k = tokens_per_round(n, bits_per_edge);
  return (max_tokens_for(n) + k - 1) / k;
}

std::size_t approx_mis_round_bound(std::size_t n, graph::Weight total_weight,
                                   std::size_t eps_num, std::size_t eps_den,
                                   std::size_t bits_per_edge) {
  CLB_EXPECT(eps_num >= 1 && eps_den >= 1,
             "approx-mis: eps must be a positive rational");
  const std::size_t sigma = approx_mis_sigma(n, bits_per_edge);
  // Number of radii at which a growing ball can still gain a full (1+eps)
  // factor: integer-safe log_{1+eps} of the total weight.
  std::uint64_t w = 1;
  std::size_t plateau = 0;
  const std::uint64_t target =
      total_weight > 0 ? static_cast<std::uint64_t>(total_weight) : 1;
  while (w < target) {
    w += std::max<std::uint64_t>(1, w * eps_num / eps_den);
    ++plateau;
  }
  // Every epoch past the plateau bound, each live component's minimum-id
  // node carves and removes at least itself; n extra epochs finish the job,
  // with slack for decision flooding and the final handshake.
  const std::size_t epochs = n + plateau + 4;
  // sum_{e=0}^{epochs} 3*(e+2)*sigma
  return 3 * sigma * ((epochs + 2) * (epochs + 3) / 2 - 1);
}

ProgramFactory approx_mis_factory(LocalMaxIsSolver solver,
                                  ApproxMisConfig cfg) {
  return [solver = std::move(solver), cfg](NodeId, const NodeInfo&) {
    return std::make_unique<ApproxMisProgram>(solver, cfg);
  };
}

}  // namespace congestlb::congest
