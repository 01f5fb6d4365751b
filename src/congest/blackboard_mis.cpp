#include "congest/blackboard_mis.hpp"

#include <algorithm>
#include <utility>

#include "support/expect.hpp"
#include "support/hash.hpp"
#include "support/math.hpp"

namespace congestlb::congest {

namespace {

using graph::NodeId;

std::size_t id_bits_for(std::size_t n) {
  return static_cast<std::size_t>(
      std::max(1, ceil_log2(std::max<std::size_t>(2, n))));
}

std::size_t owner_of(NodeId v, std::size_t players) { return v % players; }

/// Deterministic greedy-by-id MIS of the full graph (what every player
/// computes locally once the board holds all edges).
std::vector<NodeId> greedy_mis_by_id(const graph::Graph& g) {
  std::vector<std::uint8_t> in(g.num_nodes(), 0);
  std::vector<std::uint8_t> blocked(g.num_nodes(), 0);
  std::vector<NodeId> mis;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (blocked[v]) continue;
    in[v] = 1;
    mis.push_back(v);
    for (NodeId u : g.neighbors(v)) blocked[u] = 1;
  }
  return mis;
}

void verify_maximal_independent(const graph::Graph& g,
                                const std::vector<NodeId>& mis) {
  CLB_EXPECT(g.is_independent_set(mis),
             "blackboard-mis: result is not independent");
  std::vector<std::uint8_t> in(g.num_nodes(), 0);
  for (NodeId v : mis) in[v] = 1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in[v]) continue;
    const auto nb = g.neighbors(v);
    CLB_EXPECT(std::any_of(nb.begin(), nb.end(),
                           [&](NodeId u) { return in[u] != 0; }),
               "blackboard-mis: result is not maximal");
  }
}

}  // namespace

BlackboardMisReport full_revelation_mis(const graph::Graph& g,
                                        std::size_t players,
                                        comm::Blackboard& board) {
  CLB_EXPECT(players >= 1 && players <= board.num_players(),
             "blackboard-mis: bad player count");
  const std::size_t id_bits = id_bits_for(g.num_nodes());
  const std::uint64_t start_bits = board.total_bits();
  // One round: the owner of each edge's smaller endpoint reveals it.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (v <= u) continue;
      board.post_uint(owner_of(u, players),
                      (static_cast<std::uint64_t>(u) << id_bits) | v,
                      2 * id_bits);
    }
  }
  BlackboardMisReport report;
  report.mis = greedy_mis_by_id(g);
  report.players = players;
  report.blackboard_rounds = 1;
  report.bits_posted = board.total_bits() - start_bits;
  verify_maximal_independent(g, report.mis);
  return report;
}

BlackboardMisReport luby_blackboard_mis(const graph::Graph& g,
                                        std::size_t players,
                                        comm::Blackboard& board,
                                        std::uint64_t seed) {
  CLB_EXPECT(players >= 1 && players <= board.num_players(),
             "blackboard-mis: bad player count");
  const std::size_t n = g.num_nodes();
  const std::size_t id_bits = id_bits_for(n);
  const std::uint64_t start_bits = board.total_bits();

  // 0 undecided / 1 in / 2 out. This state is common knowledge: it changes
  // only through winner/covered posts, which every player reads.
  std::vector<std::uint8_t> state(n, 0);
  std::size_t undecided = n;
  std::size_t rounds = 0;
  std::uint64_t phase = 0;
  while (undecided > 0) {
    ++phase;
    // Marking needs no communication: priorities are a shared hash, and the
    // owner of v knows v's full neighborhood and the board-derived
    // undecided status of each neighbor. The global priority minimum always
    // wins, so every phase decides at least one vertex.
    std::vector<NodeId> winners;
    for (NodeId v = 0; v < n; ++v) {
      if (state[v] != 0) continue;
      const auto mine = std::pair(hash_mix(seed, phase, v), v);
      bool win = true;
      for (NodeId u : g.neighbors(v)) {
        if (state[u] == 0 && std::pair(hash_mix(seed, phase, u), u) < mine) {
          win = false;
          break;
        }
      }
      if (win) winners.push_back(v);
    }
    for (NodeId v : winners) {
      board.post_uint(owner_of(v, players), v, id_bits);
      state[v] = 1;
      --undecided;
    }
    ++rounds;
    // Each newly covered vertex is reported by its owner — the one player
    // that can see the edge to the winner.
    std::vector<NodeId> covered;
    for (NodeId w : winners) {
      for (NodeId u : g.neighbors(w)) {
        if (state[u] == 0) {
          state[u] = 2;
          --undecided;
          covered.push_back(u);
        }
      }
    }
    std::sort(covered.begin(), covered.end());
    for (NodeId u : covered) {
      board.post_uint(owner_of(u, players), u, id_bits);
    }
    ++rounds;
  }

  BlackboardMisReport report;
  for (NodeId v = 0; v < n; ++v) {
    if (state[v] == 1) report.mis.push_back(v);
  }
  report.players = players;
  report.blackboard_rounds = rounds;
  report.bits_posted = board.total_bits() - start_bits;
  verify_maximal_independent(g, report.mis);
  return report;
}

}  // namespace congestlb::congest
