// Distributed algorithms on the CONGEST simulator: greedy MIS, Luby MIS,
// weighted greedy, and the universal gather-and-solve program.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "congest/algorithms/greedy_mis.hpp"
#include "congest/algorithms/luby_mis.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/algorithms/weighted_greedy.hpp"
#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "maxis/branch_and_bound.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::congest {
namespace {

graph::Graph random_graph(Rng& rng, std::size_t n, double p,
                          graph::Weight max_w = 1) {
  graph::Graph g(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    g.set_weight(v, max_w == 1 ? 1 : static_cast<graph::Weight>(1 + rng.below(max_w)));
  }
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(p)) g.add_edge(u, v);
    }
  }
  return g;
}

/// An IS is maximal iff every non-member has a member neighbor.
void expect_maximal_is(const graph::Graph& g,
                       const std::vector<graph::NodeId>& is) {
  ASSERT_TRUE(g.is_independent_set(is));
  std::vector<bool> in(g.num_nodes(), false);
  for (auto v : is) in[v] = true;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in[v]) continue;
    bool dominated = false;
    for (auto nb : g.neighbors(v)) {
      if (in[nb]) {
        dominated = true;
        break;
      }
    }
    EXPECT_TRUE(dominated) << "node " << v << " neither in the MIS nor "
                           << "adjacent to it";
  }
}

class MisAlgorithmSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MisAlgorithmSweep, GreedyProducesMaximalIs) {
  Rng rng(GetParam());
  auto g = random_graph(rng, 3 + rng.below(40), 0.25);
  Network net(g, greedy_mis_factory());
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

TEST_P(MisAlgorithmSweep, LubyProducesMaximalIs) {
  Rng rng(GetParam() + 1000);
  auto g = random_graph(rng, 3 + rng.below(40), 0.25);
  NetworkConfig cfg;
  cfg.seed = GetParam();
  Network net(g, luby_mis_factory(), cfg);
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

TEST_P(MisAlgorithmSweep, WeightedGreedyProducesMaximalIs) {
  Rng rng(GetParam() + 2000);
  auto g = random_graph(rng, 3 + rng.below(40), 0.25, /*max_w=*/10);
  Network net(g, weighted_greedy_factory());
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisAlgorithmSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(GreedyMis, PathPicksAlternatingByIds) {
  // On a path 0-1-2-3-4, greedy-by-id gives {4, 2, 0}: 4 joins (max id),
  // then 2, then 0.
  graph::Graph g(5);
  for (graph::NodeId v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
  Network net(g, greedy_mis_factory());
  net.run();
  EXPECT_EQ(net.selected_nodes(), (std::vector<graph::NodeId>{0, 2, 4}));
}

TEST(GreedyMis, CliqueSelectsExactlyOne) {
  graph::Graph g(8);
  std::vector<graph::NodeId> all;
  for (graph::NodeId v = 0; v < 8; ++v) all.push_back(v);
  g.add_clique(all);
  Network net(g, greedy_mis_factory());
  net.run();
  EXPECT_EQ(net.selected_nodes().size(), 1u);
  EXPECT_EQ(net.selected_nodes()[0], 7u);  // max id wins
}

TEST(GreedyMis, IsolatedNodesAllJoin) {
  graph::Graph g(5);
  Network net(g, greedy_mis_factory());
  net.run();
  EXPECT_EQ(net.selected_nodes().size(), 5u);
}

TEST(LubyMis, TerminatesQuicklyOnLargeSparseGraph) {
  Rng rng(99);
  auto g = random_graph(rng, 300, 0.02);
  Network net(g, luby_mis_factory());
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  // O(log n) phases w.h.p.; allow a wide constant.
  EXPECT_LT(stats.rounds, 120u);
  expect_maximal_is(g, net.selected_nodes());
}

TEST(LubyMis, DeterministicGivenSeed) {
  Rng rng(5);
  auto g = random_graph(rng, 60, 0.15);
  NetworkConfig cfg;
  cfg.seed = 12345;
  Network a(g, luby_mis_factory(), cfg);
  Network b(g, luby_mis_factory(), cfg);
  a.run();
  b.run();
  EXPECT_EQ(a.selected_nodes(), b.selected_nodes());
}

TEST(WeightedGreedy, PrefersHeavyNodes) {
  // Star: center weight 100, leaves weight 1 -> center alone wins.
  graph::Graph g(6);
  g.set_weight(0, 100);
  for (graph::NodeId v = 1; v < 6; ++v) g.add_edge(0, v);
  Network net(g, weighted_greedy_factory());
  net.run();
  EXPECT_EQ(net.selected_nodes(), (std::vector<graph::NodeId>{0}));
}

TEST(WeightedGreedy, CanBeDeltaFactorFromOptimal) {
  // The anti-greedy trap: center weight 10, five leaves weight 9 each.
  // Weighted-greedy takes the center (weight 10); OPT takes the leaves
  // (weight 45) — a Delta-ish gap, the upper-bound side of the paper's
  // story that local algorithms only guarantee ~Delta approximations.
  graph::Graph g(6);
  g.set_weight(0, 10);
  for (graph::NodeId v = 1; v < 6; ++v) {
    g.set_weight(v, 9);
    g.add_edge(0, v);
  }
  Network net(g, weighted_greedy_factory());
  net.run();
  const auto sel = net.selected_nodes();
  EXPECT_EQ(g.weight_of(sel), 10);
  EXPECT_EQ(maxis::solve_exact(g).weight, 45);
}

TEST(WeightedGreedy, DeltaPlusOneGuarantee) {
  // The classical bound the paper's upper-bound discussion leans on: the
  // local-max-by-weight IS has weight >= OPT/(Delta+1) — every join
  // excludes at most Delta neighbors, none heavier than the joiner.
  Rng rng(60);
  for (int trial = 0; trial < 12; ++trial) {
    auto g = random_graph(rng, 6 + rng.below(18), 0.35, 9);
    Network net(g, weighted_greedy_factory());
    net.run();
    const auto got = g.weight_of(net.selected_nodes());
    const auto opt = maxis::solve_exact(g).weight;
    EXPECT_GE(got * static_cast<graph::Weight>(g.max_degree() + 1), opt)
        << "trial " << trial;
  }
}

// ------------------------------------------------------------- universal --

congest::LocalMaxIsSolver exact_solver() {
  return [](const graph::Graph& g) { return maxis::solve_exact(g).nodes; };
}

class UniversalSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniversalSweep, MatchesCentralizedExact) {
  Rng rng(GetParam());
  auto g = random_graph(rng, 4 + rng.below(16), 0.3, /*max_w=*/8);
  // Ensure connectivity (gossip needs it): chain the components.
  for (graph::NodeId v = 0; v + 1 < g.num_nodes(); ++v) {
    if (!g.has_edge(v, v + 1)) g.add_edge(v, v + 1);
  }
  NetworkConfig cfg;
  cfg.bits_per_edge = universal_required_bits(g.num_nodes(), 8);
  Network net(g, universal_maxis_factory(exact_solver()), cfg);
  const auto stats = net.run();
  ASSERT_TRUE(stats.all_finished);
  const auto sel = net.selected_nodes();
  EXPECT_TRUE(g.is_independent_set(sel));
  EXPECT_EQ(g.weight_of(sel), maxis::solve_exact(g).weight);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniversalSweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

TEST(Universal, RoundsScaleWithGraphSize) {
  // The universal algorithm needs Theta(m + D) rounds (token pipeline) —
  // the O(n^2)-ish generic upper bound the paper contrasts Theorem 2 with.
  Rng rng(7);
  auto g = random_graph(rng, 40, 0.3);
  for (graph::NodeId v = 0; v + 1 < g.num_nodes(); ++v) {
    if (!g.has_edge(v, v + 1)) g.add_edge(v, v + 1);
  }
  NetworkConfig cfg;
  cfg.bits_per_edge = universal_required_bits(g.num_nodes(), 1);
  Network net(g, universal_maxis_factory(exact_solver()), cfg);
  const auto stats = net.run();
  ASSERT_TRUE(stats.all_finished);
  EXPECT_GE(stats.rounds, g.num_nodes() / 4);  // genuinely global work
  EXPECT_LE(stats.rounds, 4 * (g.num_edges() + g.num_nodes()));
}

TEST(Universal, DenseGraphsReconstructExactly) {
  // Known edges are bits of a bitmap over pairs u < v. Complete graphs set
  // every bit (C(12, 2) = 66 crosses a word boundary), and a path's last
  // edge (n - 2, n - 1) is the highest bit.
  auto expect_exact = [](const graph::Graph& g) {
    NetworkConfig cfg;
    cfg.bits_per_edge = universal_required_bits(g.num_nodes(), 8);
    Network net(g, universal_maxis_factory(exact_solver()), cfg);
    const auto stats = net.run();
    ASSERT_TRUE(stats.all_finished) << "n = " << g.num_nodes();
    const auto sel = net.selected_nodes();
    EXPECT_TRUE(g.is_independent_set(sel));
    EXPECT_EQ(g.weight_of(sel), maxis::solve_exact(g).weight)
        << "n = " << g.num_nodes();
  };
  for (std::size_t n : {2, 3, 12, 33}) {
    graph::Graph g(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      g.set_weight(v, static_cast<graph::Weight>(1 + v % 8));
    }
    for (graph::NodeId u = 0; u < n; ++u) {
      for (graph::NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
    }
    expect_exact(g);
  }
  graph::Graph path(33);
  for (graph::NodeId v = 0; v + 1 < path.num_nodes(); ++v) {
    path.set_weight(v, static_cast<graph::Weight>(1 + v % 5));
    path.add_edge(v, v + 1);
  }
  expect_exact(path);
}

TEST(Universal, NodesFinishingTogetherShareOneSolve) {
  // Both ends of a single edge learn the whole graph in round 2, when the
  // other's node token arrives. At threads > 1 they sit in different
  // shards and reach the memo together; the solver sleeps, so the second
  // node arrives while the first solve is still open. The memo's lock must
  // leave exactly one solve.
  graph::Graph g(2);
  g.set_weight(0, 2);
  g.set_weight(1, 3);
  g.add_edge(0, 1);
  NetworkConfig cfg;
  cfg.bits_per_edge = universal_required_bits(g.num_nodes(), 3);
  for (std::size_t threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::size_t calls = 0;  // unsynchronized: the memo's lock orders calls
    cfg.num_threads = threads;
    Network net(g,
                universal_maxis_factory([&calls](const graph::Graph& lg) {
                  ++calls;
                  std::this_thread::sleep_for(std::chrono::milliseconds(5));
                  return maxis::solve_exact(lg).nodes;
                }),
                cfg);
    ASSERT_TRUE(net.run().all_finished);
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(net.outputs(), (std::vector<std::int64_t>{0, 1}));
  }
}

TEST(Universal, OverlappingNetworksSolveEachLearnedGraph) {
  // Two networks from one factory, alive together and stepped one round at
  // a time in turn, share one memo. Their graphs differ in one edge, or in
  // one weight, so the full comparison must tell them apart: two solves,
  // and each network's outputs are those of a fresh factory.
  Rng rng(31);
  auto base = random_graph(rng, 14, 0.3, /*max_w=*/8);
  for (graph::NodeId v = 0; v + 1 < base.num_nodes(); ++v) {
    if (!base.has_edge(v, v + 1)) base.add_edge(v, v + 1);
  }
  graph::Graph extra_edge = base;
  graph::NodeId far = 2;
  while (extra_edge.has_edge(0, far)) ++far;
  extra_edge.add_edge(0, far);
  graph::Graph heavier = base;
  heavier.set_weight(5, base.weight(5) == 8 ? 1 : 8);
  NetworkConfig cfg;
  cfg.bits_per_edge = universal_required_bits(base.num_nodes(), 8);
  const auto fresh_outputs = [&](const graph::Graph& g) {
    Network net(g, universal_maxis_factory(exact_solver()), cfg);
    EXPECT_TRUE(net.run().all_finished);
    return net.outputs();
  };
  for (const graph::Graph* other : {&extra_edge, &heavier}) {
    for (std::size_t threads : {1, 2}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::size_t calls = 0;  // unsynchronized: the memo's lock orders calls
      const auto counting =
          universal_maxis_factory([&calls](const graph::Graph& g) {
            ++calls;
            return maxis::solve_exact(g).nodes;
          });
      cfg.num_threads = threads;
      Network a(base, counting, cfg);
      Network b(*other, counting, cfg);
      bool a_done = false;
      bool b_done = false;
      for (std::size_t r = 0; r < 10'000 && !(a_done && b_done); ++r) {
        a_done = a.run_rounds(1).all_finished;
        b_done = b.run_rounds(1).all_finished;
      }
      ASSERT_TRUE(a_done && b_done);
      EXPECT_EQ(calls, 2u);
      cfg.num_threads = 1;
      EXPECT_EQ(a.outputs(), fresh_outputs(base));
      EXPECT_EQ(b.outputs(), fresh_outputs(*other));
    }
  }
}

TEST(Universal, RejectsTooSmallBandwidth) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  NetworkConfig cfg;
  cfg.bits_per_edge = 8;  // token needs 1 + 2*2 + 32 bits
  Network net(g, universal_maxis_factory(exact_solver()), cfg);
  EXPECT_THROW(net.run(), InvariantError);
}

TEST(Universal, RejectsNullSolver) {
  EXPECT_THROW(universal_maxis_factory(nullptr)(0, NodeInfo{}),
               InvariantError);
}

/// Sends one hand-built message to every neighbor, then idles.
class RawMessageSender final : public NodeProgram {
 public:
  explicit RawMessageSender(Message msg) : msg_(std::move(msg)) {}
  void round(const NodeInfo&, const Inbox&, Outbox& outbox, Rng&) override {
    if (sent_) return;
    sent_ = true;
    outbox.send_all(msg_);
  }
  bool finished() const override { return sent_; }
  std::int64_t output() const override { return 0; }

 private:
  Message msg_;
  bool sent_ = false;
};

graph::Graph path_graph(std::size_t n) {
  graph::Graph g(n);
  for (graph::NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

/// Runs the universal program on path `g` with node 0 replaced by a
/// RawMessageSender of `msg` and expects InvariantError with `text`. No
/// other node can learn node 0's token, so node 1 reads `msg` before it
/// could know the graph.
void expect_rejected(const graph::Graph& g, const Message& msg,
                     const std::string& text) {
  NetworkConfig cfg;
  cfg.bits_per_edge = universal_required_bits(g.num_nodes(), 1);
  const auto universal = universal_maxis_factory(exact_solver());
  Network net(g, [&](graph::NodeId v, const NodeInfo& info)
                  -> std::unique_ptr<NodeProgram> {
    if (v == 0) return std::make_unique<RawMessageSender>(msg);
    return universal(v, info);
  }, cfg);
  try {
    net.run();
    ADD_FAILURE() << "no InvariantError";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
        << e.what();
  }
}

TEST(Universal, RejectsMalformedEdgeTokens) {
  // Senders always emit u < v; a reversed or self-loop token must be
  // refused, not stored as a distinct edge key.
  const std::size_t id_bits = 2;  // n = 4
  for (const auto& [a, b] : {std::pair<std::uint64_t, std::uint64_t>{2, 1},
                             std::pair<std::uint64_t, std::uint64_t>{1, 1}}) {
    SCOPED_TRACE("token (" + std::to_string(a) + ", " + std::to_string(b) +
                 ")");
    expect_rejected(
        path_graph(4),
        std::move(MessageWriter().put(1, 1).put(a, id_bits).put(b, id_bits))
            .finish(),
        "universal-maxis: edge token endpoints out of order");
  }
}

TEST(Universal, RejectsMalformedTokensWithTheirMessage) {
  // n = 5: ids take 3 bits, so a head is 7 bits and 5..7 are out of range.
  struct Case {
    const char* what;
    Message msg;
    const char* text;
  };
  const Case cases[] = {
      {"node id >= n",
       std::move(MessageWriter().put(0, 1).put(5, 3).put(1, 3).put(1, 32))
           .finish(),
       "universal-maxis: bad token ids"},
      {"edge endpoint >= n",
       std::move(MessageWriter().put(1, 1).put(1, 3).put(7, 3)).finish(),
       "universal-maxis: bad token ids"},
      {"head shorter than head_bits",
       std::move(MessageWriter().put(1, 1).put(1, 3)).finish(),
       "MessageReader: read past end"},
      {"node token with no weight field",
       std::move(MessageWriter().put(0, 1).put(0, 3).put(1, 3)).finish(),
       "MessageReader: read past end"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    expect_rejected(path_graph(5), c.msg, c.text);
  }
}

TEST(Universal, RequiredBitsFormula) {
  EXPECT_EQ(universal_required_bits(4, 1), 1u + 2 * 2 + 32);
  EXPECT_EQ(universal_required_bits(1024, 1), 1u + 2 * 10 + 32);
}

}  // namespace
}  // namespace congestlb::congest
