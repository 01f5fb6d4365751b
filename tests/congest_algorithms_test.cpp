// Distributed algorithms on the CONGEST simulator: greedy MIS, Luby MIS,
// weighted greedy, and the universal gather-and-solve program.

#include <gtest/gtest.h>

#include <memory>
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

/// Sends one hand-built edge token (a, b) to every neighbor, then idles.
class RawEdgeTokenSender final : public NodeProgram {
 public:
  RawEdgeTokenSender(std::uint64_t a, std::uint64_t b) : a_(a), b_(b) {}
  void round(const NodeInfo& info, const Inbox&, Outbox& outbox,
             Rng&) override {
    if (sent_) return;
    sent_ = true;
    const std::size_t id_bits = 2;  // n = 4
    ASSERT_EQ(info.n, 4u);
    outbox.send_all(
        std::move(MessageWriter().put(1, 1).put(a_, id_bits).put(b_, id_bits))
            .finish());
  }
  bool finished() const override { return sent_; }
  std::int64_t output() const override { return 0; }

 private:
  std::uint64_t a_, b_;
  bool sent_ = false;
};

TEST(Universal, RejectsMalformedEdgeTokens) {
  // Senders always emit u < v; a reversed or self-loop token must be
  // refused, not stored as a distinct edge key.
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  NetworkConfig cfg;
  cfg.bits_per_edge = universal_required_bits(g.num_nodes(), 1);
  const auto universal = universal_maxis_factory(exact_solver());
  for (const auto& [a, b] : {std::pair<std::uint64_t, std::uint64_t>{2, 1},
                             std::pair<std::uint64_t, std::uint64_t>{1, 1}}) {
    Network net(g, [&, a = a, b = b](graph::NodeId v, const NodeInfo& info)
                    -> std::unique_ptr<NodeProgram> {
      if (v == 0) return std::make_unique<RawEdgeTokenSender>(a, b);
      return universal(v, info);
    }, cfg);
    EXPECT_THROW(net.run(), InvariantError) << "token (" << a << ", " << b << ")";
  }
}

TEST(Universal, RequiredBitsFormula) {
  EXPECT_EQ(universal_required_bits(4, 1), 1u + 2 * 2 + 32);
  EXPECT_EQ(universal_required_bits(1024, 1), 1u + 2 * 10 + 32);
}

}  // namespace
}  // namespace congestlb::congest
