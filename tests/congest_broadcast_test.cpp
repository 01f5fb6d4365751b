// The CONGEST-Broadcast model (paper introduction: the model of [11],
// where a node sends the SAME O(log n)-bit message to all neighbors), the
// only model the engine runs. Every node program here is a broadcast
// algorithm — the MIS routines, the universal gossip and approx_mis's
// per-round frame send_all by construction — and its full transcript is
// identical for every thread count.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "congest/algorithms/greedy_mis.hpp"
#include "congest/algorithms/luby_mis.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/algorithms/weighted_greedy.hpp"
#include "congest/approx_mis.hpp"
#include "congest/network.hpp"
#include "delivery_log.hpp"
#include "graph/generators.hpp"
#include "maxis/branch_and_bound.hpp"
#include "support/rng.hpp"

namespace congestlb::congest {
namespace {

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
    EXPECT_TRUE(dominated);
  }
}

class BroadcastMisSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BroadcastMisSweep, GreedyRunsUnderBroadcastRestriction) {
  Rng rng(GetParam());
  auto g = graph::gnp_random(rng, 5 + rng.below(30), 0.25);
  Network net(g, greedy_mis_factory());
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

TEST_P(BroadcastMisSweep, LubyRunsUnderBroadcastRestriction) {
  Rng rng(GetParam() + 500);
  auto g = graph::gnp_random(rng, 5 + rng.below(30), 0.25);
  NetworkConfig cfg;
  cfg.seed = GetParam();
  Network net(g, luby_mis_factory(), cfg);
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

TEST_P(BroadcastMisSweep, WeightedGreedyRunsUnderBroadcastRestriction) {
  Rng rng(GetParam() + 900);
  auto g = graph::gnp_random(rng, 5 + rng.below(30), 0.25, 9);
  Network net(g, weighted_greedy_factory());
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BroadcastMisSweep,
                         ::testing::Values(11, 12, 13, 14, 15));

struct BroadcastRun {
  RunStats stats;
  std::vector<graph::NodeId> selected;
  std::vector<Delivery> transcript;
  std::vector<std::uint64_t> edge_bits;  ///< bits_on_edge, every edge

  friend bool operator==(const BroadcastRun&, const BroadcastRun&) = default;
};

BroadcastRun run_threads(const graph::Graph& g, const ProgramFactory& factory,
                         std::size_t bits_per_edge, std::size_t threads) {
  BroadcastRun rec;
  NetworkConfig cfg;
  cfg.bits_per_edge = bits_per_edge;
  cfg.num_threads = threads;
  cfg.seed = 5;
  cfg.on_cut_sends = log_deliveries(rec.transcript, g);
  Network net(g, factory, cfg);
  rec.stats = net.run();
  rec.selected = net.selected_nodes();
  for (const auto& [u, v] : graph::edge_list(g)) {
    rec.edge_bits.push_back(net.bits_on_edge(u, v));
  }
  return rec;
}

TEST(Broadcast, SameResultAcrossThreadCounts) {
  // Identical RunStats, outputs, hook transcripts and per-edge bits
  // for every thread count. The universal program needs a connected graph
  // and its token width, approx_mis its frame width (bits_per_edge 0 is
  // the auto budget).
  Rng rng(7);
  auto g = graph::gnp_random(rng, 35, 0.2);
  auto connected = graph::gnp_random_connected(rng, 24, 0.25);
  auto small = graph::gnp_random(rng, 14, 0.3, 5);
  const LocalMaxIsSolver exact = [](const graph::Graph& gg) {
    return maxis::solve_exact(gg).nodes;
  };
  const struct {
    const graph::Graph* g;
    ProgramFactory factory;
    std::size_t bits_per_edge;
  } cases[] = {
      {&g, greedy_mis_factory(), 0},
      {&g, luby_mis_factory(), 0},
      {&connected, universal_maxis_factory(exact),
       universal_required_bits(connected.num_nodes(), 1)},
      {&small, approx_mis_factory(exact),
       approx_mis_local_bits(small.num_nodes(), 5)},
  };
  for (const auto& c : cases) {
    const BroadcastRun serial = run_threads(*c.g, c.factory, c.bits_per_edge, 1);
    ASSERT_GT(serial.stats.messages_sent, 0u);
    ASSERT_TRUE(serial.stats.all_finished);
    ASSERT_EQ(serial.transcript.size(), serial.stats.messages_sent);
    for (std::size_t threads : {2, 8}) {
      EXPECT_EQ(run_threads(*c.g, c.factory, c.bits_per_edge, threads), serial)
          << "threads=" << threads;
    }
  }
}

TEST(Broadcast, UniversalGossipIsBroadcastCompatible) {
  // Each round a node broadcasts the next token of its one token list with
  // send_all, so every neighbor receives the identical message — the
  // universal algorithm is a CONGEST-Broadcast algorithm.
  Rng rng(3);
  auto g = graph::gnp_random_connected(rng, 12, 0.4);
  NetworkConfig cfg;
  cfg.bits_per_edge = universal_required_bits(g.num_nodes(), 1);
  Network net(g, universal_maxis_factory([](const graph::Graph& gg) {
                return maxis::solve_exact(gg).nodes;
              }),
              cfg);
  const auto stats = net.run();
  ASSERT_TRUE(stats.all_finished);
  const auto sel = net.selected_nodes();
  EXPECT_EQ(g.weight_of(sel), maxis::solve_exact(g).weight);
}

}  // namespace
}  // namespace congestlb::congest
