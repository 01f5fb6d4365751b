// The CONGEST-Broadcast restriction (paper introduction: the model of [11],
// where a node must send the SAME O(log n)-bit message to all neighbors).
// All our node programs turn out to be broadcast algorithms — the MIS
// routines send_all by construction, and the universal gossip advances all
// neighbor cursors in lockstep — so they run unchanged under the strict
// checker, and a broadcast algorithm's output cannot depend on the mode.
// (Genuinely personalized traffic is covered by
// congest_test.cpp/BroadcastModeRejectsPersonalizedMessages.)

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "congest/algorithms/greedy_mis.hpp"
#include "congest/algorithms/luby_mis.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/algorithms/weighted_greedy.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "maxis/branch_and_bound.hpp"
#include "support/expect.hpp"
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
  NetworkConfig cfg;
  cfg.broadcast_only = true;
  Network net(g, greedy_mis_factory(), cfg);
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

TEST_P(BroadcastMisSweep, LubyRunsUnderBroadcastRestriction) {
  Rng rng(GetParam() + 500);
  auto g = graph::gnp_random(rng, 5 + rng.below(30), 0.25);
  NetworkConfig cfg;
  cfg.broadcast_only = true;
  cfg.seed = GetParam();
  Network net(g, luby_mis_factory(), cfg);
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

TEST_P(BroadcastMisSweep, WeightedGreedyRunsUnderBroadcastRestriction) {
  Rng rng(GetParam() + 900);
  auto g = graph::gnp_random(rng, 5 + rng.below(30), 0.25, 9);
  NetworkConfig cfg;
  cfg.broadcast_only = true;
  Network net(g, weighted_greedy_factory(), cfg);
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BroadcastMisSweep,
                         ::testing::Values(11, 12, 13, 14, 15));

struct Delivery {
  std::size_t round;
  graph::NodeId from;
  graph::NodeId to;
  std::size_t bits;
  std::vector<std::byte> data;

  friend bool operator==(const Delivery&, const Delivery&) = default;
};

struct BroadcastRun {
  RunStats stats;
  std::vector<graph::NodeId> selected;
  std::vector<Delivery> transcript;
  std::vector<std::uint64_t> edge_bits;  ///< bits_on_edge, every edge

  friend bool operator==(const BroadcastRun&, const BroadcastRun&) = default;
};

BroadcastRun run_mode(const graph::Graph& g, const ProgramFactory& factory,
                      bool broadcast_only, std::size_t threads) {
  BroadcastRun rec;
  NetworkConfig cfg;
  cfg.broadcast_only = broadcast_only;
  cfg.num_threads = threads;
  cfg.seed = 5;
  cfg.on_message = [&rec](std::size_t round, graph::NodeId from,
                          graph::NodeId to, const Message& m) {
    rec.transcript.push_back(
        {round, from, to, m.bits,
         std::vector<std::byte>(m.data.begin(), m.data.end())});
  };
  Network net(g, factory, cfg);
  rec.stats = net.run();
  rec.selected = net.selected_nodes();
  for (const auto& [u, v] : graph::edge_list(g)) {
    rec.edge_bits.push_back(net.bits_on_edge(u, v));
  }
  return rec;
}

TEST(Broadcast, SameResultAsUnicastForBroadcastAlgorithms) {
  // A broadcast algorithm's behavior cannot change when the restriction is
  // lifted. broadcast_only switches the engine to one out-slot per node, so
  // this also pins that layout against the per-edge one: identical
  // RunStats, outputs, observer transcripts and per-edge bits, for every
  // thread count.
  Rng rng(7);
  auto g = graph::gnp_random(rng, 35, 0.2);
  for (const ProgramFactory& factory :
       {greedy_mis_factory(), luby_mis_factory()}) {
    const BroadcastRun unicast = run_mode(g, factory, false, 1);
    ASSERT_GT(unicast.stats.messages_sent, 0u);
    for (std::size_t threads : {1, 2, 8}) {
      EXPECT_EQ(run_mode(g, factory, false, threads), unicast)
          << "unicast threads=" << threads;
      EXPECT_EQ(run_mode(g, factory, true, threads), unicast)
          << "broadcast_only threads=" << threads;
    }
  }
}

TEST(Broadcast, PartialFanOutRejected) {
  // Identical payloads to only some neighbors are not a broadcast: the
  // CONGEST-Broadcast restriction requires all neighbors or none, on a
  // materialized graph exactly as on its blocked twin.
  class FirstNeighborOnly final : public NodeProgram {
   public:
    void round(const NodeInfo& info, const Inbox&, Outbox& outbox,
               Rng&) override {
      if (info.id == 0 && !done_) {
        outbox.send(0, std::move(MessageWriter().put(1, 8)).finish());
      }
      done_ = true;
    }
    bool finished() const override { return done_; }

   private:
    bool done_ = false;
  };
  const ProgramFactory factory = [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<FirstNeighborOnly>();
  };

  graph::Graph blocked(3);
  blocked.set_implicit_block_threshold(1);
  blocked.add_clique(std::vector<graph::NodeId>{0, 1, 2});
  ASSERT_TRUE(blocked.has_implicit_blocks());
  const graph::Graph triangle = blocked.materialized();

  NetworkConfig cfg;
  cfg.broadcast_only = true;
  Network materialized(triangle, factory, cfg);
  EXPECT_THROW(materialized.run(), InvariantError);
  Network twin(blocked, factory, cfg);
  EXPECT_THROW(twin.run(), InvariantError);

  // Without the restriction the same program is a legal unicast.
  Network unicast(triangle, factory);
  EXPECT_EQ(unicast.run().messages_sent, 1u);
}

TEST(Broadcast, UniversalGossipIsBroadcastCompatible) {
  // The token pipeline advances all neighbor cursors in lockstep over the
  // same token list, so every neighbor receives the identical message each
  // round — the universal algorithm is in fact a CONGEST-Broadcast
  // algorithm, and the strict broadcast checker accepts it.
  Rng rng(3);
  auto g = graph::gnp_random_connected(rng, 12, 0.4);
  NetworkConfig cfg;
  cfg.broadcast_only = true;
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
