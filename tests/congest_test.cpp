// CONGEST simulator core: message bit-packing, bandwidth enforcement,
// synchronous delivery semantics, determinism, broadcast restriction, the
// message observer hook, and run statistics.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "congest/message.hpp"
#include "congest/network.hpp"
#include "congest/topology.hpp"
#include "graph/graph.hpp"
#include "support/expect.hpp"

namespace congestlb::congest {
namespace {

// ----------------------------------------------------------------- message --

TEST(Message, WriterReaderRoundTrip) {
  MessageWriter w;
  w.put(5, 3).put(0, 1).put(1023, 10).put(~0ULL >> 1, 63);
  Message m = std::move(w).finish();
  EXPECT_EQ(m.bits, 3u + 1 + 10 + 63);
  MessageReader r(m);
  EXPECT_EQ(r.get(3), 5u);
  EXPECT_EQ(r.get(1), 0u);
  EXPECT_EQ(r.get(10), 1023u);
  EXPECT_EQ(r.get(63), ~0ULL >> 1);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Message, WriterRejectsOverflowAndBadWidth) {
  MessageWriter w;
  EXPECT_THROW(w.put(8, 3), InvariantError);   // 8 needs 4 bits
  EXPECT_THROW(w.put(0, 0), InvariantError);   // zero width
  EXPECT_THROW(w.put(0, 65), InvariantError);  // too wide
}

TEST(Message, ReaderRejectsOverrun) {
  Message m = std::move(MessageWriter().put(3, 2)).finish();
  MessageReader r(m);
  EXPECT_EQ(r.get(2), 3u);
  EXPECT_THROW(r.get(1), InvariantError);
}

TEST(Message, CrossByteBoundary) {
  MessageWriter w;
  w.put(0b101, 3).put(0b110011, 6).put(0b1, 1);
  Message m = std::move(w).finish();
  MessageReader r(m);
  EXPECT_EQ(r.get(3), 0b101u);
  EXPECT_EQ(r.get(6), 0b110011u);
  EXPECT_EQ(r.get(1), 1u);
}

// ------------------------------------------------------------- test programs --

/// Sends its id to all neighbors for `rounds_to_run` rounds; records ids
/// heard.
class EchoProgram final : public NodeProgram {
 public:
  explicit EchoProgram(std::size_t rounds_to_run)
      : rounds_to_run_(rounds_to_run) {}

  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng&) override {
    for (std::size_t s = 0; s < inbox.size(); ++s) {
      if (inbox[s]) {
        MessageReader r(*inbox[s]);
        heard_.push_back(r.get(16));
      }
    }
    ++rounds_seen_;
    if (rounds_seen_ > rounds_to_run_) return;
    Message m = std::move(MessageWriter().put(info.id, 16)).finish();
    for (std::size_t s = 0; s < info.neighbors.size(); ++s) {
      outbox.send(s, m);
    }
  }
  bool finished() const override { return rounds_seen_ > rounds_to_run_; }
  std::int64_t output() const override {
    return static_cast<std::int64_t>(heard_.size());
  }

 private:
  std::size_t rounds_to_run_;
  std::size_t rounds_seen_ = 0;
  std::vector<std::uint64_t> heard_;
};

/// Sends an oversized message to its first neighbor.
class OversizeProgram final : public NodeProgram {
 public:
  void round(const NodeInfo& info, const Inbox&, Outbox& outbox, Rng&) override {
    if (info.neighbors.empty()) return;
    MessageWriter w;
    for (std::size_t i = 0; i <= info.bits_per_edge; ++i) w.put(1, 1);
    outbox.send(0, std::move(w).finish());
  }
  bool finished() const override { return false; }
};

/// Sends different messages to different neighbors (illegal in broadcast
/// mode).
class PersonalizedProgram final : public NodeProgram {
 public:
  void round(const NodeInfo& info, const Inbox&, Outbox& outbox, Rng&) override {
    for (std::size_t s = 0; s < info.neighbors.size(); ++s) {
      outbox.send(s, std::move(MessageWriter().put(s & 1, 1)).finish());
    }
    done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

graph::Graph triangle() {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  return g;
}

/// 16-bit payloads need more than the tiny auto budget of a 3-node graph.
NetworkConfig echo_cfg() {
  NetworkConfig cfg;
  cfg.bits_per_edge = 16;
  return cfg;
}

// ----------------------------------------------------------------- network --

TEST(Network, AutoBandwidthIsLogarithmic) {
  EXPECT_EQ(congest_bandwidth_bits(2), 4u);
  EXPECT_EQ(congest_bandwidth_bits(1024), 40u);
  EXPECT_EQ(congest_bandwidth_bits(1025), 44u);
  // The budget is constexpr so program tables can embed it at compile time.
  static_assert(congest_bandwidth_bits(0) == 4);
  static_assert(congest_bandwidth_bits(2) == 4);
  static_assert(congest_bandwidth_bits(1024) == 40);
  static_assert(congest_bandwidth_bits(1 << 20) == 80);
}

TEST(Network, DeliversNextRound) {
  auto g = triangle();
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(1);
  }, echo_cfg());
  const RunStats stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  // Round 1: everyone sends to both neighbors (6 messages); round 2:
  // delivered; nothing further.
  EXPECT_EQ(stats.messages_sent, 6u);
  for (graph::NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(net.program(v).output(), 2) << "node " << v;
  }
}

TEST(Network, RoundCountMatchesProgramLifetime) {
  auto g = triangle();
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(5);
  }, echo_cfg());
  const RunStats stats = net.run();
  // 5 sending rounds + 1 final quiet round to finish.
  EXPECT_EQ(stats.rounds, 6u);
  EXPECT_EQ(stats.messages_sent, 5u * 6);
}

TEST(Network, BandwidthEnforced) {
  auto g = triangle();
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<OversizeProgram>();
  });
  EXPECT_THROW(net.run(), InvariantError);
}

TEST(Network, CustomBandwidthHonored) {
  auto g = triangle();
  NetworkConfig cfg;
  cfg.bits_per_edge = 16;  // exactly the echo payload
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(1);
  }, cfg);
  EXPECT_NO_THROW(net.run());
  NetworkConfig tight;
  tight.bits_per_edge = 15;
  Network net2(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(1);
  }, tight);
  EXPECT_THROW(net2.run(), InvariantError);
}

TEST(Network, BitAccounting) {
  auto g = triangle();
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(2);
  }, echo_cfg());
  const RunStats stats = net.run();
  EXPECT_EQ(stats.bits_sent, stats.messages_sent * 16);
  // Each edge carried 2 rounds x 2 directions x 16 bits.
  EXPECT_EQ(net.bits_on_edge(0, 1), 64u);
  EXPECT_EQ(net.bits_on_edge(1, 2), 64u);
  EXPECT_THROW(net.bits_on_edge(0, 0), InvariantError);
}

TEST(Network, MessageObserverSeesEverything) {
  auto g = triangle();
  std::size_t observed = 0;
  std::uint64_t observed_bits = 0;
  NetworkConfig cfg = echo_cfg();
  cfg.on_message = [&](std::size_t, graph::NodeId, graph::NodeId,
                       const Message& m) {
    ++observed;
    observed_bits += m.bits;
  };
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(3);
  }, cfg);
  const RunStats stats = net.run();
  EXPECT_EQ(observed, stats.messages_sent);
  EXPECT_EQ(observed_bits, stats.bits_sent);
}

TEST(Network, BroadcastModeRejectsPersonalizedMessages) {
  auto g = triangle();
  NetworkConfig cfg;
  cfg.broadcast_only = true;
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<PersonalizedProgram>();
  }, cfg);
  EXPECT_THROW(net.run(), InvariantError);
}

TEST(Network, BroadcastModeAllowsUniformMessages) {
  auto g = triangle();
  NetworkConfig cfg = echo_cfg();
  cfg.broadcast_only = true;
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(1);
  }, cfg);
  EXPECT_NO_THROW(net.run());
}

TEST(Network, MaxRoundsStopsRunaway) {
  auto g = triangle();
  NetworkConfig cfg = echo_cfg();
  cfg.max_rounds = 7;
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(1'000'000);
  }, cfg);
  const RunStats stats = net.run();
  EXPECT_EQ(stats.rounds, 7u);
  EXPECT_FALSE(stats.all_finished);
}

TEST(Network, RunRoundsExecutesExactly) {
  auto g = triangle();
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(100);
  }, echo_cfg());
  net.run_rounds(3);
  EXPECT_EQ(net.rounds_executed(), 3u);
  net.run_rounds(2);
  EXPECT_EQ(net.rounds_executed(), 5u);
}

TEST(Network, EmptyGraphRejected) {
  graph::Graph g(0);
  EXPECT_THROW(Network(g,
                       [](graph::NodeId, const NodeInfo&) {
                         return std::make_unique<EchoProgram>(1);
                       }),
               InvariantError);
}

TEST(Network, NullFactoryRejected) {
  auto g = triangle();
  EXPECT_THROW(
      Network(g, [](graph::NodeId, const NodeInfo&)
                  -> std::unique_ptr<NodeProgram> { return nullptr; }),
      InvariantError);
}

TEST(Network, NodeInfoIsAccurate) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.set_weight(0, 42);
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(0);
  });
  const NodeInfo& info = net.info(0);
  EXPECT_EQ(info.id, 0u);
  EXPECT_EQ(info.n, 4u);
  EXPECT_EQ(info.weight, 42);
  EXPECT_EQ(std::vector<graph::NodeId>(info.neighbors.begin(),
                                       info.neighbors.end()),
            (std::vector<graph::NodeId>{1, 2, 3}));
  EXPECT_EQ(std::vector<graph::NodeId>(net.info(1).neighbors.begin(),
                                       net.info(1).neighbors.end()),
            (std::vector<graph::NodeId>{0}));
}

TEST(Network, OutputsVectorCoversAllNodes) {
  auto g = triangle();
  Network net(g, [](graph::NodeId id, const NodeInfo&) {
    return std::make_unique<EchoProgram>(id == 0 ? 0 : 1);
  }, echo_cfg());
  net.run();
  const auto outs = net.outputs();
  ASSERT_EQ(outs.size(), 3u);
  // Node 0 sent nothing, so nodes 1 and 2 heard only each other.
  EXPECT_EQ(outs[0], 2);  // node 0 heard both senders
  EXPECT_EQ(outs[1], 1);
  EXPECT_EQ(outs[2], 1);
  const auto sel = net.selected_nodes();
  EXPECT_EQ(sel.size(), 3u);  // all nonzero
}

TEST(Topology, BuildBorrowsTheGraphCsr) {
  graph::Graph g = triangle();
  g.set_weight(1, 4);
  const auto topo = Topology::build(g);
  EXPECT_EQ(topo->neighbors.data(), g.csr().targets.data());
  EXPECT_EQ(topo->offsets.data(), g.csr().offsets.data());
  EXPECT_EQ(topo->weights[1], 4);
}

TEST(Network, SurvivesSourceGraphMutationAndDestruction) {
  // Topology::build borrows the graph's CSR; mutating or destroying the
  // graph afterwards must neither change nor invalidate what the network
  // runs on (the sanitizer build checks the second half).
  const auto make = [] {
    graph::Graph g(6);
    g.add_edges(std::vector<std::pair<graph::NodeId, graph::NodeId>>{
        {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 4}});
    g.set_weight(2, 7);
    return g;
  };
  const auto factory = [](graph::NodeId id, const NodeInfo&) {
    return std::make_unique<EchoProgram>(1 + id % 3);
  };
  const graph::Graph untouched = make();
  Network reference(untouched, factory, echo_cfg());

  auto g = std::make_unique<graph::Graph>(make());
  Network net(*g, factory, echo_cfg());
  g->add_edge(0, 5);
  g->add_edges(std::vector<std::pair<graph::NodeId, graph::NodeId>>{
      {0, 2}, {3, 5}});
  g->set_weight(2, 1);
  g.reset();

  for (graph::NodeId v = 0; v < 6; ++v) {
    const auto& got = net.info(v);
    const auto& want = reference.info(v);
    EXPECT_EQ(got.weight, want.weight);
    EXPECT_EQ(std::vector<graph::NodeId>(got.neighbors.begin(),
                                         got.neighbors.end()),
              std::vector<graph::NodeId>(want.neighbors.begin(),
                                         want.neighbors.end()))
        << "node " << v;
  }
  EXPECT_EQ(net.run(), reference.run());
  EXPECT_EQ(net.outputs(), reference.outputs());
}

TEST(Network, RunAfterCompletionIsIdempotent) {
  auto g = triangle();
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(2);
  }, echo_cfg());
  const RunStats first = net.run();
  ASSERT_TRUE(first.all_finished);
  const RunStats again = net.run();
  EXPECT_EQ(again.rounds, first.rounds);
  EXPECT_EQ(again.messages_sent, first.messages_sent);
}

TEST(Network, StatsAccumulateAcrossRunRounds) {
  auto g = triangle();
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(10);
  }, echo_cfg());
  net.run_rounds(4);
  const auto mid = net.stats().messages_sent;
  net.run_rounds(4);
  EXPECT_GT(net.stats().messages_sent, mid);
  EXPECT_EQ(net.rounds_executed(), 8u);
}

TEST(Network, ResumeDeliversInFlightMessages) {
  // Messages sent in round r are consumed in round r+1 — including when
  // the network is paused between the two. A single stepped round leaves
  // every payload in flight; the next stepped round must deliver them.
  auto g = triangle();
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(1);
  }, echo_cfg());
  net.run_rounds(1);
  auto outs = net.outputs();
  EXPECT_EQ(outs, (std::vector<std::int64_t>{0, 0, 0}));  // all in flight
  net.run_rounds(1);
  outs = net.outputs();
  EXPECT_EQ(outs, (std::vector<std::int64_t>{2, 2, 2}));  // all delivered
}

TEST(Network, MaxRoundsEnforcedAcrossRepeatedRunRounds) {
  auto g = triangle();
  NetworkConfig cfg = echo_cfg();
  cfg.max_rounds = 5;
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(1'000'000);
  }, cfg);
  net.run_rounds(3);
  EXPECT_EQ(net.rounds_executed(), 3u);
  net.run_rounds(10);  // would overshoot; must clamp at max_rounds
  EXPECT_EQ(net.rounds_executed(), 5u);
  net.run_rounds(1);
  EXPECT_EQ(net.rounds_executed(), 5u);
  EXPECT_FALSE(net.stats().all_finished);
}

TEST(Network, RunAfterRunRoundsRespectsMaxRounds) {
  auto g = triangle();
  NetworkConfig cfg = echo_cfg();
  cfg.max_rounds = 6;
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(1'000'000);
  }, cfg);
  net.run_rounds(4);
  const RunStats stats = net.run();
  EXPECT_EQ(stats.rounds, 6u);
  EXPECT_FALSE(stats.all_finished);
}

TEST(Outbox, OneMessagePerNeighborPerRound) {
  Outbox out(2);
  out.send(0, std::move(MessageWriter().put(1, 1)).finish());
  EXPECT_THROW(out.send(0, std::move(MessageWriter().put(1, 1)).finish()),
               InvariantError);
  EXPECT_THROW(out.send(2, std::move(MessageWriter().put(1, 1)).finish()),
               InvariantError);
  Message empty;
  EXPECT_THROW(out.send(1, empty), InvariantError);
}

TEST(Outbox, EnforcesBandwidthAtSendTime) {
  Outbox out(2, /*cap_bits=*/8);
  out.send(0, std::move(MessageWriter().put(0xFF, 8)).finish());  // exactly B
  EXPECT_THROW(out.send(1, std::move(MessageWriter().put(0x1FF, 9)).finish()),
               InvariantError);
  EXPECT_FALSE(out.has(1)) << "rejected message must not occupy the slot";
}

TEST(Network, OversendThrowsFromSendBeforeDelivery) {
  // The cap is a program-correctness check: it fires inside Outbox::send,
  // in the compute phase of the first round, before anything is delivered.
  class Oversender final : public NodeProgram {
   public:
    void round(const NodeInfo& info, const Inbox&, Outbox& outbox,
               Rng&) override {
      outbox.send_all(std::move(MessageWriter()
                                    .put(0, info.bits_per_edge)
                                    .put(1, 1))
                          .finish());
    }
    bool finished() const override { return false; }
  };
  auto g = triangle();
  NetworkConfig cfg;
  cfg.bits_per_edge = 4;
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<Oversender>();
  }, cfg);
  EXPECT_THROW(net.run(), InvariantError);
  EXPECT_EQ(net.rounds_executed(), 0u);
  EXPECT_EQ(net.stats().messages_sent, 0u);
}

}  // namespace
}  // namespace congestlb::congest
