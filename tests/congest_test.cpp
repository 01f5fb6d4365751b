// CONGEST simulator core: message bit-packing, bandwidth enforcement,
// synchronous delivery semantics, determinism, one send_all per node per
// round, the per-round cut-send hook and its owner table, run statistics, and
// the edge-tiled shard partition of the parallel round.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/instances.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "delivery_log.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "lowerbound/linear_family.hpp"
#include "obs/trace.hpp"
#include "property_harness.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

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

// A reader views its message, so it must not bind a temporary.
static_assert(!std::is_constructible_v<MessageReader, Message&&>);
static_assert(std::is_constructible_v<MessageReader, const Message&>);

using Fields = std::vector<std::pair<std::uint64_t, std::size_t>>;

Message write_fields(const Fields& fields) {
  MessageWriter w;
  for (auto [value, width] : fields) w.put(value, width);
  return std::move(w).finish();
}

/// The LSB-first byte layout, built one bit at a time.
std::vector<std::byte> reference_bytes(const Fields& fields) {
  std::vector<std::byte> bytes;
  std::size_t pos = 0;
  for (auto [value, width] : fields) {
    for (std::size_t b = 0; b < width; ++b, ++pos) {
      if (pos % 8 == 0) bytes.push_back(std::byte{0});
      if ((value >> b) & 1) bytes.back() |= std::byte{1} << (pos % 8);
    }
  }
  return bytes;
}

void expect_layout(const Message& m, const Fields& fields) {
  EXPECT_EQ(std::vector<std::byte>(m.data.begin(), m.data.end()),
            reference_bytes(fields));
  MessageReader r(m);
  for (auto [value, width] : fields) EXPECT_EQ(r.get(width), value);
  EXPECT_EQ(r.remaining(), 0u);
  // Bits past the end of the message are zero up to the end of its last
  // word, whatever the slot held before.
  const std::size_t tail = m.bits % 64;
  if (tail != 0) {
    EXPECT_EQ(m.data.words()[m.bits / 64] >> tail, 0u);
  }
}

const Fields kHeapFrame = {{~0ULL, 64},
                           {0x0123456789ABCDEFULL, 60},
                           {~0ULL, 64},
                           {(1ULL << 52) - 1, 52},
                           {0x05A5A5A5A5A5A5A5ULL, 60}};  // 300 bits
const Fields kShortFrame = {{0xABCDE12345ULL, 40}};

TEST(Message, SlotReuseMatchesFreshTwin) {
  for (const auto& [first, second] :
       {std::pair{kHeapFrame, kShortFrame},
        std::pair{kShortFrame, kHeapFrame}}) {
    const Message twin = write_fields(second);
    Message slot = write_fields(first);
    slot = twin;  // copy-assign, as the engine's arena does
    EXPECT_EQ(slot.bits, twin.bits);
    EXPECT_TRUE(slot.data == twin.data);
    expect_layout(slot, second);
    Message moved = write_fields(first);
    moved = write_fields(second);
    EXPECT_TRUE(moved.data == twin.data);
    expect_layout(moved, second);
  }
}

TEST(Message, FieldsEndingOnWordBoundaries) {
  // Fields end exactly at bits 64 (one full word), 128 (an unaligned field
  // filling the rest of a word) and 192 (the last inline word), then one
  // more bit moves the payload to the heap.
  Fields fields = {{0x0123456789ABCDEFULL, 64},
                   {5, 3},
                   {(1ULL << 61) - 7, 61},
                   {0x1FFFF, 17},
                   {~0ULL >> 17, 47}};
  const Message inline_frame = write_fields(fields);
  EXPECT_EQ(inline_frame.bits, 192u);
  EXPECT_EQ(inline_frame.data.size(), PayloadBytes::kInlineCapacity);
  expect_layout(inline_frame, fields);
  fields.emplace_back(1, 1);
  const Message heap_frame = write_fields(fields);
  EXPECT_EQ(heap_frame.data.size(), PayloadBytes::kInlineCapacity + 1);
  expect_layout(heap_frame, fields);
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
    outbox.send_all(std::move(MessageWriter().put(info.id, 16)).finish());
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

/// Sends an oversized message to its neighbors.
class OversizeProgram final : public NodeProgram {
 public:
  void round(const NodeInfo& info, const Inbox&, Outbox& outbox, Rng&) override {
    MessageWriter w;
    for (std::size_t i = 0; i <= info.bits_per_edge; ++i) w.put(1, 1);
    outbox.send_all(std::move(w).finish());
  }
  bool finished() const override { return false; }
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
  cfg.on_cut_sends = [&](std::size_t, std::span<const CutSend> sends) {
    for (const CutSend& s : sends) {
      observed += s.multiplicity;
      observed_bits += s.msg->bits * s.multiplicity;
    }
  };
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<EchoProgram>(3);
  }, cfg);
  const RunStats stats = net.run();
  EXPECT_EQ(observed, stats.messages_sent);
  EXPECT_EQ(observed_bits, stats.bits_sent);
}

TEST(Network, BroadcastModeAllowsUniformMessages) {
  auto g = triangle();
  NetworkConfig cfg = echo_cfg();
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

TEST(Network, BorrowsTheGraphCsr) {
  graph::Graph g = triangle();
  g.set_weight(1, 4);
  const long owners = g.shared_csr().use_count();
  const Network net(g, [](graph::NodeId id, const NodeInfo&) {
    return std::make_unique<EchoProgram>(id);
  }, echo_cfg());
  // The network holds the graph's CSR itself, not a copy of it.
  EXPECT_EQ(g.shared_csr().use_count(), owners + 1);
  EXPECT_EQ(net.info(1).weight, 4);
}

TEST(Network, SurvivesSourceGraphMutationAndDestruction) {
  // A Network borrows the graph's CSR; mutating or destroying the
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
  // One out-slot holds the node's one message: a second send_all in the
  // same round throws, and an empty message is never stored.
  std::uint8_t sent = 0;
  Message slot;
  Outbox out(&sent, &slot, 2);
  Message empty;
  EXPECT_THROW(out.send_all(empty), InvariantError);
  EXPECT_FALSE(out.has());
  out.send_all(std::move(MessageWriter().put(1, 1)).finish());
  EXPECT_TRUE(out.has());
  EXPECT_THROW(out.send_all(std::move(MessageWriter().put(1, 1)).finish()),
               InvariantError);
}

TEST(Outbox, BroadcastEqualityIgnoresPayloadHistory) {
  // The same 40 bits, written in one field or in two, sent into an arena
  // slot that last held a 300-bit heap frame: the stored message is
  // exactly the new bits, as a fresh message would be.
  for (const Message& m :
       {write_fields(kShortFrame), write_fields({{0x12345, 20}, {0xABCDE, 20}})}) {
    std::uint8_t sent = 0;
    Message slot = write_fields(kHeapFrame);
    Outbox out(&sent, &slot, 3);
    out.send_all(m);
    ASSERT_TRUE(out.has());
    EXPECT_EQ(&out.message(), &slot);
    expect_layout(out.message(), kShortFrame);
  }
}

TEST(Outbox, EnforcesBandwidthAtSendTime) {
  std::uint8_t sent = 0;
  Message slot;
  Outbox out(&sent, &slot, 2, /*cap_bits=*/8);
  EXPECT_THROW(out.send_all(std::move(MessageWriter().put(0x1FF, 9)).finish()),
               InvariantError);
  EXPECT_FALSE(out.has()) << "rejected message must not occupy the slot";
  out.send_all(std::move(MessageWriter().put(0xFF, 8)).finish());  // exactly B
  EXPECT_TRUE(out.has());
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

// ------------------------------------------------------------- send_all --

/// Sends one (id, round)-dependent payload of varying width to every
/// neighbor on the rounds where (id + round) % 3 != 0, for `rounds_to_run`
/// rounds, and folds every received payload and its slot into its output.
class VaryingBroadcast final : public NodeProgram {
 public:
  explicit VaryingBroadcast(std::size_t rounds_to_run)
      : rounds_to_run_(rounds_to_run) {}

  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng&) override {
    std::uint64_t slot = 0;
    for (const auto& m : inbox) {
      if (m) {
        MessageReader r(*m);
        const std::uint64_t id = r.get(16);
        digest_ = digest_ * 1'000'003 + id * 131 + r.get(m->bits - 16) + slot;
      }
      ++slot;
    }
    const std::size_t r = round_++;
    if (r >= rounds_to_run_ || (info.id + r) % 3 == 0) return;
    const Message m = std::move(MessageWriter()
                                    .put(info.id & 0xFFFF, 16)
                                    .put(r & 0xFF, 8 + (info.id + r) % 5))
                          .finish();
    outbox.send_all(m);
  }
  bool finished() const override { return round_ > rounds_to_run_; }
  std::int64_t output() const override {
    return static_cast<std::int64_t>(digest_);
  }

 private:
  std::size_t rounds_to_run_;
  std::size_t round_ = 0;
  std::uint64_t digest_ = 0;
};

/// Everything observable about one run, tracer events included.
struct FullRun {
  RunStats stats;
  std::vector<std::int64_t> outputs;
  std::vector<std::uint64_t> edge_bits;  ///< bits_on_edge, every edge
  std::vector<Delivery> transcript;
  std::vector<obs::TraceEvent> events;

  friend bool operator==(const FullRun&, const FullRun&) = default;
};

FullRun run_full(const graph::Graph& g, std::size_t threads,
                 std::span<const std::size_t> owner = {}) {
  FullRun rec;
  obs::Tracer tracer({.capacity = std::size_t{1} << 16});
  NetworkConfig cfg;
  cfg.bits_per_edge = 32;
  cfg.num_threads = threads;
  cfg.tracer = &tracer;
  cfg.owner = owner;
  cfg.on_cut_sends = log_deliveries(rec.transcript, g, owner);
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<VaryingBroadcast>(7);
  }, cfg);
  rec.stats = net.run();
  rec.outputs = net.outputs();
  for (const auto& [u, v] : graph::edge_list(g)) {
    rec.edge_bits.push_back(net.bits_on_edge(u, v));
  }
  rec.events = tracer.events();
  EXPECT_EQ(tracer.dropped(), 0u);
  return rec;
}

/// G_xbar of the linear family at t = 3 (n = 90) and its player partition.
struct Gadget {
  graph::Graph g;
  std::vector<std::size_t> owner;
};

Gadget linear_gadget() {
  const auto p = lb::GadgetParams::for_linear_separation(3, 1);
  const lb::LinearConstruction c(p, 3);
  Rng rng(5);
  Gadget out{c.instantiate(comm::make_uniquely_intersecting(p.k, 3, rng, 0.3)),
             {}};
  for (graph::NodeId v = 0; v < out.g.num_nodes(); ++v) {
    out.owner.push_back(c.owner(v));
  }
  return out;
}

TEST(SendAll, OwnerTableObservesExactlyTheCut) {
  // With an owner table the hook's entries, expanded per cut edge, are the
  // deliveries between two owners — the full transcript filtered, in the
  // same order — and nothing else about the run changes.
  const Gadget gx = linear_gadget();
  const FullRun want = run_full(gx.g, 1);
  ASSERT_GT(want.stats.messages_sent, 0u);
  ASSERT_FALSE(want.events.empty());
  std::vector<Delivery> cut;
  for (const Delivery& d : want.transcript) {
    if (gx.owner[d.from] != gx.owner[d.to]) cut.push_back(d);
  }
  ASSERT_FALSE(cut.empty());
  for (std::size_t threads : {1, 2, 8}) {
    EXPECT_EQ(run_full(gx.g, threads), want) << "threads=" << threads;
    FullRun observed = run_full(gx.g, threads, gx.owner);
    EXPECT_EQ(observed.transcript, cut) << "threads=" << threads;
    observed.transcript = want.transcript;
    EXPECT_EQ(observed, want);
  }
}

TEST(SendAll, OwnerTableValidated) {
  // A table needs one entry per node. Implicit blocks take one like any
  // topology: a blocked triangle observes the cut its materialized twin
  // observes.
  const auto factory = [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<VaryingBroadcast>(7);
  };
  const std::vector<std::size_t> short_table = {0, 1};
  NetworkConfig cfg;
  cfg.owner = short_table;
  EXPECT_THROW(Network(triangle(), factory, cfg), InvariantError);

  graph::Graph blocked(3);
  blocked.set_implicit_block_threshold(1);
  blocked.add_clique(std::vector<graph::NodeId>{0, 1, 2});
  ASSERT_TRUE(blocked.has_implicit_blocks());
  const std::vector<std::size_t> table = {0, 1, 1};
  const auto observed_cut = [&](const graph::Graph& g) {
    std::vector<Delivery> log;
    NetworkConfig c;
    c.bits_per_edge = 32;
    c.owner = table;
    c.on_cut_sends = log_deliveries(log, g, table);
    Network(g, factory, c).run();
    return log;
  };
  const std::vector<Delivery> want = observed_cut(blocked.materialized());
  ASSERT_FALSE(want.empty());
  for (const Delivery& d : want) EXPECT_NE(table[d.from], table[d.to]);
  EXPECT_EQ(observed_cut(blocked), want);
}

TEST(SendAll, DegreeZeroIsANoOp) {
  std::uint8_t sent = 0;
  Message slot;
  Outbox none(&sent, &slot, 0);
  EXPECT_NO_THROW(none.send_all(std::move(MessageWriter().put(1, 1)).finish()));
  EXPECT_FALSE(none.has());

  // Node 3 is isolated; its send_all reaches nobody and counts nothing:
  // the run is the one on the path without it.
  graph::Graph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  NetworkConfig cfg;
  cfg.bits_per_edge = 32;
  const auto factory = [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<VaryingBroadcast>(3);
  };
  Network net(g, factory, cfg);
  Network twin(path, factory, cfg);
  const RunStats stats = net.run();
  EXPECT_EQ(stats, twin.run());
  EXPECT_GT(stats.messages_sent, 0u);
  std::vector<std::int64_t> outputs = net.outputs();
  EXPECT_EQ(outputs.back(), 0);
  outputs.pop_back();
  EXPECT_EQ(outputs, twin.outputs());
}

// --------------------------------------------------- edge-tiled sharding --

/// The equal-node split that edge tiling replaced, kept here as the
/// comparison baseline for the load-balance test.
std::vector<std::pair<graph::NodeId, graph::NodeId>> node_sharded(
    std::size_t n, std::size_t num_shards) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> out;
  const std::size_t base = n / num_shards;
  const std::size_t extra = n % num_shards;
  graph::NodeId begin = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const graph::NodeId end =
        begin + static_cast<graph::NodeId>(base + (s < extra ? 1 : 0));
    out.emplace_back(begin, end);
    begin = end;
  }
  return out;
}

std::size_t max_shard_slots(
    const graph::Graph& g,
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& shards) {
  std::size_t worst = 0;
  for (auto [begin, end] : shards) {
    const std::size_t slots = g.csr().offsets[end] - g.csr().offsets[begin];
    worst = worst > slots ? worst : slots;
  }
  return worst;
}

/// The star gadget is the worst case for the old equal-node split: the hub
/// drags its whole shard. Edge tiling must give the hub a shard of its own
/// (1023 slots, the per-shard optimum) where node sharding piles 1150 slots
/// into shard 0.
TEST(EdgeTiledShards, StarGadgetBalancesHubShard) {
  const auto g = graph::star_graph(1024);
  constexpr std::size_t kShards = 8;

  const auto tiled = congest::edge_tiled_shards(g, kShards);
  ASSERT_EQ(tiled.size(), kShards);
  // Contiguous cover of [0, n).
  graph::NodeId expect_begin = 0;
  for (auto [begin, end] : tiled) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_LE(begin, end);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, g.num_nodes());

  const std::size_t tiled_worst = max_shard_slots(g, tiled);
  const std::size_t node_worst =
      max_shard_slots(g, node_sharded(g.num_nodes(), kShards));
  EXPECT_EQ(tiled_worst, 1023u);  // hub degree: one shard owns just the hub
  EXPECT_EQ(node_worst, 1150u);   // hub + 127 leaves land together
  EXPECT_LT(tiled_worst, node_worst);

  // Pure function of (graph, num_shards).
  EXPECT_EQ(tiled, congest::edge_tiled_shards(g, kShards));
}

/// Degree-0-heavy graphs: the +1 node cost keeps the compute phase
/// balanced instead of serializing all isolated nodes into one shard.
TEST(EdgeTiledShards, IsolatedNodesSpreadAcrossShards) {
  const graph::Graph g(1000);  // no edges at all
  const auto tiled = congest::edge_tiled_shards(g, 8);
  std::size_t worst_nodes = 0;
  for (auto [begin, end] : tiled) {
    worst_nodes = std::max<std::size_t>(worst_nodes, end - begin);
  }
  EXPECT_LE(worst_nodes, 1000 / 8 + 1);
}

/// Structural invariants on random topologies and shard counts: exact
/// shard count, contiguous cover, determinism, and never worse than the
/// old node split by more than one node's cost.
TEST(EdgeTiledShards, RandomTopologiesContiguousCoverProperty) {
  const testing::Property prop = [&](std::uint64_t seed,
                                     std::size_t size) -> std::optional<std::string> {
    Rng rng(seed);
    const auto g = testing::random_topology(rng, 8 * size);
    const std::size_t num_shards = 1 + rng.below(2 * size + 2);
    const auto tiled = congest::edge_tiled_shards(g, num_shards);
    if (tiled.size() != num_shards) return std::string("wrong shard count");
    graph::NodeId expect_begin = 0;
    for (auto [begin, end] : tiled) {
      if (begin != expect_begin || end < begin) {
        return std::string("shards not a contiguous cover");
      }
      expect_begin = end;
    }
    if (expect_begin != g.num_nodes()) {
      return std::string("shards do not cover n");
    }
    if (tiled != congest::edge_tiled_shards(g, num_shards)) {
      return std::string("partition not deterministic");
    }
    return std::nullopt;
  };
  auto failure = testing::check_seeds(prop, 0x51D0'0009, 40, 10);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

}  // namespace
}  // namespace congestlb::congest
