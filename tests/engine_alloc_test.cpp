// Zero-allocation regression test for the simulation engine hot path.
//
// Links clb_alloc_hook, whose replacement global operator new/delete count
// every heap allocation in the process. After a short warm-up (payload
// small-buffers engaged, arenas sized), running further rounds of a
// steady-state program must perform ZERO allocations — that is the
// engine-rewrite contract, and the benches report it as allocs/round.
// The blackboard's cut-message posts, the other half of the Theorem-5 hot
// path, may allocate only to grow their flat arenas: O(log N) for N posts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "comm/blackboard.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/alloc_hook.hpp"
#include "support/rng.hpp"

namespace congestlb::congest {
namespace {

/// Sends a 16-bit payload to every neighbor, forever; allocation-free per
/// round (MessageWriter's payload fits the small-buffer inline capacity).
class SteadyFlood final : public NodeProgram {
 public:
  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng&) override {
    std::size_t heard = 0;
    for (const auto& m : inbox) {
      if (m) ++heard;
    }
    heard_ += heard;
    if (!info.neighbors.empty()) {
      outbox.send_all(
          std::move(MessageWriter().put(info.id & 0xFFFF, 16)).finish());
    }
  }
  bool finished() const override { return false; }
  std::int64_t output() const override {
    return static_cast<std::int64_t>(heard_);
  }

 private:
  std::size_t heard_ = 0;
};

TEST(EngineAlloc, HookIsLinked) {
  ASSERT_TRUE(allochook::hook_active());
  const auto before = allochook::allocation_count();
  auto p = std::make_unique<int>(42);
  EXPECT_GT(allochook::allocation_count(), before);
}

TEST(EngineAlloc, SteadyStateRoundsAllocateNothing) {
  Rng rng(2024);
  const auto g = graph::gnp_random_connected(rng, 256, 0.05);
  NetworkConfig cfg;
  cfg.bits_per_edge = 16;
  cfg.max_rounds = 1'000'000;
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<SteadyFlood>();
  }, cfg);

  // Warm-up: first sends engage payload buffers; a few extra rounds for
  // any one-time lazy work elsewhere.
  net.run_rounds(8);

  const auto before = allochook::allocation_count();
  net.run_rounds(100);
  const auto after = allochook::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "engine hot path allocated " << (after - before)
      << " times over 100 steady-state rounds";
}

TEST(EngineAlloc, DisabledTracerAndMetricsCostNothing) {
  // A zero-capacity tracer attached to the config must leave the hot path
  // untouched — the runtime kill switch, as opposed to CONGESTLB_TRACE=0.
  // Metrics updates go through preallocated per-shard cells, so they are
  // allocation-free even while live.
  Rng rng(2024);
  const auto g = graph::gnp_random_connected(rng, 128, 0.05);
  obs::Tracer tracer({.capacity = 0});
  obs::MetricsRegistry metrics;
  NetworkConfig cfg;
  cfg.bits_per_edge = 16;
  cfg.max_rounds = 1'000'000;
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<SteadyFlood>();
  }, cfg);

  net.run_rounds(8);

  const auto before = allochook::allocation_count();
  net.run_rounds(100);
  const auto after = allochook::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "disabled-tracer hot path allocated " << (after - before)
      << " times over 100 steady-state rounds";
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_GT(metrics.counter("engine.rounds").value(), 0u);
}

TEST(EngineAlloc, EnabledTracingStaysAllocationFree) {
  // The cost contract of obs/trace.hpp: with tracing LIVE (every round
  // sampled, sends recorded, ring wrapping) and metrics live, steady-state
  // rounds still allocate nothing — staging buffers and the ring were sized
  // once at bind time, and overwrite-oldest handles the overflow.
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "CONGESTLB_TRACE=0";
  Rng rng(4048);
  const auto g = graph::gnp_random_connected(rng, 128, 0.05);
  obs::Tracer tracer({.capacity = std::size_t{1} << 14});
  obs::MetricsRegistry metrics;
  NetworkConfig cfg;
  cfg.bits_per_edge = 16;
  cfg.max_rounds = 1'000'000;
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<SteadyFlood>();
  }, cfg);

  net.run_rounds(8);

  const auto before = allochook::allocation_count();
  net.run_rounds(100);
  const auto after = allochook::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "traced hot path allocated " << (after - before)
      << " times over 100 steady-state rounds";
  EXPECT_GT(tracer.recorded(), 0u);
  EXPECT_GT(tracer.dropped(), 0u) << "ring should have wrapped in this run";
  EXPECT_EQ(metrics.counter("engine.rounds").value(), 108u);
}

/// Broadcast-only flood that reads its inbox by index at the front, middle
/// and back — on a hybrid topology each read is a Topology::neighbor_at
/// select over the node's merged sources.
class IndexedProbeFlood final : public NodeProgram {
 public:
  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng&) override {
    if (!inbox.empty()) {
      for (std::size_t i : {std::size_t{0}, inbox.size() / 2,
                            inbox.size() - 1}) {
        if (inbox[i]) ++heard_;
      }
    }
    if (!info.neighbors.empty()) {
      outbox.send_all(
          std::move(MessageWriter().put(info.id & 0xFFFF, 16)).finish());
    }
  }
  bool finished() const override { return false; }
  std::int64_t output() const override {
    return static_cast<std::int64_t>(heard_);
  }

 private:
  std::size_t heard_ = 0;
};

TEST(EngineAlloc, HybridIndexedInboxReadsAllocateNothing) {
  // Implicit blocks: a 4 x 8 anti-matching grid whose rows are also clique
  // blocks (grid nodes merge two sources), a hub in more bicliques than
  // neighbor_at gathers on its stack, and random explicit edges.
  graph::Graph g(96);
  g.set_implicit_block_threshold(1);
  g.add_anti_matching_grid(0, 8, 4, 8);
  for (graph::NodeId row = 0; row < 4; ++row) {
    std::vector<graph::NodeId> members(8);
    for (graph::NodeId c = 0; c < 8; ++c) members[c] = row * 8 + c;
    g.add_clique(members);
  }
  for (graph::NodeId i = 0; i < 12; ++i) {
    g.add_implicit_block(
        graph::ImplicitBlock::biclique(40, 41, 42 + 2 * i, 44 + 2 * i));
  }
  Rng rng(77);
  for (std::size_t e = 0; e < 150; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.range(0, 95));
    const auto v = static_cast<graph::NodeId>(rng.range(0, 95));
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(std::min(u, v), std::max(u, v));
  }
  NetworkConfig cfg;
  cfg.bits_per_edge = 16;
  cfg.broadcast_only = true;
  cfg.max_rounds = 1'000'000;
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<IndexedProbeFlood>();
  }, cfg);
  ASSERT_TRUE(net.topology().has_implicit());

  net.run_rounds(8);

  const auto before = allochook::allocation_count();
  net.run_rounds(100);
  const auto after = allochook::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "hybrid indexed inbox reads allocated " << (after - before)
      << " times over 100 steady-state rounds";
}

TEST(EngineAlloc, BlackboardCutPostsOnlyGrowArenas) {
  comm::Blackboard board(3);
  obs::MetricsRegistry metrics;
  board.attach_observability(nullptr, &metrics);
  const Message msg =
      std::move(MessageWriter().put(0x2a5, 10).put(0x1f, 8)).finish();
  const auto post = [&](std::size_t i) {
    board.post_cut_message(i % 3, {msg.data.data(), msg.data.size()},
                           msg.bits, i % 90, (i + 31) % 90);
  };
  for (std::size_t i = 0; i < 1000; ++i) post(i);

  constexpr std::size_t kPosts = 100'000;
  const auto before = allochook::allocation_count();
  for (std::size_t i = 0; i < kPosts; ++i) post(i);
  const auto after = allochook::allocation_count();
  // Two arenas (records, payload bytes), each regrown at most once per
  // doubling of its size.
  EXPECT_LE(after - before, 2 * (std::bit_width(kPosts) + 1))
      << "blackboard posts allocated " << (after - before) << " times over "
      << kPosts << " cut-message posts";
  EXPECT_EQ(board.transcript().size(), 1000 + kPosts);
  EXPECT_EQ(metrics.counter("blackboard.posts").value(), 1000 + kPosts);
}

}  // namespace
}  // namespace congestlb::congest
