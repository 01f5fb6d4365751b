// Bit-identity contract between the hybrid (implicit-block) engine and the
// materialized engine.
//
// A topology carrying ImplicitBlock descriptors runs the broadcast engine:
// O(n)-per-round arenas, arithmetic delivery counters, NeighborsView
// cursors. This suite pins the contract that licenses all of it: on the
// SAME graph, blocked and materialized representations must produce
// identical RunStats, program outputs, per-edge traffic, and observer
// transcripts — for every thread count. (The CI build matrix re-runs this
// binary under each CLB_SIMD level, covering the SIMD axis.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "comm/instances.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"
#include "lowerbound/quadratic_family.hpp"
#include "maxis/branch_and_bound.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::congest {
namespace {

struct FullEntry {
  std::size_t round;
  graph::NodeId from;
  graph::NodeId to;
  std::size_t bits;
  std::vector<std::byte> data;

  friend bool operator==(const FullEntry&, const FullEntry&) = default;
};

struct RunRecord {
  RunStats stats;
  std::vector<std::int64_t> outputs;
  std::vector<std::uint64_t> edge_bits;
  std::vector<FullEntry> transcript;

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

/// Broadcast flood: every round each node sends (id ^ sum-of-heard) to all
/// neighbors. The payload depends on the whole inbox, so any divergence in
/// delivery order, inbox iteration, or neighbor ranking shows up as a
/// different byte stream within a round or two.
class MixFlood final : public NodeProgram {
 public:
  explicit MixFlood(std::size_t rounds_to_run) : rounds_to_run_(rounds_to_run) {}

  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng&) override {
    std::uint64_t mix = 0;
    for (const auto& m : inbox) {
      if (m) mix += MessageReader(*m).get(24);
    }
    // Random access through the hybrid Inbox's select path too.
    if (inbox.size() > 1) {
      const auto& probe = inbox[inbox.size() / 2];
      if (probe) mix ^= MessageReader(*probe).get(24);
    }
    acc_ = acc_ * 31 + mix;
    ++rounds_seen_;
    if (rounds_seen_ > rounds_to_run_ || info.neighbors.empty()) return;
    const std::uint64_t payload =
        (static_cast<std::uint64_t>(info.id) ^ mix) & 0xFFFFFF;
    outbox.send_all(std::move(MessageWriter().put(payload, 24)).finish());
  }
  bool finished() const override { return rounds_seen_ > rounds_to_run_; }
  std::int64_t output() const override {
    return static_cast<std::int64_t>(acc_ & 0x7FFFFFFFFFFFFFFFULL);
  }

 private:
  std::size_t rounds_to_run_;
  std::size_t rounds_seen_ = 0;
  std::uint64_t acc_ = 0;
};

RunRecord run_once(const graph::Graph& g,
                   const std::vector<std::pair<graph::NodeId, graph::NodeId>>&
                       probe_edges,
                   std::size_t rounds, std::size_t num_threads) {
  RunRecord rec;
  NetworkConfig cfg;
  cfg.num_threads = num_threads;
  cfg.bits_per_edge = 32;
  cfg.broadcast_only = true;
  cfg.on_message = [&rec](std::size_t round, graph::NodeId from,
                          graph::NodeId to, const Message& msg) {
    rec.transcript.push_back(
        {round, from, to, msg.bits,
         std::vector<std::byte>(msg.data.begin(), msg.data.end())});
  };
  Network net(
      g,
      [rounds](graph::NodeId, const NodeInfo&) {
        return std::make_unique<MixFlood>(rounds);
      },
      cfg);
  rec.stats = net.run();
  rec.outputs = net.outputs();
  for (auto [u, v] : probe_edges) {
    rec.edge_bits.push_back(net.bits_on_edge(u, v));
  }
  return rec;
}

/// A random mixed graph: clique + biclique + grid blocks in dedicated id
/// ranges plus random explicit edges (skipping pairs a block already
/// covers). Returned with blocks recorded; materialize for the twin.
graph::Graph mixed_graph(std::uint64_t seed, std::size_t extra_nodes) {
  const std::size_t n = 24 + extra_nodes;
  graph::Graph g(n);
  g.set_implicit_block_threshold(1);
  g.add_clique(std::vector<graph::NodeId>{0, 1, 2, 3, 4});
  g.add_biclique(std::vector<graph::NodeId>{5, 6, 7},
                 std::vector<graph::NodeId>{8, 9, 10});
  g.add_anti_matching_grid(11, 4, 3, 4);  // nodes [11, 23)
  Rng rng(seed);
  const std::size_t want = n + n / 2;
  for (std::size_t e = 0; e < want; ++e) {
    const auto u = static_cast<graph::NodeId>(
        rng.range(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<graph::NodeId>(
        rng.range(0, static_cast<std::int64_t>(n) - 1));
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(std::min(u, v), std::max(u, v));
  }
  return g;
}

TEST(ImplicitEngine, BitIdenticalToMaterializedAcrossThreads) {
  for (std::uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
    for (std::size_t extra : {std::size_t{0}, std::size_t{40}}) {
      const graph::Graph blocked = mixed_graph(seed, extra);
      ASSERT_TRUE(blocked.has_implicit_blocks());
      const graph::Graph dense = blocked.materialized();
      const auto probe = graph::edge_list(dense);

      const RunRecord reference = run_once(dense, probe, 6, 1);
      for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
        const RunRecord hybrid = run_once(blocked, probe, 6, threads);
        const RunRecord materialized = run_once(dense, probe, 6, threads);
        EXPECT_EQ(hybrid, reference)
            << "hybrid diverged: seed=" << seed << " extra=" << extra
            << " threads=" << threads;
        EXPECT_EQ(materialized, reference)
            << "dense diverged: seed=" << seed << " extra=" << extra
            << " threads=" << threads;
      }
    }
  }
}

TEST(ImplicitEngine, NeighborsViewMatchesMaterializedSpans) {
  const graph::Graph blocked = mixed_graph(99, 20);
  const graph::Graph dense = blocked.materialized();
  const auto bt = Topology::build(blocked);
  const auto dt = Topology::build(dense);
  ASSERT_TRUE(bt->has_implicit());
  for (graph::NodeId v = 0; v < bt->n; ++v) {
    ASSERT_EQ(bt->total_degree(v), dt->degree(v)) << "node " << v;
    NeighborsView hv(bt.get(), v, bt->total_degree(v));
    NeighborsView dv(dt->neighbors.data() + dt->offsets[v], dt->degree(v));
    ASSERT_EQ(hv.size(), dv.size());
    // Indexed access (neighbor_at) and iteration (neighbor_after chain).
    for (std::size_t i = 0; i < hv.size(); ++i) {
      ASSERT_EQ(hv[i], dv[i]) << "node " << v << " slot " << i;
    }
    ASSERT_EQ(std::vector<graph::NodeId>(hv.begin(), hv.end()),
              std::vector<graph::NodeId>(dv.begin(), dv.end()))
        << "node " << v;
  }
  // Shard boundaries balance on the same merged costs.
  for (std::size_t shards : {1, 2, 5, 16}) {
    EXPECT_EQ(edge_tiled_shards(*bt, shards), edge_tiled_shards(*dt, shards));
  }
}

/// Every merged-set select of the hybrid topology of `blocked` equals the
/// CSR entry of its materialized twin, for every node and every slot.
void expect_selects_match_materialized(const graph::Graph& blocked) {
  const auto bt = Topology::build(blocked);
  const auto dt = Topology::build(blocked.materialized());
  ASSERT_TRUE(bt->has_implicit());
  for (graph::NodeId v = 0; v < bt->n; ++v) {
    const auto dense = dt->neighbors_of(v);
    ASSERT_EQ(bt->total_degree(v), dense.size()) << "node " << v;
    for (std::size_t s = 0; s < dense.size(); ++s) {
      ASSERT_EQ(bt->neighbor_at(v, s), dense[s])
          << "node " << v << " slot " << s;
    }
  }
}

/// Most implicit blocks holding any one node.
std::size_t max_blocks_per_node(const graph::Graph& g) {
  std::size_t most = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& blocks = g.implicit_blocks();
    const auto held = static_cast<std::size_t>(
        std::count_if(blocks.begin(), blocks.end(),
                      [v](const graph::ImplicitBlock& b) {
                        return b.contains(v);
                      }));
    most = std::max(most, held);
  }
  return most;
}

TEST(ImplicitEngine, NeighborAtMatchesMaterializedOnMultiBlockNodes) {
  // Blocked G_xbar: code nodes sit in a C_h clique block AND a grid block,
  // so their selects merge several sources.
  const auto params = lb::GadgetParams::from_l_alpha(3, 1);
  lb::BuildOptions opts;
  opts.implicit_threshold = 1;
  opts.skip_labels = true;
  for (std::size_t t : {2, 3, 5}) {
    SCOPED_TRACE(t);
    const lb::LinearConstruction blocked(params, t, opts);
    ASSERT_GE(max_blocks_per_node(blocked.fixed_graph()), 2u);
    expect_selects_match_materialized(blocked.fixed_graph());
  }
  for (std::uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
    SCOPED_TRACE(seed);
    expect_selects_match_materialized(mixed_graph(seed, 40));
  }
  // A hub in more blocks than neighbor_at gathers on its stack (12 one-node
  // bicliques), whose partners also share row cliques, plus explicit edges
  // on both sides of the block ids.
  graph::Graph hub(40);
  hub.set_implicit_block_threshold(1);
  for (graph::NodeId i = 0; i < 12; ++i) {
    hub.add_implicit_block(
        graph::ImplicitBlock::biclique(10, 11, 12 + 2 * i, 14 + 2 * i));
  }
  hub.add_clique(std::vector<graph::NodeId>{12, 13, 14, 15});
  for (graph::NodeId u : {0, 3, 9, 36, 39}) hub.add_edge(u, 10);
  hub.add_edge(12, 37);
  ASSERT_EQ(max_blocks_per_node(hub), 12u);
  expect_selects_match_materialized(hub);
}

TEST(ImplicitEngine, NeighborAtRejectsSlotPastMergedDegree) {
  // The blocked topology and its materialized twin reject the same slots,
  // through Topology::neighbor_at and NeighborsView indexing alike.
  const graph::Graph blocked = mixed_graph(7, 10);
  const auto bt = Topology::build(blocked);
  const auto dt = Topology::build(blocked.materialized());
  ASSERT_TRUE(bt->has_implicit());
  ASSERT_FALSE(dt->has_implicit());
  for (graph::NodeId v = 0; v < bt->n; ++v) {
    const std::size_t d = bt->total_degree(v);
    ASSERT_EQ(dt->total_degree(v), d) << "node " << v;
    EXPECT_THROW(bt->neighbor_at(v, d), InvariantError) << "node " << v;
    EXPECT_THROW(bt->neighbor_at(v, d + 7), InvariantError) << "node " << v;
    EXPECT_THROW(dt->neighbor_at(v, d), InvariantError) << "node " << v;
    EXPECT_THROW(dt->neighbor_at(v, d + 7), InvariantError) << "node " << v;
    const NeighborsView hv(bt.get(), v, d);
    const NeighborsView dv(dt->neighbors.data() + dt->offsets[v], d);
    EXPECT_THROW(hv[d], InvariantError) << "node " << v;
    EXPECT_THROW(dv[d], InvariantError) << "node " << v;
  }
}

TEST(ImplicitEngine, LinearFamilyBlockedTwinIsBitIdentical) {
  const auto params = lb::GadgetParams::from_l_alpha(3, 1);
  const std::size_t t = 3;
  const lb::LinearConstruction plain(params, t);
  lb::BuildOptions opts;
  opts.implicit_threshold = 1;
  opts.skip_labels = true;
  const lb::LinearConstruction blocked(params, t, opts);

  ASSERT_TRUE(blocked.fixed_graph().has_implicit_blocks());
  ASSERT_EQ(blocked.fixed_graph().num_edges(), plain.fixed_graph().num_edges());
  EXPECT_EQ(graph::edge_list(blocked.fixed_graph().materialized()),
            graph::edge_list(plain.fixed_graph()));
  EXPECT_EQ(blocked.cut_edges(), plain.cut_edges());
  EXPECT_EQ(blocked.cut_edges().size(), blocked.cut_size());

  const auto probe = plain.cut_edges();
  const RunRecord a = run_once(plain.fixed_graph(), probe, 4, 2);
  const RunRecord b = run_once(blocked.fixed_graph(), probe, 4, 2);
  EXPECT_EQ(a, b);
}

TEST(ImplicitEngine, QuadraticFamilyBlockedTwinIsBitIdentical) {
  // F_xbar's twin of the test above: every clique and inter-copy
  // anti-matching recorded as a block, against the all-explicit default.
  const auto params = lb::GadgetParams::from_l_alpha(2, 1, 3);
  const std::size_t t = 2;
  const lb::QuadraticConstruction plain(params, t);
  lb::BuildOptions opts;
  opts.implicit_threshold = 1;
  opts.skip_labels = true;
  const lb::QuadraticConstruction blocked(params, t, opts);

  ASSERT_TRUE(blocked.fixed_graph().has_implicit_blocks());
  ASSERT_FALSE(plain.fixed_graph().has_implicit_blocks());
  ASSERT_EQ(blocked.fixed_graph().num_edges(), plain.fixed_graph().num_edges());
  EXPECT_TRUE(blocked.fixed_graph().materialized() == plain.fixed_graph());
  EXPECT_EQ(graph::edge_list(blocked.fixed_graph().materialized()),
            graph::edge_list(plain.fixed_graph()));
  EXPECT_EQ(blocked.cut_size(), plain.cut_size());
  EXPECT_EQ(blocked.cut_edges(), plain.cut_edges());
  EXPECT_EQ(blocked.cut_edges().size(), blocked.cut_size());

  const auto probe = plain.cut_edges();
  EXPECT_EQ(run_once(plain.fixed_graph(), probe, 4, 2),
            run_once(blocked.fixed_graph(), probe, 4, 2));

  Rng rng(19);
  const auto yes = comm::make_uniquely_intersecting(blocked.string_length(), t,
                                                    rng, 0.3);
  const auto no =
      comm::make_pairwise_disjoint(blocked.string_length(), t, rng, 0.3);
  for (const auto* inst : {&yes, &no}) {
    const graph::Graph fx_blocked = blocked.instantiate(*inst);
    const graph::Graph fx_plain = plain.instantiate(*inst);
    ASSERT_TRUE(fx_blocked.has_implicit_blocks());
    EXPECT_EQ(graph::edge_list(fx_blocked.materialized()),
              graph::edge_list(fx_plain));
    EXPECT_EQ(maxis::solve_exact(fx_blocked).weight,
              maxis::solve_exact(fx_plain).weight);
  }
}

TEST(ImplicitEngine, HybridRejectsNonUniformSends) {
  // A program that sends to a single slot violates the broadcast-uniform
  // requirement of implicit topologies and must trip the engine invariant.
  class OneSlot final : public NodeProgram {
   public:
    void round(const NodeInfo& info, const Inbox&, Outbox& outbox,
               Rng&) override {
      if (!info.neighbors.empty() && info.id == 0) {
        outbox.send(0, std::move(MessageWriter().put(1, 8)).finish());
      }
      done_ = true;
    }
    bool finished() const override { return done_; }

   private:
    bool done_ = false;
  };

  graph::Graph g(6);
  g.set_implicit_block_threshold(1);
  g.add_clique(std::vector<graph::NodeId>{0, 1, 2, 3, 4, 5});
  Network net(g, [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<OneSlot>();
  });
  EXPECT_THROW(net.run(), InvariantError);
}

TEST(ImplicitEngine, HybridRejectsDuplicateSendAsBroadcast) {
  // Sending slot 0 twice is as many sends as neighbors on a triangle, but
  // not a broadcast: slot 1 never got a message. The one-slot broadcast
  // arena must reject it as the per-edge arena does.
  class SlotZeroTwice final : public NodeProgram {
   public:
    void round(const NodeInfo& info, const Inbox&, Outbox& outbox,
               Rng&) override {
      if (info.id == 0 && !done_) {
        const Message m = std::move(MessageWriter().put(1, 8)).finish();
        outbox.send(0, m);
        outbox.send(0, m);
      }
      done_ = true;
    }
    bool finished() const override { return done_; }

   private:
    bool done_ = false;
  };

  graph::Graph g(3);
  g.set_implicit_block_threshold(1);
  g.add_clique(std::vector<graph::NodeId>{0, 1, 2});
  ASSERT_TRUE(g.has_implicit_blocks());
  const ProgramFactory factory = [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<SlotZeroTwice>();
  };
  Network blocked(g, factory);
  EXPECT_THROW(blocked.run(), InvariantError);
  Network materialized(g.materialized(), factory);
  EXPECT_THROW(materialized.run(), InvariantError);
}

TEST(ImplicitEngine, HybridRejectsTracingAndMetrics) {
  // Per-delivery trace events and metric observations are O(total degree),
  // the cost implicit blocks exist to avoid: both are refused up front.
  graph::Graph g(6);
  g.set_implicit_block_threshold(1);
  g.add_clique(std::vector<graph::NodeId>{0, 1, 2, 3, 4, 5});
  const ProgramFactory factory = [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<MixFlood>(1);
  };
  obs::MetricsRegistry registry;
  NetworkConfig metered;
  metered.metrics = &registry;
  EXPECT_THROW(Network(g, factory, metered), InvariantError);

  obs::Tracer off(obs::TraceConfig{.capacity = 0});
  NetworkConfig untraced;
  untraced.tracer = &off;  // a disabled tracer behaves like none
  EXPECT_NO_THROW(Network(g, factory, untraced));
  if (obs::trace_compiled_in()) {
    obs::Tracer live;
    NetworkConfig traced;
    traced.tracer = &live;
    EXPECT_THROW(Network(g, factory, traced), InvariantError);
  }
}

}  // namespace
}  // namespace congestlb::congest
