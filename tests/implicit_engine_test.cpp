// Bit-identity contract between the hybrid (implicit-block) engine and the
// materialized engine.
//
// A topology carrying ImplicitBlock descriptors runs the same O(n)-per-round
// broadcast engine as a materialized one, but its NeighborsView cursors
// merge block-implied neighbors arithmetically. This suite pins the
// contract that licenses it: on the SAME graph, blocked and materialized
// representations must produce identical RunStats, program outputs,
// per-edge traffic, and observer transcripts — for every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "comm/instances.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "delivery_log.hpp"
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

struct RunRecord {
  RunStats stats;
  std::vector<std::int64_t> outputs;
  std::vector<std::uint64_t> edge_bits;
  std::vector<Delivery> transcript;

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
  cfg.on_message = log_deliveries(rec.transcript);
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
  ASSERT_TRUE(blocked.has_implicit_blocks());
  for (graph::NodeId v = 0; v < blocked.num_nodes(); ++v) {
    ASSERT_EQ(blocked.degree(v), dense.explicit_degree(v)) << "node " << v;
    const NeighborsView hv = blocked.neighbors(v);
    const NeighborsView dv = dense.neighbors(v);
    ASSERT_EQ(hv.size(), dv.size());
    // Indexed access (the bracketed select) and iteration (the cursor).
    for (std::size_t i = 0; i < hv.size(); ++i) {
      ASSERT_EQ(hv[i], dv[i]) << "node " << v << " slot " << i;
    }
    ASSERT_EQ(std::vector<graph::NodeId>(hv.begin(), hv.end()),
              std::vector<graph::NodeId>(dv.begin(), dv.end()))
        << "node " << v;
  }
  // Shard boundaries balance on the same merged costs.
  for (std::size_t shards : {1, 2, 5, 16}) {
    EXPECT_EQ(edge_tiled_shards(blocked, shards),
              edge_tiled_shards(dense, shards));
  }
}

/// Every merged-set select of the blocked graph equals the CSR entry of its
/// materialized twin, for every node and every slot.
void expect_selects_match_materialized(const graph::Graph& blocked) {
  const graph::Graph dense = blocked.materialized();
  ASSERT_TRUE(blocked.has_implicit_blocks());
  for (graph::NodeId v = 0; v < blocked.num_nodes(); ++v) {
    const auto want = dense.explicit_neighbors(v);
    const NeighborsView got = blocked.neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    for (std::size_t s = 0; s < want.size(); ++s) {
      ASSERT_EQ(got[s], want[s]) << "node " << v << " slot " << s;
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
  // A hub in more blocks than NeighborsView::operator[] gathers on its
  // stack (12 one-node bicliques), whose partners also share row cliques,
  // plus explicit edges on both sides of the block ids.
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
  // The blocked graph and its materialized twin reject the same slots,
  // through Graph::neighbors and the engine's NodeInfo::neighbors alike.
  const graph::Graph blocked = mixed_graph(7, 10);
  const graph::Graph dense = blocked.materialized();
  ASSERT_TRUE(blocked.has_implicit_blocks());
  ASSERT_FALSE(dense.has_implicit_blocks());
  const auto factory = [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<MixFlood>(1);
  };
  const Network bnet(blocked, factory);
  const Network dnet(dense, factory);
  for (graph::NodeId v = 0; v < blocked.num_nodes(); ++v) {
    const std::size_t d = blocked.degree(v);
    ASSERT_EQ(dense.degree(v), d) << "node " << v;
    EXPECT_THROW(blocked.neighbors(v)[d], InvariantError) << "node " << v;
    EXPECT_THROW(blocked.neighbors(v)[d + 7], InvariantError) << "node " << v;
    EXPECT_THROW(dense.neighbors(v)[d], InvariantError) << "node " << v;
    EXPECT_THROW(dense.neighbors(v)[d + 7], InvariantError) << "node " << v;
    EXPECT_THROW(bnet.info(v).neighbors[d], InvariantError) << "node " << v;
    EXPECT_THROW(dnet.info(v).neighbors[d], InvariantError) << "node " << v;
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

TEST(ImplicitEngine, HybridRejectsDuplicateSendAsBroadcast) {
  // A second send_all in one round throws: one out-slot holds the node's
  // one message, on a blocked triangle exactly as on a materialized one.
  class SendAllTwice final : public NodeProgram {
   public:
    void round(const NodeInfo& info, const Inbox&, Outbox& outbox,
               Rng&) override {
      if (info.id == 0 && !done_) {
        const Message m = std::move(MessageWriter().put(1, 8)).finish();
        outbox.send_all(m);
        outbox.send_all(m);
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
    return std::make_unique<SendAllTwice>();
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
