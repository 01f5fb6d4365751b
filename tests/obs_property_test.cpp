// Property suite for the observability layer (tests/property_harness.hpp).
//
// The tracer is only worth having if it is *exact*: every event stream must
// replay to the engine's own RunStats and per-edge bit accounting, and must
// be bit-identical across thread counts — otherwise a trace is a story, not
// evidence. Each property here runs on randomized (topology, workload)
// instances derived purely from (seed, size); failures print the
// minimal (seed, size) repro.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "comm/blackboard.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"
#include "maxis/branch_and_bound.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "property_harness.hpp"
#include "sim/reduction.hpp"
#include "support/rng.hpp"

namespace congestlb {
namespace {

using congest::Network;
using congest::NetworkConfig;
using congest::NodeInfo;
using congest::NodeProgram;
using congest::RunStats;
using obs::EventKind;
using obs::TraceEvent;
using obs::Tracer;
using testing::check_seeds;
using testing::random_program_plan;
using testing::random_topology;

/// The determinism-suite workload: flood the node id for a fixed number of
/// rounds, count what is heard.
class FloodProgram final : public NodeProgram {
 public:
  FloodProgram(std::size_t rounds_to_run, std::size_t payload_bits)
      : rounds_to_run_(rounds_to_run), payload_bits_(payload_bits) {}

  void round(const NodeInfo& info, const congest::Inbox& inbox,
             congest::Outbox& outbox, Rng&) override {
    for (const auto& m : inbox) {
      if (m) ++heard_;
    }
    ++rounds_seen_;
    if (rounds_seen_ > rounds_to_run_ || info.neighbors.empty()) return;
    outbox.send_all(
        std::move(congest::MessageWriter().put(info.id, payload_bits_))
            .finish());
  }
  bool finished() const override { return rounds_seen_ > rounds_to_run_; }
  std::int64_t output() const override {
    return static_cast<std::int64_t>(heard_);
  }

 private:
  std::size_t rounds_to_run_;
  std::size_t payload_bits_;
  std::size_t rounds_seen_ = 0;
  std::size_t heard_ = 0;
};

struct Instance {
  graph::Graph g{1};
  NetworkConfig cfg;
  std::size_t flood_rounds = 1;
  std::size_t payload_bits = 16;
};

Instance make_instance(std::uint64_t seed, std::size_t size) {
  Rng rng(seed);
  Instance inst;
  inst.g = random_topology(rng, 2 + 2 * size);
  inst.cfg.seed = rng.next();
  inst.cfg.bits_per_edge = 64;
  inst.cfg.max_rounds = 400;
  const auto plan = random_program_plan(rng, size);
  inst.flood_rounds = plan.flood_rounds;
  inst.payload_bits = plan.payload_bits;
  return inst;
}

struct TracedRun {
  RunStats stats;
  std::vector<TraceEvent> events;
  std::uint64_t trace_dropped = 0;
  std::vector<std::uint64_t> edge_bits;  ///< bits_on_edge per edge-list edge
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counters;
};

TracedRun run_traced(const Instance& inst, std::size_t num_threads,
                     obs::TraceConfig tc = {}) {
  Tracer tracer(tc);
  obs::MetricsRegistry metrics;
  NetworkConfig cfg = inst.cfg;
  cfg.num_threads = num_threads;
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  const auto factory = [&inst](graph::NodeId, const NodeInfo&) {
    return std::make_unique<FloodProgram>(inst.flood_rounds,
                                          inst.payload_bits);
  };
  Network net(inst.g, factory, cfg);
  TracedRun out;
  out.stats = net.run();
  out.events = tracer.events();
  out.trace_dropped = tracer.dropped();
  for (auto [u, v] : graph::edge_list(inst.g)) {
    out.edge_bits.push_back(net.bits_on_edge(u, v));
  }
  for (const auto& counter : metrics.counters()) {
    out.counters.emplace_back(std::hash<std::string>{}(counter->name()),
                              counter->value());
  }
  return out;
}

/// What a trace claims happened, accumulated by replaying the event stream.
struct Replay {
  std::uint64_t delivered = 0;
  std::uint64_t bits_delivered = 0;
  std::uint64_t rounds = 0;
  /// Directed (from, to) -> delivered bits.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> edge_bits;
};

Replay replay(std::span<const TraceEvent> events) {
  Replay r;
  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case EventKind::kDeliver:
        r.delivered += 1;
        r.bits_delivered += ev.value;
        r.edge_bits[{ev.a, ev.b}] += ev.value;
        break;
      case EventKind::kRoundEnd:
        r.rounds += 1;
        break;
      default:
        break;
    }
  }
  return r;
}

template <typename T, typename U>
std::optional<std::string> expect_eq(const char* what, T got, U want) {
  if (static_cast<std::uint64_t>(got) == static_cast<std::uint64_t>(want)) {
    return std::nullopt;
  }
  return std::string(what) + ": trace replays to " + std::to_string(got) +
         ", engine reports " + std::to_string(want);
}

/// Property 1: with sample_period 1 and no ring pressure, the event stream
/// replays exactly to RunStats — every delivery, bit, and round.
std::optional<std::string> prop_replays_to_stats(std::uint64_t seed,
                                                 std::size_t size) {
  const Instance inst = make_instance(seed, size);
  obs::TraceConfig tc;
  tc.capacity = std::size_t{1} << 18;
  const TracedRun run = run_traced(inst, 1, tc);
  if (run.trace_dropped != 0) {
    return "ring dropped " + std::to_string(run.trace_dropped) +
           " events; reconciliation needs a lossless trace";
  }
  const Replay r = replay(run.events);
  for (auto failure :
       {expect_eq("messages_sent", r.delivered, run.stats.messages_sent),
        expect_eq("bits_sent", r.bits_delivered, run.stats.bits_sent),
        expect_eq("rounds", r.rounds, run.stats.rounds)}) {
    if (failure.has_value()) return failure;
  }
  return std::nullopt;
}

/// Property 2: per-edge delivered bits replayed from the trace equal the
/// engine's own bits_on_edge charge for every edge of the topology.
std::optional<std::string> prop_edge_bits_match(std::uint64_t seed,
                                                std::size_t size) {
  const Instance inst = make_instance(seed, size);
  obs::TraceConfig tc;
  tc.capacity = std::size_t{1} << 18;
  const TracedRun run = run_traced(inst, 1, tc);
  if (run.trace_dropped != 0) return "lossy trace; enlarge the ring";
  const Replay r = replay(run.events);
  const auto edges = graph::edge_list(inst.g);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    std::uint64_t traced = 0;
    auto it = r.edge_bits.find({static_cast<std::uint32_t>(u),
                                static_cast<std::uint32_t>(v)});
    if (it != r.edge_bits.end()) traced += it->second;
    it = r.edge_bits.find(
        {static_cast<std::uint32_t>(v), static_cast<std::uint32_t>(u)});
    if (it != r.edge_bits.end()) traced += it->second;
    if (traced != run.edge_bits[i]) {
      return "edge (" + std::to_string(u) + "," + std::to_string(v) +
             "): trace says " + std::to_string(traced) + " bits, engine " +
             std::to_string(run.edge_bits[i]);
    }
  }
  return std::nullopt;
}

/// Property 3: the sealed event stream and every metric counter are
/// bit-identical across thread counts.
std::optional<std::string> prop_threads_identical(std::uint64_t seed,
                                                  std::size_t size) {
  const Instance inst = make_instance(seed, size);
  obs::TraceConfig tc;
  tc.capacity = std::size_t{1} << 18;
  const TracedRun serial = run_traced(inst, 1, tc);
  for (std::size_t threads : {2, 8}) {
    const TracedRun par = run_traced(inst, threads, tc);
    if (serial.events.size() != par.events.size()) {
      return "event count diverges at num_threads=" +
             std::to_string(threads) + ": " +
             std::to_string(serial.events.size()) + " vs " +
             std::to_string(par.events.size());
    }
    for (std::size_t i = 0; i < serial.events.size(); ++i) {
      if (!(serial.events[i] == par.events[i])) {
        return "event " + std::to_string(i) + " diverges at num_threads=" +
               std::to_string(threads) + " (kind " +
               obs::to_string(serial.events[i].kind) + " vs " +
               obs::to_string(par.events[i].kind) + ")";
      }
    }
    if (serial.counters != par.counters) {
      return "metric counters diverge at num_threads=" +
             std::to_string(threads);
    }
  }
  return std::nullopt;
}

/// Property 4: sampling. With sample_period p, events exist exactly for
/// rounds r with r % p == 0, and the sampled rounds replay to the same
/// per-round content as a full trace restricted to those rounds.
std::optional<std::string> prop_sampling_is_subset(std::uint64_t seed,
                                                   std::size_t size) {
  const Instance inst = make_instance(seed, size);
  obs::TraceConfig full;
  full.capacity = std::size_t{1} << 18;
  obs::TraceConfig sampled = full;
  sampled.sample_period = 3;
  const TracedRun a = run_traced(inst, 1, full);
  const TracedRun b = run_traced(inst, 1, sampled);
  if (a.trace_dropped != 0 || b.trace_dropped != 0) return "lossy trace";
  std::vector<TraceEvent> expect;
  for (const auto& ev : a.events) {
    if (ev.round % 3 == 0) expect.push_back(ev);
  }
  const std::vector<TraceEvent>& got = b.events;
  if (expect.size() != got.size()) {
    return "sampled trace has " + std::to_string(got.size()) +
           " events, expected " + std::to_string(expect.size());
  }
  for (std::size_t i = 0; i < expect.size(); ++i) {
    if (!(expect[i] == got[i])) {
      return "sampled event " + std::to_string(i) +
             " differs from the full trace restricted to sampled rounds";
    }
  }
  return std::nullopt;
}

class ObsProperty : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::trace_compiled_in()) {
      GTEST_SKIP() << "tracer compiled out (CONGESTLB_TRACE=0)";
    }
  }
};

TEST_F(ObsProperty, TraceReplaysToRunStats) {
  auto failure = check_seeds(prop_replays_to_stats, 1000, 128, 12);
  ASSERT_FALSE(failure.has_value()) << failure->describe();
}

TEST_F(ObsProperty, PerEdgeBitsMatchEngineAccounting) {
  auto failure = check_seeds(prop_edge_bits_match, 2000, 64, 12);
  ASSERT_FALSE(failure.has_value()) << failure->describe();
}

TEST_F(ObsProperty, TraceBitIdenticalAcrossThreadCounts) {
  auto failure = check_seeds(prop_threads_identical, 3000, 32, 12);
  ASSERT_FALSE(failure.has_value()) << failure->describe();
}

TEST_F(ObsProperty, SampledTraceIsRestrictionOfFullTrace) {
  auto failure = check_seeds(prop_sampling_is_subset, 4000, 32, 12);
  ASSERT_FALSE(failure.has_value()) << failure->describe();
}

TEST_F(ObsProperty, RingTruncationKeepsNewestAndCounts) {
  // A deliberately tiny ring: the trace must degrade by dropping the oldest
  // events (counted), never by corrupting the newest window.
  const Instance inst = make_instance(42, 8);
  obs::TraceConfig big;
  big.capacity = std::size_t{1} << 18;
  obs::TraceConfig tiny;
  tiny.capacity = 64;
  const TracedRun full = run_traced(inst, 1, big);
  const TracedRun trunc = run_traced(inst, 1, tiny);
  ASSERT_EQ(full.trace_dropped, 0u);
  ASSERT_LE(trunc.events.size(), 64u);
  ASSERT_EQ(trunc.events.size() + trunc.trace_dropped, full.events.size());
  // The surviving window is the tail of the full stream.
  const std::size_t offset = full.events.size() - trunc.events.size();
  for (std::size_t i = 0; i < trunc.events.size(); ++i) {
    ASSERT_EQ(full.events[offset + i], trunc.events[i]) << "tail index " << i;
  }
}

TEST_F(ObsProperty, ReductionBlackboardMatchesTracedCutTraffic) {
  // The Theorem-5 charge on real reductions: the bits posted to the
  // blackboard must equal the traced delivered bits on player-crossing
  // edges, and every kBlackboardPost must land in the trace.
  for (std::uint64_t seed : {7u, 11u, 23u}) {
    const auto p = lb::GadgetParams::for_linear_separation(2, 1);
    const lb::LinearConstruction c(p, 2);
    Rng rng(seed);
    const auto inst = comm::make_uniquely_intersecting(p.k, 2, rng);
    comm::Blackboard board(2);
    Tracer tracer({.capacity = std::size_t{1} << 21});
    NetworkConfig cfg;
    cfg.tracer = &tracer;
    cfg.bits_per_edge = congest::universal_required_bits(
        c.num_nodes(), static_cast<graph::Weight>(p.ell));
    cfg.max_rounds = 500'000;
    const auto rep = sim::run_linear_reduction(
        c, inst,
        congest::universal_maxis_factory([](const graph::Graph& g) {
          return maxis::solve_exact(g).nodes;
        }),
        board, cfg);
    ASSERT_TRUE(rep.algorithm_finished) << "seed " << seed;
    ASSERT_EQ(tracer.dropped(), 0u) << "seed " << seed;
    std::uint64_t cut_bits = 0;
    std::uint64_t posted_bits = 0;
    std::uint64_t posts = 0;
    for (const TraceEvent& ev : tracer.events()) {
      switch (ev.kind) {
        case EventKind::kDeliver:
          if (c.owner(ev.a) != c.owner(ev.b)) cut_bits += ev.value;
          break;
        case EventKind::kBlackboardPost:
          posted_bits += ev.value;
          posts += 1;
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(cut_bits, rep.blackboard_bits) << "seed " << seed;
    EXPECT_EQ(posted_bits, board.total_bits()) << "seed " << seed;
    EXPECT_EQ(posts, board.transcript().size()) << "seed " << seed;
    EXPECT_TRUE(rep.cut_accounting_exact) << "seed " << seed;
  }
}

}  // namespace
}  // namespace congestlb
