// Determinism suite for the parallel round executor: every observable
// result of a Network run — RunStats, program outputs, per-edge traffic,
// and the full observer transcript including payload bytes — must be
// bit-for-bit identical for every num_threads value, across random
// topologies and seeds (the fuzz_test recipe).
//
// This is the test that licenses NetworkConfig::num_threads as "purely a
// speed knob": if it ever fails, the parallel engine has a scheduling
// dependence and must not be used.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "congest/algorithms/luby_mis.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "congest/transcript.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace congestlb::congest {
namespace {

/// A transcript entry extended with the payload bytes, so the comparison
/// covers corrupted-message contents, not just (round, from, to, bits).
struct FullEntry {
  std::size_t round;
  graph::NodeId from;
  graph::NodeId to;
  std::size_t bits;
  std::vector<std::byte> data;

  friend bool operator==(const FullEntry&, const FullEntry&) = default;
};

/// Everything observable about one run.
struct RunRecord {
  RunStats stats;
  std::vector<std::int64_t> outputs;
  std::vector<std::uint64_t> edge_bits;  ///< bits_on_edge per edge-list edge
  std::vector<FullEntry> transcript;
};

/// Floods its id for a fixed number of rounds (fuzz_test's workload).
class FloodProgram final : public NodeProgram {
 public:
  explicit FloodProgram(std::size_t rounds_to_run)
      : rounds_to_run_(rounds_to_run) {}

  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng&) override {
    for (const auto& m : inbox) {
      if (m) ++heard_;
    }
    ++rounds_seen_;
    if (rounds_seen_ > rounds_to_run_ || info.neighbors.empty()) return;
    outbox.send_all(
        std::move(MessageWriter().put(info.id, 16)).finish());
  }
  bool finished() const override { return rounds_seen_ > rounds_to_run_; }
  std::int64_t output() const override {
    return static_cast<std::int64_t>(heard_);
  }

 private:
  std::size_t rounds_to_run_;
  std::size_t rounds_seen_ = 0;
  std::size_t heard_ = 0;
};

RunRecord run_once(const graph::Graph& g, const ProgramFactory& factory,
                   NetworkConfig cfg, std::size_t num_threads) {
  RunRecord rec;
  cfg.num_threads = num_threads;
  cfg.on_message = [&rec](std::size_t round, graph::NodeId from,
                          graph::NodeId to, const Message& msg) {
    rec.transcript.push_back(
        {round, from, to, msg.bits,
         std::vector<std::byte>(msg.data.begin(), msg.data.end())});
  };
  Network net(g, factory, cfg);
  rec.stats = net.run();
  rec.outputs = net.outputs();
  for (auto [u, v] : graph::edge_list(g)) {
    rec.edge_bits.push_back(net.bits_on_edge(u, v));
  }
  return rec;
}

void expect_identical(const RunRecord& serial, const RunRecord& parallel,
                      std::size_t num_threads, std::uint64_t seed) {
  EXPECT_EQ(serial.stats, parallel.stats)
      << "RunStats diverge at num_threads=" << num_threads << " seed=" << seed;
  EXPECT_EQ(serial.outputs, parallel.outputs)
      << "outputs diverge at num_threads=" << num_threads << " seed=" << seed;
  EXPECT_EQ(serial.edge_bits, parallel.edge_bits)
      << "per-edge traffic diverges at num_threads=" << num_threads
      << " seed=" << seed;
  ASSERT_EQ(serial.transcript.size(), parallel.transcript.size())
      << "transcript length diverges at num_threads=" << num_threads
      << " seed=" << seed;
  for (std::size_t i = 0; i < serial.transcript.size(); ++i) {
    ASSERT_EQ(serial.transcript[i], parallel.transcript[i])
        << "transcript entry " << i << " diverges at num_threads="
        << num_threads << " seed=" << seed;
  }
}

constexpr std::size_t kThreadCounts[] = {2, 8};

class EngineDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDeterminism, FaultFreeFloodMatchesSerial) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 4 + rng.below(48);
    const auto g =
        graph::gnp_random_connected(rng, n, 0.1 + rng.uniform() * 0.4);
    const std::size_t flood_rounds = 1 + rng.below(12);
    NetworkConfig cfg;
    cfg.seed = rng.next();
    cfg.bits_per_edge = 16;
    cfg.max_rounds = 1000;
    const auto factory = [flood_rounds](graph::NodeId, const NodeInfo&) {
      return std::make_unique<FloodProgram>(flood_rounds);
    };
    const RunRecord serial = run_once(g, factory, cfg, 1);
    for (std::size_t threads : kThreadCounts) {
      expect_identical(serial, run_once(g, factory, cfg, threads), threads,
                       cfg.seed);
    }
  }
}

TEST_P(EngineDeterminism, RandomizedLubyMisMatchesSerial) {
  // A real algorithm with per-node randomness: the Luby-MIS program draws
  // from its node Rng every phase, so this also pins down that node RNG
  // streams are independent of the shard layout.
  Rng rng(GetParam() + 900);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 8 + rng.below(56);
    const auto g =
        graph::gnp_random_connected(rng, n, 0.05 + rng.uniform() * 0.25);
    NetworkConfig cfg;
    cfg.seed = rng.next();
    cfg.max_rounds = 10'000;
    const auto factory = luby_mis_factory();
    const RunRecord serial = run_once(g, factory, cfg, 1);
    ASSERT_TRUE(serial.stats.all_finished);
    for (std::size_t threads : kThreadCounts) {
      expect_identical(serial, run_once(g, factory, cfg, threads), threads,
                       cfg.seed);
    }
  }
}

TEST(EngineDeterminism, ThreadCountBeyondNodeCountIsFine) {
  // More shards than nodes must degrade to (empty shards + determinism),
  // not crash or change results.
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  NetworkConfig cfg;
  cfg.bits_per_edge = 16;
  const auto factory = [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<FloodProgram>(3);
  };
  const RunRecord serial = run_once(g, factory, cfg, 1);
  expect_identical(serial, run_once(g, factory, cfg, 16), 16, cfg.seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminism,
                         ::testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace congestlb::congest
