// Scalar-vs-SIMD bit-identity suite for the runtime dispatch layer
// (support/simd.hpp).
//
// Three layers of evidence, each with seed-replay shrinking via
// tests/property_harness.hpp:
//
//   1. kernel-level: every dispatch-table entry of every supported level is
//      compared against the scalar reference (support/simd_detail.hpp) on
//      random inputs — word rows straddling the kSimdDispatchWords
//      threshold and vector-register boundaries, random accounting arrays;
//   2. engine-level: the same random (topology, flood plan)
//      instance is executed under every supported level via ScopedLevel and
//      every observable (RunStats, outputs, per-edge bits, full transcript
//      with payload bytes) must match the scalar run, serial and parallel;
//   3. solver-level: solve_maxis on random graphs — and on a
//      union-of-cliques instance wide enough to route word kernels through
//      the dispatch table — must return identical solutions, weights, and
//      search_nodes under every level.
//
// Plus unit tests for the edge-tiled shard partition that replaced the
// equal-node split in the parallel round executor.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "congest/algorithms/luby_mis.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "maxis/bitset.hpp"
#include "maxis/parallel_bnb.hpp"
#include "property_harness.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/simd_detail.hpp"

namespace congestlb {
namespace {

using simd::Kernels;
using simd::Level;
using simd::ScopedLevel;

/// Every level this build + CPU can actually run. Scalar is always first,
/// so [1..] are the vector levels under test; on a scalar-only machine the
/// comparisons below degenerate to scalar-vs-scalar and still pass.
std::vector<Level> supported_levels() {
  std::vector<Level> out;
  for (Level level : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    if (simd::level_supported(level)) out.push_back(level);
  }
  return out;
}

TEST(SimdDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(simd::level_compiled(Level::kScalar));
  EXPECT_TRUE(simd::level_supported(Level::kScalar));
  ASSERT_NE(simd::kernels_for(Level::kScalar), nullptr);
  EXPECT_EQ(simd::kernels_for(Level::kScalar)->level, Level::kScalar);
}

TEST(SimdDispatch, TablesMatchTheirLevel) {
  for (Level level : supported_levels()) {
    const Kernels* k = simd::kernels_for(level);
    ASSERT_NE(k, nullptr) << simd::level_name(level);
    EXPECT_EQ(k->level, level);
  }
  EXPECT_TRUE(simd::level_supported(simd::best_level()));
}

TEST(SimdDispatch, UnsupportedLevelYieldsNull) {
  for (Level level : {Level::kAvx2, Level::kAvx512}) {
    if (!simd::level_supported(level)) {
      EXPECT_EQ(simd::kernels_for(level), nullptr);
    }
  }
}

TEST(SimdDispatch, ScopedLevelForcesAndRestores) {
  const Level before = simd::active_level();
  for (Level level : supported_levels()) {
    {
      ScopedLevel forced(level);
      EXPECT_EQ(simd::active_level(), level);
      EXPECT_EQ(simd::kernels().level, level);
    }
    EXPECT_EQ(simd::active_level(), before);
  }
}

// ------------------------------------------------------ kernel properties --

/// Random word row mixing dense, sparse, and all-zero stretches, so
/// first_bit hits both early-exit and full-scan paths.
std::vector<std::uint64_t> random_row(Rng& rng, std::size_t nw) {
  std::vector<std::uint64_t> row(nw);
  for (auto& w : row) {
    switch (rng.below(4)) {
      case 0: w = 0; break;
      case 1: w = rng.next(); break;
      case 2: w = rng.next() & rng.next() & rng.next(); break;  // sparse
      default: w = rng.next() | rng.next(); break;              // dense
    }
  }
  return row;
}

std::string row_mismatch(const char* kernel, Level level, std::size_t nw,
                         std::string detail = {}) {
  return std::string(kernel) + " diverges from scalar at level=" +
         simd::level_name(level) + " nw=" + std::to_string(nw) +
         (detail.empty() ? "" : " (" + detail + ")");
}

/// Word-row kernels (and/andnot incl. aliasing, popcounts, first_bit)
/// against the scalar reference. Row lengths sweep 0..~4 registers so both
/// main loops and masked/scalar tails are exercised.
TEST(SimdKernelProperty, WordRowKernelsMatchScalar) {
  const auto levels = supported_levels();
  const testing::Property prop = [&](std::uint64_t seed,
                                     std::size_t size) -> std::optional<std::string> {
    Rng rng(seed);
    const std::size_t nw = rng.below(4 * size + 2);
    const auto a = random_row(rng, nw);
    const auto b = random_row(rng, nw);

    std::vector<std::uint64_t> ref_and(nw), ref_andnot(nw);
    simd::detail::scalar_and_rows(ref_and.data(), a.data(), b.data(), nw);
    simd::detail::scalar_and_not_rows(ref_andnot.data(), a.data(), b.data(),
                                      nw);
    const std::size_t ref_pop = simd::detail::scalar_popcount(a.data(), nw);
    const std::size_t ref_and_pop =
        simd::detail::scalar_and_popcount(a.data(), b.data(), nw);
    const std::size_t none = 64 * nw + 7;
    const std::size_t ref_first =
        simd::detail::scalar_first_bit(a.data(), nw, none);

    for (Level level : levels) {
      const Kernels& k = *simd::kernels_for(level);
      std::vector<std::uint64_t> got(nw);
      k.and_rows(got.data(), a.data(), b.data(), nw);
      if (got != ref_and) return row_mismatch("and_rows", level, nw);
      k.and_not_rows(got.data(), a.data(), b.data(), nw);
      if (got != ref_andnot) return row_mismatch("and_not_rows", level, nw);
      // Aliased forms (dst == a), the solver's dominant call shape.
      got = a;
      k.and_rows(got.data(), got.data(), b.data(), nw);
      if (got != ref_and) return row_mismatch("and_rows", level, nw, "aliased");
      got = a;
      k.and_not_rows(got.data(), got.data(), b.data(), nw);
      if (got != ref_andnot) {
        return row_mismatch("and_not_rows", level, nw, "aliased");
      }
      if (k.popcount(a.data(), nw) != ref_pop) {
        return row_mismatch("popcount", level, nw);
      }
      if (k.and_popcount(a.data(), b.data(), nw) != ref_and_pop) {
        return row_mismatch("and_popcount", level, nw);
      }
      if (k.first_bit(a.data(), nw, none) != ref_first) {
        return row_mismatch("first_bit", level, nw);
      }
      // All-zero row: every level must report `none`.
      const std::vector<std::uint64_t> zeros(nw, 0);
      if (k.first_bit(zeros.data(), nw, none) != none) {
        return row_mismatch("first_bit", level, nw, "all-zero row");
      }
    }
    return std::nullopt;
  };
  auto failure = testing::check_seeds(prop, 0x51D0'0001, 60, 12);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

/// The words:: wrappers must agree with the raw scalar reference on both
/// sides of the kSimdDispatchWords threshold, whatever table is active.
TEST(SimdKernelProperty, WordsNamespaceMatchesScalarAcrossThreshold) {
  const testing::Property prop = [&](std::uint64_t seed,
                                     std::size_t size) -> std::optional<std::string> {
    Rng rng(seed);
    // Straddle the dispatch threshold: sizes from 1 below to a register
    // above, plus whatever `size` adds.
    const std::size_t nw =
        maxis::words::kSimdDispatchWords - 1 + rng.below(size + 10);
    const auto a = random_row(rng, nw);
    const auto b = random_row(rng, nw);
    for (Level level : supported_levels()) {
      ScopedLevel forced(level);
      std::vector<std::uint64_t> got(nw), ref(nw);
      maxis::words::and_rows(got.data(), a.data(), b.data(), nw);
      simd::detail::scalar_and_rows(ref.data(), a.data(), b.data(), nw);
      if (got != ref) return row_mismatch("words::and_rows", level, nw);
      maxis::words::and_not_rows(got.data(), a.data(), b.data(), nw);
      simd::detail::scalar_and_not_rows(ref.data(), a.data(), b.data(), nw);
      if (got != ref) return row_mismatch("words::and_not_rows", level, nw);
      if (maxis::words::popcount(a.data(), nw) !=
          simd::detail::scalar_popcount(a.data(), nw)) {
        return row_mismatch("words::popcount", level, nw);
      }
      if (maxis::words::and_popcount(a.data(), b.data(), nw) !=
          simd::detail::scalar_and_popcount(a.data(), b.data(), nw)) {
        return row_mismatch("words::and_popcount", level, nw);
      }
      if (maxis::words::first_bit(a.data(), nw, 64 * nw) !=
          simd::detail::scalar_first_bit(a.data(), nw, 64 * nw)) {
        return row_mismatch("words::first_bit", level, nw);
      }
    }
    return std::nullopt;
  };
  auto failure = testing::check_seeds(prop, 0x51D0'0002, 40, 12);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

/// Delivery-accounting kernels on arrays with realistic zero density
/// (the arena's `sent` bytes are mostly 0/1, out_bits_ values small).
TEST(SimdKernelProperty, AccountingKernelsMatchScalar) {
  const auto levels = supported_levels();
  const testing::Property prop = [&](std::uint64_t seed,
                                     std::size_t size) -> std::optional<std::string> {
    Rng rng(seed);
    const std::size_t n = rng.below(70 * size + 2);
    std::vector<std::uint8_t> kinds(n);
    std::vector<std::uint32_t> bits(n);
    for (std::size_t i = 0; i < n; ++i) {
      kinds[i] = rng.chance(0.4) ? static_cast<std::uint8_t>(1 + rng.below(3))
                                 : 0;
      bits[i] = static_cast<std::uint32_t>(rng.below(1u << 20));
    }
    const std::size_t ref_nz =
        simd::detail::scalar_count_nonzero_u8(kinds.data(), n);
    const std::uint64_t ref_sum = simd::detail::scalar_sum_u32(bits.data(), n);
    std::vector<std::uint64_t> ref_acc(n);
    for (std::size_t i = 0; i < n; ++i) ref_acc[i] = rng.next() >> 32;
    std::vector<std::uint64_t> acc_scalar = ref_acc;
    simd::detail::scalar_accumulate_u32_to_u64(acc_scalar.data(), bits.data(),
                                               n);
    for (Level level : levels) {
      const Kernels& k = *simd::kernels_for(level);
      if (k.count_nonzero_u8(kinds.data(), n) != ref_nz) {
        return row_mismatch("count_nonzero_u8", level, n);
      }
      if (k.sum_u32(bits.data(), n) != ref_sum) {
        return row_mismatch("sum_u32", level, n);
      }
      std::vector<std::uint64_t> acc = ref_acc;
      k.accumulate_u32_to_u64(acc.data(), bits.data(), n);
      if (acc != acc_scalar) {
        return row_mismatch("accumulate_u32_to_u64", level, n);
      }
    }
    return std::nullopt;
  };
  auto failure = testing::check_seeds(prop, 0x51D0'0004, 50, 12);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

// -------------------------------------------------- engine bit-identity ---

/// Floods node id for a fixed number of rounds (the determinism-suite
/// workload): exercises MessageWriter::put and bulk delivery accounting.
class FloodProgram final : public congest::NodeProgram {
 public:
  FloodProgram(std::size_t rounds_to_run, std::size_t payload_bits)
      : rounds_to_run_(rounds_to_run), payload_bits_(payload_bits) {}

  void round(const congest::NodeInfo& info, const congest::Inbox& inbox,
             congest::Outbox& outbox, Rng&) override {
    for (const auto& m : inbox) {
      if (m) ++heard_;
    }
    ++rounds_seen_;
    if (rounds_seen_ > rounds_to_run_ || info.neighbors.empty()) return;
    congest::MessageWriter w;
    std::size_t bits = payload_bits_;
    while (bits > 0) {
      const std::size_t width = bits < 16 ? bits : 16;
      w.put(info.id & ((1ULL << width) - 1), width);
      bits -= width;
    }
    outbox.send_all(std::move(w).finish());
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

/// Everything observable about one engine run, payload bytes included.
struct EngineRecord {
  congest::RunStats stats;
  std::vector<std::int64_t> outputs;
  std::vector<std::uint64_t> edge_bits;
  std::string transcript;

  friend bool operator==(const EngineRecord&, const EngineRecord&) = default;
};

EngineRecord run_engine(const graph::Graph& g,
                        const congest::ProgramFactory& factory,
                        congest::NetworkConfig cfg) {
  EngineRecord rec;
  std::ostringstream ts;
  cfg.on_message = [&ts](std::size_t round, graph::NodeId from,
                         graph::NodeId to, const congest::Message& msg) {
    ts << round << ':' << from << '>' << to << '#' << msg.bits << '[';
    for (std::byte b : msg.data) ts << static_cast<unsigned>(b) << ',';
    ts << ']';
  };
  congest::Network net(g, factory, cfg);
  rec.stats = net.run();
  rec.outputs = net.outputs();
  for (auto [u, v] : graph::edge_list(g)) {
    rec.edge_bits.push_back(net.bits_on_edge(u, v));
  }
  rec.transcript = ts.str();
  return rec;
}

/// Random (topology, flood plan): the run must be bit-identical
/// under every SIMD level, serial and parallel. The scalar serial run is
/// the reference — this covers the bulk delivery fast path end to end.
TEST(SimdEngineBitIdentity, FloodRunsMatchScalarAcrossLevels) {
  const auto levels = supported_levels();
  const testing::Property prop = [&](std::uint64_t seed,
                                     std::size_t size) -> std::optional<std::string> {
    Rng rng(seed);
    const auto g = testing::random_topology(rng, 4 * size);
    const auto plan = testing::random_program_plan(rng, size);
    congest::NetworkConfig cfg;
    cfg.seed = rng.next();
    cfg.max_rounds = 64;
    // Auto bandwidth is O(log n) bits and the plan floods up to 24; widen
    // the edges so the property tests delivery, not the bandwidth check.
    cfg.bits_per_edge = 32;
    const congest::ProgramFactory factory =
        [&plan](graph::NodeId, const congest::NodeInfo&) {
          return std::make_unique<FloodProgram>(plan.flood_rounds,
                                                plan.payload_bits);
        };

    EngineRecord reference;
    {
      ScopedLevel forced(Level::kScalar);
      reference = run_engine(g, factory, cfg);
    }
    for (Level level : levels) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ScopedLevel forced(level);
        congest::NetworkConfig run_cfg = cfg;
        run_cfg.num_threads = threads;
        const EngineRecord got = run_engine(g, factory, run_cfg);
        if (!(got == reference)) {
          return std::string("engine run diverges from scalar serial at "
                             "level=") +
                 simd::level_name(level) +
                 " threads=" + std::to_string(threads);
        }
      }
    }
    return std::nullopt;
  };
  auto failure = testing::check_seeds(prop, 0x51D0'0005, 12, 8);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

/// Same bit-identity contract for Luby MIS (randomized rounds, real
/// termination logic) on random topologies.
TEST(SimdEngineBitIdentity, LubyMisMatchesScalarAcrossLevels) {
  const auto levels = supported_levels();
  const testing::Property prop = [&](std::uint64_t seed,
                                     std::size_t size) -> std::optional<std::string> {
    Rng rng(seed);
    const auto g = testing::random_topology(rng, 4 * size);
    congest::NetworkConfig cfg;
    cfg.seed = rng.next();
    const auto factory = congest::luby_mis_factory();

    EngineRecord reference;
    {
      ScopedLevel forced(Level::kScalar);
      reference = run_engine(g, factory, cfg);
    }
    for (Level level : levels) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ScopedLevel forced(level);
        congest::NetworkConfig run_cfg = cfg;
        run_cfg.num_threads = threads;
        const EngineRecord got = run_engine(g, factory, run_cfg);
        if (!(got == reference)) {
          return std::string("Luby run diverges from scalar serial at "
                             "level=") +
                 simd::level_name(level) +
                 " threads=" + std::to_string(threads);
        }
      }
    }
    return std::nullopt;
  };
  auto failure = testing::check_seeds(prop, 0x51D0'0006, 10, 8);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

// -------------------------------------------------- solver bit-identity ---

std::string engine_result_key(const maxis::EngineResult& r) {
  std::ostringstream os;
  os << r.solution.weight << '|' << r.search_nodes << '|' << r.components
     << '|' << r.jobs << '|' << r.kernel_nodes << '|';
  for (auto v : r.solution.nodes) os << v << ',';
  return os.str();
}

/// solve_maxis on random weighted graphs: solution, weight, search_nodes,
/// and kernel/job structure identical under every level and thread count.
TEST(SimdSolverBitIdentity, RandomGraphsMatchScalarAcrossLevels) {
  const auto levels = supported_levels();
  const testing::Property prop = [&](std::uint64_t seed,
                                     std::size_t size) -> std::optional<std::string> {
    Rng rng(seed);
    const auto g =
        graph::gnp_random(rng, 2 + rng.below(6 * size + 1),
                          0.05 + rng.uniform() * 0.3, /*max_weight=*/9);
    maxis::EngineOptions opts;
    std::string reference;
    {
      ScopedLevel forced(Level::kScalar);
      reference = engine_result_key(maxis::solve_maxis(g, opts));
    }
    for (Level level : levels) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        ScopedLevel forced(level);
        maxis::EngineOptions run_opts = opts;
        run_opts.threads = threads;
        const std::string got =
            engine_result_key(maxis::solve_maxis(g, run_opts));
        if (got != reference) {
          return std::string("solve_maxis diverges from scalar at level=") +
                 simd::level_name(level) +
                 " threads=" + std::to_string(threads) + "\n  scalar: " +
                 reference + "\n  got:    " + got;
        }
      }
    }
    return std::nullopt;
  };
  auto failure = testing::check_seeds(prop, 0x51D0'0007, 8, 8);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

/// A union-of-cliques instance wide enough (n = 540 -> 9-word rows) that
/// the solver's word kernels actually route through the dispatch table —
/// the small random graphs above stay below kSimdDispatchWords. OPT is the
/// per-clique weight maxima, checked exactly.
TEST(SimdSolverBitIdentity, WideUnionOfCliquesMatchesScalarAcrossLevels) {
  constexpr std::size_t kCliques = 60;
  constexpr std::size_t kCliqueSize = 9;
  Rng rng(0x51D0'0008);
  graph::Graph g(kCliques * kCliqueSize);
  graph::Weight expected_opt = 0;
  for (std::size_t c = 0; c < kCliques; ++c) {
    graph::Weight best = 0;
    for (std::size_t i = 0; i < kCliqueSize; ++i) {
      const graph::NodeId u = c * kCliqueSize + i;
      const graph::Weight w = 1 + static_cast<graph::Weight>(rng.below(50));
      g.set_weight(u, w);
      best = best > w ? best : w;
      for (std::size_t j = i + 1; j < kCliqueSize; ++j) {
        g.add_edge(u, c * kCliqueSize + j);
      }
    }
    expected_opt += best;
  }
  ASSERT_GE(maxis::words::row_words(g.num_nodes()),
            maxis::words::kSimdDispatchWords);

  std::string reference;
  {
    ScopedLevel forced(Level::kScalar);
    const auto r = maxis::solve_maxis(g);
    EXPECT_EQ(r.solution.weight, expected_opt);
    reference = engine_result_key(r);
  }
  for (Level level : supported_levels()) {
    ScopedLevel forced(level);
    const auto r = maxis::solve_maxis(g);
    EXPECT_EQ(engine_result_key(r), reference) << simd::level_name(level);
  }
}

// --------------------------------------------------- edge-tiled sharding --

/// The pre-SIMD equal-node split, kept here as the comparison baseline for
/// the load-balance test.
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
}  // namespace congestlb
