// Google-benchmark microbenchmarks for the hot substrates: Reed-Solomon
// encoding, Hopcroft-Karp on the Figure-2 anti-matchings, branch-and-bound
// on gadget instances, gadget construction itself, blackboard posting, the
// engine's Topology snapshot / bulk graph build, and raw CONGEST round
// throughput.
//
// A custom main (bottom of file) mirrors the console run into
// BENCH_micro.json — google-benchmark's own JSON format — so CI can archive
// the numbers alongside BENCH_simulation.json (see docs/PERFORMANCE.md).

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "codes/params.hpp"
#include "comm/blackboard.hpp"
#include "comm/exact_cc.hpp"
#include "comm/instances.hpp"
#include "congest/algorithms/greedy_mis.hpp"
#include "congest/network.hpp"
#include "congest/topology.hpp"
#include "graph/generators.hpp"
#include "graph/matching.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/structured_solver.hpp"
#include "maxis/branch_and_bound.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace clb = congestlb;

namespace {

void BM_ReedSolomonEncode(benchmark::State& state) {
  const auto gc = clb::codes::make_gadget_code(
      static_cast<std::size_t>(state.range(0)), 2);
  std::uint64_t m = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gc.code->encode_index(m));
    m = (m + 1) % gc.max_messages;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReedSolomonEncode)->Arg(6)->Arg(12)->Arg(24);

void BM_AntiMatchingHopcroftKarp(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t a = 0; a < p; ++a) {
    for (std::size_t b = 0; b < p; ++b) {
      if (a != b) edges.emplace_back(a, b);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(clb::graph::max_bipartite_matching(p, p, edges));
  }
}
BENCHMARK(BM_AntiMatchingHopcroftKarp)->Arg(8)->Arg(32)->Arg(128);

void BM_LinearConstructionBuild(benchmark::State& state) {
  const auto p = clb::lb::GadgetParams::from_l_alpha(
      static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    clb::lb::LinearConstruction c(p, 3);
    benchmark::DoNotOptimize(c.fixed_graph().num_edges());
  }
}
BENCHMARK(BM_LinearConstructionBuild)->Arg(3)->Arg(6)->Arg(10);

void BM_ExactMaxIsOnGadget(benchmark::State& state) {
  const std::size_t t = static_cast<std::size_t>(state.range(0));
  const auto p = clb::lb::GadgetParams::for_linear_separation(t, 1);
  const clb::lb::LinearConstruction c(p, t);
  clb::Rng rng(5);
  const auto inst = clb::comm::make_pairwise_disjoint(p.k, t, rng, 0.4);
  const auto g = c.instantiate(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clb::maxis::solve_exact(g).weight);
  }
}
BENCHMARK(BM_ExactMaxIsOnGadget)->Arg(2)->Arg(3)->Arg(4);

void BM_BlackboardPost(benchmark::State& state) {
  for (auto _ : state) {
    clb::comm::Blackboard board(4);
    for (int i = 0; i < 64; ++i) {
      board.post_uint(static_cast<std::size_t>(i % 4),
                      static_cast<std::uint64_t>(i), 16);
    }
    benchmark::DoNotOptimize(board.total_bits());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BlackboardPost);

void BM_CongestRoundThroughput(benchmark::State& state) {
  // Greedy MIS on a cycle: measures simulator round overhead.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  clb::graph::Graph g(n);
  clb::graph::EdgeList cycle;
  for (clb::graph::NodeId v = 0; v < n; ++v) {
    cycle.emplace_back(v, (v + 1) % n);
  }
  g.add_edges(cycle);
  for (auto _ : state) {
    clb::congest::Network net(g, clb::congest::greedy_mis_factory());
    const auto stats = net.run();
    benchmark::DoNotOptimize(stats.rounds);
  }
}
BENCHMARK(BM_CongestRoundThroughput)->Arg(64)->Arg(256)->Arg(1024);

void BM_StructuredSolver(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const auto p = clb::lb::GadgetParams::from_l_alpha(8, 2, k);
  const clb::lb::LinearConstruction c(p, 2);
  clb::Rng rng(9);
  const auto inst = clb::comm::make_pairwise_disjoint(k, 2, rng, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clb::lb::solve_linear_structured(c, inst).weight);
  }
}
BENCHMARK(BM_StructuredSolver)->Arg(25)->Arg(50)->Arg(100);

void BM_ExactCcDisjointness(benchmark::State& state) {
  const auto f = clb::comm::disjointness_matrix(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clb::comm::exact_deterministic_cc(f));
  }
}
BENCHMARK(BM_ExactCcDisjointness)->Arg(2)->Arg(3);

void BM_PromiseInstanceGeneration(benchmark::State& state) {
  clb::Rng rng(1);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        clb::comm::make_uniquely_intersecting(k, 4, rng, 0.3));
  }
}
BENCHMARK(BM_PromiseInstanceGeneration)->Arg(1024)->Arg(16384);

void BM_TopologyBuild(benchmark::State& state) {
  // The per-Network cost of borrowing the CSR and computing reverse slots
  // (topology.hpp).
  clb::Rng rng(3);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto g = clb::graph::gnp_random_connected(rng, n, 8.0 / static_cast<double>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clb::congest::Topology::build(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_TopologyBuild)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BulkGraphBuild(benchmark::State& state) {
  // Batch add_edges (one counting-sort scatter into a fresh CSR) on a gnp
  // edge list.
  clb::Rng rng(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto src =
      clb::graph::gnp_random_connected(rng, n, 16.0 / static_cast<double>(n));
  const auto edges = clb::graph::edge_list(src);
  for (auto _ : state) {
    clb::graph::Graph g(n);
    g.add_edges(edges);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_BulkGraphBuild)->Arg(1024)->Arg(8192);

/// Floods a 16-bit payload forever — the steady-state arena workload.
class MicroFlood final : public clb::congest::NodeProgram {
 public:
  void round(const clb::congest::NodeInfo& info,
             const clb::congest::Inbox& inbox, clb::congest::Outbox& outbox,
             clb::Rng&) override {
    for (const auto& m : inbox) {
      if (m) ++heard_;
    }
    if (!info.neighbors.empty()) {
      outbox.send_all(std::move(clb::congest::MessageWriter()
                                    .put(info.id & 0xFFFF, 16))
                          .finish());
    }
  }
  bool finished() const override { return false; }

 private:
  std::size_t heard_ = 0;
};

void BM_EngineSteadyRound(benchmark::State& state) {
  // One iteration = one allocation-free round of the engine (arena reuse,
  // in-place inbox reads). range(1) = num_threads.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  clb::Rng rng(5);
  const auto g =
      clb::graph::gnp_random_connected(rng, n, 8.0 / static_cast<double>(n));
  clb::congest::NetworkConfig cfg;
  cfg.bits_per_edge = 16;
  cfg.max_rounds = 1'000'000'000;
  cfg.num_threads = static_cast<std::size_t>(state.range(1));
  clb::congest::Network net(g, [](clb::graph::NodeId,
                                  const clb::congest::NodeInfo&) {
    return std::make_unique<MicroFlood>();
  }, cfg);
  net.run_rounds(4);  // warm-up
  for (auto _ : state) {
    net.run_rounds(1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_EngineSteadyRound)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({4096, 1})
    ->Args({4096, 4});

void BM_TraceEmit(benchmark::State& state) {
  // Raw cost of one ring push (the per-event price every traced delivery
  // pays). The ring wraps constantly, so this includes overwrite-oldest.
  if (!clb::obs::trace_compiled_in()) {
    state.SkipWithError("CONGESTLB_TRACE=0");
    return;
  }
  clb::obs::Tracer tracer({.capacity = std::size_t{1} << 12});
  std::uint32_t r = 0;
  for (auto _ : state) {
    tracer.emit({16, r++, 3, 5, clb::obs::EventKind::kDeliver});
  }
  benchmark::DoNotOptimize(tracer.recorded());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEmit);

void BM_TraceStageAndSeal(benchmark::State& state) {
  // The engine's actual path: range(0) staged events per shard across 4
  // shards, then the deterministic phase-major/shard-ascending seal.
  if (!clb::obs::trace_compiled_in()) {
    state.SkipWithError("CONGESTLB_TRACE=0");
    return;
  }
  const std::uint32_t per_shard = static_cast<std::uint32_t>(state.range(0));
  constexpr std::size_t kShards = 4;
  clb::obs::Tracer tracer({.capacity = std::size_t{1} << 16});
  tracer.bind(kShards, per_shard);
  for (auto _ : state) {
    for (std::size_t s = 0; s < kShards; ++s) {
      for (std::uint32_t i = 0; i < per_shard; ++i) {
        tracer.emit_shard(1, s, {16, 0, i, i + 1,
                                 clb::obs::EventKind::kDeliver});
      }
    }
    tracer.seal_round();
  }
  benchmark::DoNotOptimize(tracer.recorded());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kShards * per_shard));
}
BENCHMARK(BM_TraceStageAndSeal)->Arg(16)->Arg(256);

void BM_MetricsCounterAdd(benchmark::State& state) {
  // Sharded-cell counter increment — the metrics price on the hot path.
  clb::obs::MetricsRegistry reg(4);
  clb::obs::Counter& c = reg.counter("bench.count");
  std::size_t shard = 0;
  for (auto _ : state) {
    c.add(1, shard);
    shard = (shard + 1) & 3;
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_EngineSteadyRoundTraced(benchmark::State& state) {
  // BM_EngineSteadyRound with a live tracer (sends recorded, every round
  // sampled) and metrics attached; compare against the untraced series for
  // the per-round observability overhead. range(1) = num_threads.
  if (!clb::obs::trace_compiled_in()) {
    state.SkipWithError("CONGESTLB_TRACE=0");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  clb::Rng rng(5);
  const auto g =
      clb::graph::gnp_random_connected(rng, n, 8.0 / static_cast<double>(n));
  clb::obs::Tracer tracer(
      {.capacity = std::size_t{1} << 16, .record_sends = true});
  clb::obs::MetricsRegistry metrics;
  clb::congest::NetworkConfig cfg;
  cfg.bits_per_edge = 16;
  cfg.max_rounds = 1'000'000'000;
  cfg.num_threads = static_cast<std::size_t>(state.range(1));
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  clb::congest::Network net(g, [](clb::graph::NodeId,
                                  const clb::congest::NodeInfo&) {
    return std::make_unique<MicroFlood>();
  }, cfg);
  net.run_rounds(4);  // warm-up
  for (auto _ : state) {
    net.run_rounds(1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_EngineSteadyRoundTraced)
    ->Args({1024, 1})
    ->Args({1024, 4});

// ------------------------------------------------ SIMD kernel variants --
// One row per (kernel, level) for every level this build + CPU supports,
// registered dynamically in main (BM_SimdPack/scalar, BM_SimdPack/avx2,
// ...). The scalar rows double as the portable baseline that
// check_bench_regression.py holds the fallback path to.

/// Multi-field payload packing through the level's pack_bits (the
/// MessageWriter::put hot loop).
void BM_SimdPack(benchmark::State& state, clb::simd::Level level) {
  static constexpr std::size_t kWidths[] = {16, 7, 33, 12, 64, 5, 24, 9};
  std::size_t total_bits = 0;
  for (std::size_t w : kWidths) total_bits += w;
  const std::size_t bytes = (total_bits + 7) / 8 + clb::simd::kPackSlackBytes;
  std::vector<std::byte> buf(bytes);
  const clb::simd::ScopedLevel forced(level);
  const clb::simd::Kernels& k = clb::simd::kernels();
  std::uint64_t s = 1;
  for (auto _ : state) {
    std::memset(buf.data(), 0, bytes);
    std::size_t pos = 0;
    for (std::size_t width : kWidths) {
      const std::uint64_t value =
          (s++ * 0x9E3779B97F4A7C15ULL) &
          (width == 64 ? ~0ULL : (1ULL << width) - 1);
      k.pack_bits(buf.data(), pos, value, width);
      pos += width;
    }
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(std::size(kWidths)));
}

/// Bulk delivery accounting over 16Ki directed slots (the network.cpp
/// unobserved fast path: delivered count, bits total, per-slot bits).
void BM_SimdDeliverAccount(benchmark::State& state, clb::simd::Level level) {
  constexpr std::size_t kSlots = 16384;
  std::vector<std::uint8_t> kinds(kSlots);
  std::vector<std::uint32_t> bits(kSlots);
  std::vector<std::uint64_t> acc(kSlots, 0);
  clb::Rng rng(11);
  for (std::size_t i = 0; i < kSlots; ++i) {
    kinds[i] = rng.chance(0.8) ? 1 : 0;
    bits[i] = kinds[i] != 0 ? 16 : 0;
  }
  const clb::simd::ScopedLevel forced(level);
  const clb::simd::Kernels& k = clb::simd::kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.count_nonzero_u8(kinds.data(), kSlots));
    benchmark::DoNotOptimize(k.sum_u32(bits.data(), kSlots));
    k.accumulate_u32_to_u64(acc.data(), bits.data(), kSlots);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSlots));
}

/// Candidate-row intersection + clique-cover domination probe on 4096-word
/// rows (the BnB inner loop at scale).
void BM_SimdIntersectPopcount(benchmark::State& state,
                              clb::simd::Level level) {
  constexpr std::size_t kWords = 4096;
  clb::Rng rng(42);
  std::vector<std::uint64_t> a(kWords), b(kWords), dst(kWords);
  for (std::size_t w = 0; w < kWords; ++w) {
    a[w] = rng.next();
    b[w] = rng.next() | rng.next();
  }
  const clb::simd::ScopedLevel forced(level);
  const clb::simd::Kernels& k = clb::simd::kernels();
  for (auto _ : state) {
    k.and_rows(dst.data(), a.data(), b.data(), kWords);
    benchmark::DoNotOptimize(k.and_popcount(dst.data(), b.data(), kWords));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWords));
}

/// First-set-bit scan over a mostly-empty 4096-word row (the branching
/// vertex pick on a sparse candidate set).
void BM_SimdFirstBitScan(benchmark::State& state, clb::simd::Level level) {
  constexpr std::size_t kWords = 4096;
  std::vector<std::uint64_t> row(kWords, 0);
  row[kWords - 3] = 1ULL << 17;
  const clb::simd::ScopedLevel forced(level);
  const clb::simd::Kernels& k = clb::simd::kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.first_bit(row.data(), kWords, kWords * 64));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWords));
}

/// Register one row per supported level for each SIMD kernel bench.
void register_simd_benchmarks() {
  using clb::simd::Level;
  for (Level level : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    if (!clb::simd::level_supported(level)) continue;
    const std::string suffix = clb::simd::level_name(level);
    benchmark::RegisterBenchmark(("BM_SimdPack/" + suffix).c_str(),
                                 BM_SimdPack, level);
    benchmark::RegisterBenchmark(("BM_SimdDeliverAccount/" + suffix).c_str(),
                                 BM_SimdDeliverAccount, level);
    benchmark::RegisterBenchmark(
        ("BM_SimdIntersectPopcount/" + suffix).c_str(),
        BM_SimdIntersectPopcount, level);
    benchmark::RegisterBenchmark(("BM_SimdFirstBitScan/" + suffix).c_str(),
                                 BM_SimdFirstBitScan, level);
  }
}

}  // namespace

// Custom main: unless the caller chose their own output file, mirror the
// console run into BENCH_micro.json (google-benchmark's JSON schema) for
// the CI artifact, by injecting the corresponding benchmark flags.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  register_simd_benchmarks();
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
