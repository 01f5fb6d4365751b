// Google-benchmark microbenchmarks for the hot substrates: Reed-Solomon
// encoding, Hopcroft-Karp on the Figure-2 anti-matchings, gadget
// construction itself, blackboard posting, the message codec, the solver's
// word loops, bulk graph build, and the engine's steady-state round.
//
// A custom main (bottom of file) mirrors the console run into
// BENCH_micro.json — google-benchmark's own JSON format — so CI can archive
// the numbers alongside BENCH_simulation.json (see docs/PERFORMANCE.md).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "codes/params.hpp"
#include "comm/blackboard.hpp"
#include "comm/exact_cc.hpp"
#include "comm/instances.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "graph/matching.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/structured_solver.hpp"
#include "maxis/bitset.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

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

/// One multi-field message through MessageWriter::put and finish(): the
/// codec every program runs per send. The 8 widths (170 bits) fill all three
/// inline payload words and cross both word boundaries.
void BM_MessageCodec(benchmark::State& state) {
  static constexpr std::size_t kWidths[] = {16, 7, 33, 12, 64, 5, 24, 9};
  std::uint64_t s = 1;
  for (auto _ : state) {
    clb::congest::MessageWriter w;
    for (std::size_t width : kWidths) {
      w.put((s++ * 0x9E3779B97F4A7C15ULL) &
                (width == 64 ? ~0ULL : (1ULL << width) - 1),
            width);
    }
    const clb::congest::Message m = std::move(w).finish();
    benchmark::DoNotOptimize(m.data.words());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(std::size(kWidths)));
}
BENCHMARK(BM_MessageCodec);

// ------------------------------------------------------ word loops --

/// The two row loops SubtreeSearch runs, on 4096-word rows (the BnB inner
/// loop at scale): and_not_rows narrows the candidates on an include
/// branch, and_rows narrows the clique-cover refresh's common neighbours.
void BM_WordsNarrowRows(benchmark::State& state) {
  constexpr std::size_t kWords = 4096;
  clb::Rng rng(42);
  std::vector<std::uint64_t> cand(kWords), adj(kWords), next(kWords),
      common(kWords);
  for (std::size_t w = 0; w < kWords; ++w) {
    cand[w] = rng.next() | rng.next();
    adj[w] = rng.next();
  }
  for (auto _ : state) {
    clb::maxis::words::and_not_rows(next.data(), cand.data(), adj.data(),
                                    kWords);
    clb::maxis::words::and_rows(common.data(), next.data(), cand.data(),
                                kWords);
    benchmark::DoNotOptimize(common.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWords));
}
BENCHMARK(BM_WordsNarrowRows);

/// First-set-bit scan over a mostly-empty 4096-word row (the branching
/// vertex pick on a sparse candidate set).
void BM_WordsFirstBitScan(benchmark::State& state) {
  constexpr std::size_t kWords = 4096;
  std::vector<std::uint64_t> row(kWords, 0);
  row[kWords - 3] = 1ULL << 17;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        clb::maxis::words::first_bit(row.data(), kWords, kWords * 64));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWords));
}
BENCHMARK(BM_WordsFirstBitScan);

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
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
