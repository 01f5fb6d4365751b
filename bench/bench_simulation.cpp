// Experiment T5: the simulation argument of Theorem 5 executed end-to-end,
// plus the engine-throughput benchmark that feeds BENCH_simulation.json.
//
// t players simulate a CONGEST algorithm on G_xbar / F_xbar; every message
// crossing between players' parts is posted to a shared blackboard. The
// tables report, per run: rounds T, |cut|, bits on the board, the
// Theorem-5 budget T * 2|cut| * B, the algorithm's answer to promise
// pairwise disjointness via the gap predicate, and correctness.
//
// With the universal exact algorithm the answer is always right; with the
// local weighted-greedy the accounting still holds but the answer can be
// wrong — exactly the distinction the lower bound exploits (fast local
// algorithms cannot decide the gap).
//
// The engine-throughput section at the end measures the simulator hot path
// itself (ns/round, messages/s, bits/s, allocations/round) on the standard
// shapes, serial and parallel, and writes BENCH_simulation.json — the
// machine-readable perf record that scripts/check_bench_regression.py
// compares against bench/baselines/ in CI (see docs/PERFORMANCE.md).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "comm/lower_bound.hpp"
#include "congest/algorithms/greedy_mis.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/algorithms/weighted_greedy.hpp"
#include "graph/generators.hpp"
#include "maxis/branch_and_bound.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/reduction.hpp"
#include "support/alloc_hook.hpp"
#include "support/json.hpp"
#include "support/simd.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
using clb::Table;

namespace {

clb::congest::LocalMaxIsSolver exact_solver() {
  return [](const clb::graph::Graph& g) {
    return clb::maxis::solve_exact(g).nodes;
  };
}

void add_row(Table& t, const std::string& algo, const std::string& branch,
             const clb::sim::ReductionReport& rep) {
  t.add_row({algo, branch, std::to_string(rep.n), std::to_string(rep.t),
             std::to_string(rep.rounds), std::to_string(rep.cut_edges),
             std::to_string(rep.blackboard_bits),
             std::to_string(rep.theorem5_budget),
             rep.accounting_ok ? "yes" : "NO",
             rep.decided_disjoint ? "disjoint" : "intersecting",
             rep.correct ? "yes" : "no"});
}

// ------------------------------------------------- engine throughput --

/// Broadcasts a 16-bit payload every round, forever — pure engine load.
class SteadyFlood final : public clb::congest::NodeProgram {
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
  std::int64_t output() const override {
    return static_cast<std::int64_t>(heard_);
  }

 private:
  std::size_t heard_ = 0;
};

/// ns/round of the pre-rewrite (seed) engine on the same shapes, same
/// machine, same SteadyFlood workload and 512-round window — measured from
/// the last pre-rewrite commit with a one-off bench harness (median of
/// three runs; the raw runs spread about ±10%). Kept here so every
/// BENCH_simulation.json records the serial improvement factor vs seed.
struct SeedReference {
  const char* name;
  double ns_per_round;
};
constexpr SeedReference kSeedReference[] = {
    {"flood/cycle-1024", 586000.0},
    {"flood/gnp-1024", 2755000.0},
    {"flood/gadget-linear-t3", 261000.0},
};

struct EngineRow {
  std::string name;          ///< workload/shape identifier
  std::size_t n = 0;         ///< nodes
  std::size_t edges = 0;     ///< undirected edges
  std::size_t threads = 1;   ///< NetworkConfig::num_threads
  std::size_t rounds = 0;    ///< rounds in the timed window
  double ns_per_round = 0;
  double messages_per_s = 0;
  double bits_per_s = 0;
  double allocs_per_round = 0;
};

double elapsed_ns(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Steady-state throughput: warm the arenas, then time a fixed window.
/// With tracer/metrics attached the same loop measures the observability
/// overhead (rows named traced/*; flood/* stays the pristine baseline).
EngineRow measure_flood(const std::string& name, const clb::graph::Graph& g,
                        std::size_t threads, std::size_t timed_rounds,
                        clb::obs::Tracer* tracer = nullptr,
                        clb::obs::MetricsRegistry* metrics = nullptr) {
  clb::congest::NetworkConfig cfg;
  cfg.bits_per_edge = 16;
  cfg.max_rounds = 100'000'000;
  cfg.num_threads = threads;
  cfg.tracer = tracer;
  cfg.metrics = metrics;
  clb::congest::Network net(g, [](clb::graph::NodeId,
                                  const clb::congest::NodeInfo&) {
    return std::make_unique<SteadyFlood>();
  }, cfg);
  net.run_rounds(8);  // warm-up: engage arenas and payload buffers

  const auto s0 = net.stats();
  const auto a0 = clb::allochook::allocation_count();
  const auto t0 = std::chrono::steady_clock::now();
  net.run_rounds(timed_rounds);
  const auto t1 = std::chrono::steady_clock::now();
  const auto a1 = clb::allochook::allocation_count();
  const auto s1 = net.stats();

  const double ns = elapsed_ns(t0, t1);
  EngineRow row;
  row.name = name;
  row.n = g.num_nodes();
  row.edges = g.num_edges();
  row.threads = threads;
  row.rounds = timed_rounds;
  row.ns_per_round = ns / static_cast<double>(timed_rounds);
  row.messages_per_s =
      static_cast<double>(s1.messages_sent - s0.messages_sent) * 1e9 / ns;
  row.bits_per_s = static_cast<double>(s1.bits_sent - s0.bits_sent) * 1e9 / ns;
  row.allocs_per_round =
      static_cast<double>(a1 - a0) / static_cast<double>(timed_rounds);
  return row;
}

/// Terminating-algorithm throughput: repeat full runs on fresh networks and
/// time only the runs (construction excluded). ns/round averages over every
/// executed round.
EngineRow measure_runs(const std::string& name, const clb::graph::Graph& g,
                       const clb::congest::ProgramFactory& factory,
                       std::size_t threads, std::size_t repeats) {
  clb::congest::NetworkConfig cfg;
  cfg.max_rounds = 1'000'000;
  cfg.num_threads = threads;
  double ns = 0;
  std::uint64_t rounds = 0, messages = 0, bits = 0, allocs = 0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    cfg.seed = 0xC0D1F1EDULL + rep;
    clb::congest::Network net(g, factory, cfg);
    const auto a0 = clb::allochook::allocation_count();
    const auto t0 = std::chrono::steady_clock::now();
    const auto stats = net.run();
    const auto t1 = std::chrono::steady_clock::now();
    allocs += clb::allochook::allocation_count() - a0;
    ns += elapsed_ns(t0, t1);
    rounds += stats.rounds;
    messages += stats.messages_sent;
    bits += stats.bits_sent;
  }
  EngineRow row;
  row.name = name;
  row.n = g.num_nodes();
  row.edges = g.num_edges();
  row.threads = threads;
  row.rounds = static_cast<std::size_t>(rounds);
  row.ns_per_round = ns / static_cast<double>(rounds);
  row.messages_per_s = static_cast<double>(messages) * 1e9 / ns;
  row.bits_per_s = static_cast<double>(bits) * 1e9 / ns;
  row.allocs_per_round =
      static_cast<double>(allocs) / static_cast<double>(rounds);
  return row;
}

// ------------------------------------------------------- scaling curve --

/// Current resident set in bytes (Linux /proc/self/status VmRSS); 0 when
/// the file is unavailable. Used for before/after deltas around one
/// build+run, which peak RSS alone cannot give.
std::size_t current_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::size_t>(
                 std::strtoull(line.c_str() + 6, nullptr, 10)) *
             1024;
    }
  }
  return 0;
}

/// Process-lifetime peak resident set in bytes; 0 when getrusage is
/// unavailable. Monotone, so the scale rows run in ascending n: the value
/// recorded after each run is that run's own high-water mark.
std::size_t process_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
  }
#endif
  return 0;
}

/// Scale workload: broadcast a 16-bit payload every round, read only the
/// first inbox slot. Deliberately never iterates the inbox — a grid node
/// in the 10^6-node family has ~10^5 block-implied neighbors, and walking
/// them every round would reintroduce exactly the O(implicit edges) cost
/// the hybrid engine removes. Per node per round this is one slot-0
/// select (one O(|blocks|) source pass, no search) plus an O(1)
/// broadcast, so a round is ~O(n * |blocks|) no matter how many edges the
/// blocks imply.
class ScaleFlood final : public clb::congest::NodeProgram {
 public:
  void round(const clb::congest::NodeInfo& info,
             const clb::congest::Inbox& inbox, clb::congest::Outbox& outbox,
             clb::Rng&) override {
    if (!inbox.empty()) {
      const auto probe = inbox[0];
      if (probe) acc_ += clb::congest::MessageReader(*probe).get(16);
    }
    if (!info.neighbors.empty()) {
      const std::uint64_t payload =
          (static_cast<std::uint64_t>(info.id) ^ acc_) & 0xFFFF;
      outbox.send_all(
          std::move(clb::congest::MessageWriter().put(payload, 16)).finish());
    }
  }
  bool finished() const override { return false; }
  std::int64_t output() const override {
    return static_cast<std::int64_t>(acc_ & 0x7FFFFFFFFFFFFFFFULL);
  }

 private:
  std::uint64_t acc_ = 0;
};

struct ScaleRow {
  std::string name;     ///< scale/gxbar-1e4 ...
  std::string variant;  ///< "" serial, "mt4" four worker threads
  std::size_t n = 0;
  std::size_t t = 0;  ///< gadget copies (players)
  std::size_t threads = 1;
  std::size_t rounds = 0;
  std::size_t explicit_edges = 0;
  std::uint64_t implicit_edges = 0;
  std::size_t blocks = 0;
  double build_ms = 0;  ///< streaming construction + topology + arenas
  double ns_per_round = 0;
  double messages_per_s = 0;
  double bits_per_s = 0;
  std::size_t peak_rss_bytes = 0;   ///< process high-water after the run
  std::size_t rss_delta_bytes = 0;  ///< VmRSS growth across build+run
  double materialized_edge_bytes = 0;  ///< CSR cost if blocks were expanded
};

/// Build one G_xbar instance at t copies with the anti-matching grids kept
/// implicit, run ScaleFlood for a timed window, and record timing + memory.
ScaleRow measure_scale(const std::string& name, const std::string& variant,
                       std::size_t t, std::size_t threads,
                       std::size_t timed_rounds) {
  const auto params = clb::lb::GadgetParams::from_l_alpha(3, 1);
  clb::lb::BuildOptions opts;
  // Grids (Theta(t^2) implied edges each) go implicit; the per-copy
  // cliques and stars (~110 edges/copy) stay explicit.
  opts.implicit_threshold = 4096;
  opts.skip_labels = true;

  const std::size_t rss0 = current_rss_bytes();
  const auto b0 = std::chrono::steady_clock::now();
  const clb::lb::LinearConstruction c(params, t, opts);
  const auto& g = c.fixed_graph();

  clb::congest::NetworkConfig cfg;
  cfg.bits_per_edge = 16;
  cfg.broadcast_only = true;
  cfg.max_rounds = 100'000'000;
  cfg.num_threads = threads;
  clb::congest::Network net(
      g,
      [](clb::graph::NodeId, const clb::congest::NodeInfo&) {
        return std::make_unique<ScaleFlood>();
      },
      cfg);
  const auto b1 = std::chrono::steady_clock::now();

  net.run_rounds(1);  // warm-up
  const auto s0 = net.stats();
  const auto t0 = std::chrono::steady_clock::now();
  net.run_rounds(timed_rounds);
  const auto t1 = std::chrono::steady_clock::now();
  const auto s1 = net.stats();
  const std::size_t rss1 = current_rss_bytes();

  const double ns = elapsed_ns(t0, t1);
  ScaleRow row;
  row.name = name;
  row.variant = variant;
  row.n = g.num_nodes();
  row.t = t;
  row.threads = threads;
  row.rounds = timed_rounds;
  row.explicit_edges = g.num_explicit_edges();
  row.implicit_edges = g.num_implicit_edges();
  row.blocks = g.implicit_blocks().size();
  row.build_ms = elapsed_ns(b0, b1) / 1e6;
  row.ns_per_round = ns / static_cast<double>(timed_rounds);
  row.messages_per_s =
      static_cast<double>(s1.messages_sent - s0.messages_sent) * 1e9 / ns;
  row.bits_per_s = static_cast<double>(s1.bits_sent - s0.bits_sent) * 1e9 / ns;
  row.peak_rss_bytes = process_peak_rss_bytes();
  row.rss_delta_bytes = rss1 > rss0 ? rss1 - rss0 : 0;
  // What the engine topology alone would cost with every block expanded:
  // 2 directed slots per undirected edge, each a NodeId target plus a
  // u32 reverse-slot entry. Deliberately excludes the per-slot message
  // arenas, so the <10% gate below is conservative.
  row.materialized_edge_bytes =
      static_cast<double>(row.implicit_edges +
                          static_cast<std::uint64_t>(row.explicit_edges)) *
      2.0 * (sizeof(clb::graph::NodeId) + sizeof(std::uint32_t));
  return row;
}

/// Memory gate: above this n, a run whose resident-set growth is not
/// small relative to the materialized CSR cost means the implicit
/// representation leaked an O(implicit edges) allocation somewhere.
constexpr std::size_t kRssGateMinN = 100'000;
constexpr double kRssGateFraction = 0.10;

/// The G_xbar scaling curve: n from 1e4 up to CLB_SCALE_MAX_N (default
/// 1e6; CLB_BENCH_SMOKE caps the default at 1e4). Writes BENCH_scale.json
/// (schema clb-scale-v1) and returns the rows for BENCH_simulation.json.
/// Returns ok=false when the resident-set gate fails.
std::pair<std::vector<ScaleRow>, bool> scale_section(bool smoke) {
  clb::print_heading(std::cout,
                     "G_xbar scaling curve (implicit grids; "
                     "see BENCH_scale.json)");

  std::size_t max_n = smoke ? 10'000 : 1'000'000;
  if (const char* env = std::getenv("CLB_SCALE_MAX_N")) {
    max_n = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }

  // t = n / nodes_per_copy; with (ell, alpha) = (3, 1) one copy is 24
  // nodes, so the realized n is the target rounded down to a multiple
  // of 24. Ascending order keeps each row's peak RSS its own.
  struct Target {
    const char* name;
    std::size_t n;
  };
  constexpr Target kTargets[] = {
      {"scale/gxbar-1e4", 10'000},
      {"scale/gxbar-1e5", 100'000},
      {"scale/gxbar-1e6", 1'000'000},
  };
  const std::size_t npc =
      clb::lb::GadgetParams::from_l_alpha(3, 1).nodes_per_copy();

  std::vector<ScaleRow> rows;
  for (const auto& target : kTargets) {
    if (target.n > max_n) {
      std::cout << "  (skipping " << target.name << ": above CLB_SCALE_MAX_N="
                << max_n << ")\n";
      continue;
    }
    const std::size_t t = target.n / npc;
    rows.push_back(measure_scale(target.name, "", t, 1, 4));
    rows.push_back(measure_scale(target.name, "mt4", t, 4, 4));
  }

  Table tab({"workload", "variant", "n", "t", "expl edges", "impl edges",
             "build ms", "ns/round", "messages/s", "peak RSS MB",
             "RSS delta MB", "RSS/materialized"});
  for (const auto& r : rows) {
    tab.add_row(
        {r.name, r.variant.empty() ? "serial" : r.variant,
         std::to_string(r.n), std::to_string(r.t),
         std::to_string(r.explicit_edges), std::to_string(r.implicit_edges),
         clb::fmt_double(r.build_ms, 1), clb::fmt_double(r.ns_per_round, 0),
         clb::fmt_double(r.messages_per_s, 0),
         clb::fmt_double(static_cast<double>(r.peak_rss_bytes) / 1e6, 1),
         clb::fmt_double(static_cast<double>(r.rss_delta_bytes) / 1e6, 1),
         clb::fmt_double(static_cast<double>(r.rss_delta_bytes) /
                             r.materialized_edge_bytes,
                         4)});
  }
  tab.print(std::cout);
  std::cout << "  (impl edges are never stored: the grids deliver "
               "arithmetically; RSS/materialized compares resident growth "
               "to the CSR cost of expanding them)\n";

  bool ok = true;
  for (const auto& r : rows) {
    if (r.n < kRssGateMinN || r.implicit_edges == 0) continue;
    const double frac =
        static_cast<double>(r.rss_delta_bytes) / r.materialized_edge_bytes;
    if (frac >= kRssGateFraction) {
      std::cerr << "FAILED: " << r.name << " resident-set growth "
                << r.rss_delta_bytes << " B is "
                << clb::fmt_double(frac * 100.0, 1)
                << "% of the materialized edge cost (gate: < "
                << clb::fmt_double(kRssGateFraction * 100.0, 0) << "%)\n";
      ok = false;
    }
  }

  std::ofstream out("BENCH_scale.json");
  clb::JsonWriter jw(out);
  jw.begin_object();
  jw.kv("schema", "clb-scale-v1");
  jw.kv("benchmark", "scale_gxbar");
  jw.kv("max_n", static_cast<std::uint64_t>(max_n));
  jw.key("entries");
  jw.begin_array();
  for (const auto& r : rows) {
    jw.begin_object();
    jw.kv("name", r.name);
    jw.kv("variant", r.variant);
    jw.kv("n", static_cast<std::uint64_t>(r.n));
    jw.kv("t", static_cast<std::uint64_t>(r.t));
    jw.kv("threads", static_cast<std::uint64_t>(r.threads));
    jw.kv("rounds", static_cast<std::uint64_t>(r.rounds));
    jw.kv("explicit_edges", static_cast<std::uint64_t>(r.explicit_edges));
    jw.kv("implicit_edges", r.implicit_edges);
    jw.kv("blocks", static_cast<std::uint64_t>(r.blocks));
    jw.kv("build_ms", r.build_ms);
    jw.kv("ns_per_round", r.ns_per_round);
    jw.kv("messages_per_s", r.messages_per_s);
    jw.kv("bits_per_s", r.bits_per_s);
    jw.kv("peak_rss_bytes", static_cast<std::uint64_t>(r.peak_rss_bytes));
    jw.kv("rss_delta_bytes", static_cast<std::uint64_t>(r.rss_delta_bytes));
    jw.kv("materialized_edge_bytes", r.materialized_edge_bytes);
    jw.kv("rss_vs_materialized",
          static_cast<double>(r.rss_delta_bytes) / r.materialized_edge_bytes);
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
  out << "\n";
  std::cout << "  wrote BENCH_scale.json (" << rows.size() << " entries)\n";
  return {std::move(rows), ok};
}

// ------------------------------------------- SIMD pack/deliver kernels --

/// The SWAR/vector layer's hot-path speedup gate: in a full run on
/// SIMD-capable hardware, at least one pack/deliver kernel row must beat
/// the scalar reference by this factor or the bench exits nonzero.
constexpr double kSimdKernelGate = 1.5;

struct SimdKernelRow {
  std::string name;
  std::string variant;  ///< "scalar" or the vector level actually run
  std::size_t slots = 0;
  std::size_t rounds = 0;
  double ns_per_round = 0;
};

/// One simulated round of payload packing: every directed slot writes one
/// multi-field message through the active pack_bits kernel — the
/// MessageWriter hot loop without the engine around it. The widths mirror
/// the universal algorithm's multi-field payloads (ids, weights, flags at
/// arbitrary bit offsets), which is where the word-window packer beats the
/// byte loop hardest.
SimdKernelRow measure_pack_kernel(clb::simd::Level level, std::size_t slots,
                                  std::size_t rounds) {
  static constexpr std::size_t kWidths[] = {16, 7, 33, 12, 64, 5, 24, 9};
  std::size_t total_bits = 0;
  for (std::size_t w : kWidths) total_bits += w;
  const std::size_t bytes =
      (total_bits + 7) / 8 + clb::simd::kPackSlackBytes;
  std::vector<std::byte> buf(bytes);

  const clb::simd::ScopedLevel forced(level);
  const clb::simd::Kernels& k = clb::simd::kernels();
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t s = 0; s < slots; ++s) {
      std::memset(buf.data(), 0, bytes);
      std::size_t pos = 0;
      std::size_t f = 0;
      for (std::size_t width : kWidths) {
        const std::uint64_t value =
            (s * 0x9E3779B97F4A7C15ULL + f++) &
            (width == 64 ? ~0ULL : (1ULL << width) - 1);
        k.pack_bits(buf.data(), pos, value, width);
        pos += width;
      }
      sink += static_cast<std::uint64_t>(buf[bytes - 9]);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (sink == 0xDEAD) std::cout << "";  // keep the packed bytes observable

  SimdKernelRow row;
  row.name = "pack-kernel/multifield";
  row.variant = clb::simd::level_name(level);
  row.slots = slots;
  row.rounds = rounds;
  row.ns_per_round = elapsed_ns(t0, t1) / static_cast<double>(rounds);
  return row;
}

/// One simulated round of bulk delivery accounting over `slots` directed
/// slots: delivered count over the kind bytes, delivered-bits total, and
/// the per-slot bits accumulation — exactly the fast path network.cpp runs
/// per shard per round.
SimdKernelRow measure_deliver_kernel(clb::simd::Level level,
                                     std::size_t slots, std::size_t rounds) {
  std::vector<std::uint8_t> kinds(slots);
  std::vector<std::uint32_t> bits(slots);
  std::vector<std::uint64_t> acc(slots, 0);
  clb::Rng rng(11);
  for (std::size_t i = 0; i < slots; ++i) {
    kinds[i] = rng.chance(0.8) ? 1 : 0;
    bits[i] = kinds[i] != 0 ? 16 : 0;
  }

  const clb::simd::ScopedLevel forced(level);
  const clb::simd::Kernels& k = clb::simd::kernels();
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    sink += k.count_nonzero_u8(kinds.data(), slots);
    sink += k.sum_u32(bits.data(), slots);
    k.accumulate_u32_to_u64(acc.data(), bits.data(), slots);
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (sink == 0xDEAD) std::cout << "";

  SimdKernelRow row;
  row.name = "deliver-account/bulk";
  row.variant = clb::simd::level_name(level);
  row.slots = slots;
  row.rounds = rounds;
  row.ns_per_round = elapsed_ns(t0, t1) / static_cast<double>(rounds);
  return row;
}

/// Runs the engine-throughput suite and writes BENCH_simulation.json,
/// folding the scaling-curve rows into the entries array so one file
/// carries the whole engine perf record. Returns false when the full-run
/// SIMD kernel gate fails.
bool engine_throughput_section(std::size_t timed_rounds,
                               std::size_t mis_repeats,
                               const std::vector<ScaleRow>& scale_rows) {
  clb::print_heading(std::cout,
                     "engine throughput (ns/round; see BENCH_simulation.json)");

  clb::Rng rng(7);
  const auto cycle = clb::graph::cycle_graph(1024);
  const auto gnp = clb::graph::gnp_random_connected(rng, 1024, 0.01);
  const auto params = clb::lb::GadgetParams::for_linear_separation(3, 1);
  const auto gadget = clb::lb::LinearConstruction(params, 3).fixed_graph();

  std::vector<EngineRow> rows;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    rows.push_back(measure_flood("flood/cycle-1024", cycle, threads,
                                 timed_rounds));
    rows.push_back(measure_flood("flood/gnp-1024", gnp, threads,
                                 timed_rounds));
    rows.push_back(measure_flood("flood/gadget-linear-t3", gadget, threads,
                                 timed_rounds));
    rows.push_back(measure_runs("greedy-mis/cycle-1024", cycle,
                                clb::congest::greedy_mis_factory(), threads,
                                mis_repeats));
  }

  // Observability overhead: the same flood shapes with a live tracer (every
  // round sampled, sends recorded, 64Ki-event ring that wraps freely) and a
  // metrics registry attached. The rows are named traced/* — NOT flood/* —
  // because scripts/check_bench_regression.py holds flood/* to the
  // untraced-baseline contract; engine_alloc_test separately proves the
  // traced path is still allocation-free.
  clb::obs::MetricsRegistry traced_metrics;
  if (clb::obs::trace_compiled_in()) {
    auto traced = [&](const std::string& name, const clb::graph::Graph& g,
                      std::size_t threads) {
      clb::obs::Tracer tracer(
          {.capacity = std::size_t{1} << 16, .record_sends = true});
      return measure_flood(name, g, threads, timed_rounds, &tracer,
                           &traced_metrics);
    };
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{4}}) {
      rows.push_back(traced("traced/cycle-1024", cycle, threads));
      rows.push_back(traced("traced/gnp-1024", gnp, threads));
    }
  }

  // SIMD pack/deliver kernel rows: the same hot-path work, scalar table vs
  // the best level this build + CPU supports (identical when the machine
  // is scalar-only). Slot count matches the gnp-1024 flood's directed
  // slots, so the rows are read in the same units as flood/gnp-1024.
  const std::size_t kernel_slots = 2 * gnp.num_edges();
  const std::size_t kernel_rounds = timed_rounds;
  const clb::simd::Level best = clb::simd::best_level();
  std::vector<SimdKernelRow> kernel_rows;
  for (const clb::simd::Level level :
       {clb::simd::Level::kScalar, best}) {
    kernel_rows.push_back(
        measure_pack_kernel(level, kernel_slots, kernel_rounds));
    kernel_rows.push_back(
        measure_deliver_kernel(level, kernel_slots, kernel_rounds));
    if (best == clb::simd::Level::kScalar) break;  // one variant only
  }

  Table t({"workload", "n", "edges", "threads", "ns/round", "messages/s",
           "bits/s", "allocs/round"});
  for (const auto& r : rows) {
    t.add_row({r.name, std::to_string(r.n), std::to_string(r.edges),
               std::to_string(r.threads), clb::fmt_double(r.ns_per_round, 0),
               clb::fmt_double(r.messages_per_s, 0),
               clb::fmt_double(r.bits_per_s, 0),
               clb::fmt_double(r.allocs_per_round, 3)});
  }
  t.print(std::cout);
  std::cout << "  (allocs/round counts heap allocations via the counting "
               "allocator; steady-state flood must be 0)\n";

  Table kt({"kernel", "variant", "slots", "ns/round"});
  for (const auto& r : kernel_rows) {
    kt.add_row({r.name, r.variant, std::to_string(r.slots),
                clb::fmt_double(r.ns_per_round, 0)});
  }
  std::cout << "\n";
  kt.print(std::cout);

  std::ofstream out("BENCH_simulation.json");
  clb::JsonWriter jw(out);
  jw.begin_object();
  jw.kv("schema", "clb-bench-v1");
  jw.kv("benchmark", "simulation_engine");
  jw.kv("alloc_hook", clb::allochook::hook_active());
  jw.kv("trace_compiled_in", clb::obs::trace_compiled_in());
  jw.key("entries");
  jw.begin_array();
  for (const auto& r : rows) {
    jw.begin_object();
    jw.kv("name", r.name);
    jw.kv("n", static_cast<std::uint64_t>(r.n));
    jw.kv("edges", static_cast<std::uint64_t>(r.edges));
    jw.kv("threads", static_cast<std::uint64_t>(r.threads));
    jw.kv("rounds", static_cast<std::uint64_t>(r.rounds));
    jw.kv("ns_per_round", r.ns_per_round);
    jw.kv("messages_per_s", r.messages_per_s);
    jw.kv("bits_per_s", r.bits_per_s);
    jw.kv("allocs_per_round", r.allocs_per_round);
    jw.end_object();
  }
  for (const auto& r : kernel_rows) {
    jw.begin_object();
    jw.kv("name", r.name);
    jw.kv("variant", r.variant);
    jw.kv("threads", std::uint64_t{1});
    jw.kv("slots", static_cast<std::uint64_t>(r.slots));
    jw.kv("rounds", static_cast<std::uint64_t>(r.rounds));
    jw.kv("ns_per_round", r.ns_per_round);
    jw.end_object();
  }
  // The G_xbar scaling rows (implicit-grid topologies, n up to 1e6; full
  // detail in BENCH_scale.json) repeated here so BENCH_simulation.json
  // stays the one-stop engine perf record the roadmap asks for.
  for (const auto& r : scale_rows) {
    jw.begin_object();
    jw.kv("name", r.name);
    jw.kv("variant", r.variant);
    jw.kv("n", static_cast<std::uint64_t>(r.n));
    jw.kv("edges", static_cast<std::uint64_t>(r.explicit_edges));
    jw.kv("implicit_edges", r.implicit_edges);
    jw.kv("threads", static_cast<std::uint64_t>(r.threads));
    jw.kv("rounds", static_cast<std::uint64_t>(r.rounds));
    jw.kv("ns_per_round", r.ns_per_round);
    jw.kv("messages_per_s", r.messages_per_s);
    jw.kv("bits_per_s", r.bits_per_s);
    jw.kv("peak_rss_bytes", static_cast<std::uint64_t>(r.peak_rss_bytes));
    jw.end_object();
  }
  jw.end_array();
  jw.key("seed_comparison");
  jw.begin_array();
  for (const auto& ref : kSeedReference) {
    for (const auto& r : rows) {
      if (r.threads != 1 || r.name != ref.name) continue;
      jw.begin_object();
      jw.kv("name", ref.name);
      jw.kv("seed_ns_per_round", ref.ns_per_round);
      jw.kv("ns_per_round", r.ns_per_round);
      jw.kv("improvement", ref.ns_per_round / r.ns_per_round);
      jw.end_object();
    }
  }
  // Scalar-vs-SIMD delta per kernel row (both variants measured in this
  // same run, unlike the frozen seed references above).
  for (const auto& scalar : kernel_rows) {
    if (scalar.variant != "scalar") continue;
    for (const auto& vec : kernel_rows) {
      if (vec.name != scalar.name || vec.variant == "scalar") continue;
      jw.begin_object();
      jw.kv("name", scalar.name);
      jw.kv("simd_level", vec.variant);
      jw.kv("scalar_ns_per_round", scalar.ns_per_round);
      jw.kv("ns_per_round", vec.ns_per_round);
      jw.kv("improvement", scalar.ns_per_round / vec.ns_per_round);
      jw.end_object();
    }
  }
  jw.end_array();
  // The engine.* counters/histograms accumulated by every traced/* run —
  // the machine-readable side of docs/OBSERVABILITY.md's overhead table.
  jw.key("metrics");
  clb::obs::append_metrics(jw, traced_metrics);
  jw.end_object();
  out << "\n";
  std::cout << "  wrote BENCH_simulation.json (" << rows.size()
            << " entries)\n";
  for (const auto& ref : kSeedReference) {
    for (const auto& r : rows) {
      if (r.threads != 1 || r.name != ref.name) continue;
      std::cout << "  serial vs seed engine, " << ref.name << ": "
                << clb::fmt_double(ref.ns_per_round / r.ns_per_round, 1)
                << "x faster\n";
    }
  }
  // Tracing overhead vs the matching untraced row, for docs/OBSERVABILITY.md.
  for (const auto& r : rows) {
    if (r.name.rfind("traced/", 0) != 0) continue;
    const std::string base = "flood/" + r.name.substr(7);
    for (const auto& u : rows) {
      if (u.name != base || u.threads != r.threads) continue;
      std::cout << "  tracing overhead, " << base << " x" << r.threads
                << " threads: "
                << clb::fmt_double(
                       (r.ns_per_round / u.ns_per_round - 1.0) * 100.0, 1)
                << "%\n";
    }
  }

  // SIMD kernel gate: on SIMD-capable hardware the vector variant of at
  // least one pack/deliver row must hold kSimdKernelGate over scalar.
  // Full runs only — smoke windows on shared CI runners are too noisy,
  // and scalar-only machines have nothing to compare (their fallback is
  // instead held to the baseline by check_bench_regression.py).
  bool simd_gate_ok = true;
  if (best != clb::simd::Level::kScalar) {
    double best_speedup = 0;
    for (const auto& scalar : kernel_rows) {
      if (scalar.variant != "scalar") continue;
      for (const auto& vec : kernel_rows) {
        if (vec.name != scalar.name || vec.variant == "scalar") continue;
        const double speedup = scalar.ns_per_round / vec.ns_per_round;
        best_speedup = std::max(best_speedup, speedup);
        std::cout << "  simd speedup, " << scalar.name << " ("
                  << vec.variant << "): " << clb::fmt_double(speedup, 2)
                  << "x vs scalar\n";
      }
    }
    const bool smoke = std::getenv("CLB_BENCH_SMOKE") != nullptr;
    if (!smoke && best_speedup < kSimdKernelGate) {
      std::cerr << "FAILED: best SIMD kernel speedup "
                << clb::fmt_double(best_speedup, 2) << "x < "
                << kSimdKernelGate << "x gate\n";
      simd_gate_ok = false;
    }
  }
  return simd_gate_ok;
}

}  // namespace

int main() {
  std::cout << "=== bench_simulation: Theorem 5 end-to-end ===\n";
  clb::Rng rng(99);

  clb::print_heading(std::cout,
                     "linear family, universal exact algorithm (both branches)");
  Table t({"algorithm", "branch", "n", "t", "rounds", "cut", "board bits",
           "budget T*2|cut|*B", "bits<=budget", "decided", "correct"});
  for (std::size_t tp : {2, 3}) {
    const auto p = clb::lb::GadgetParams::for_linear_separation(tp, 1);
    const clb::lb::LinearConstruction c(p, tp);
    clb::congest::NetworkConfig cfg;
    cfg.bits_per_edge = clb::congest::universal_required_bits(
        c.num_nodes(), static_cast<clb::graph::Weight>(p.ell));
    cfg.max_rounds = 500'000;
    for (bool intersecting : {true, false}) {
      const auto inst =
          intersecting
              ? clb::comm::make_uniquely_intersecting(p.k, tp, rng, 0.3)
              : clb::comm::make_pairwise_disjoint(p.k, tp, rng, 0.3);
      clb::comm::Blackboard board(tp);
      const auto rep = clb::sim::run_linear_reduction(
          c, inst, clb::congest::universal_maxis_factory(exact_solver()),
          board, cfg);
      add_row(t, "universal-exact", intersecting ? "YES" : "NO", rep);
    }
  }

  // The fast local algorithm: accounting holds, decision unreliable.
  {
    const std::size_t tp = 3;
    const auto p = clb::lb::GadgetParams::for_linear_separation(tp, 1);
    const clb::lb::LinearConstruction c(p, tp);
    for (bool intersecting : {true, false}) {
      const auto inst =
          intersecting
              ? clb::comm::make_uniquely_intersecting(p.k, tp, rng, 0.3)
              : clb::comm::make_pairwise_disjoint(p.k, tp, rng, 0.3);
      clb::comm::Blackboard board(tp);
      clb::congest::NetworkConfig cfg;
      cfg.max_rounds = 100'000;
      const auto rep = clb::sim::run_linear_reduction(
          c, inst, clb::congest::weighted_greedy_factory(), board, cfg);
      add_row(t, "weighted-greedy", intersecting ? "YES" : "NO", rep);
    }
  }
  t.print(std::cout);

  clb::print_heading(std::cout, "quadratic family, universal exact algorithm");
  Table q({"algorithm", "branch", "n", "t", "rounds", "cut", "board bits",
           "budget T*2|cut|*B", "bits<=budget", "decided", "correct"});
  {
    const std::size_t tp = 2;
    const auto p = clb::lb::GadgetParams::from_l_alpha(3, 1, 4);
    const clb::lb::QuadraticConstruction c(p, tp);
    clb::congest::NetworkConfig cfg;
    cfg.bits_per_edge = clb::congest::universal_required_bits(
        c.num_nodes(), static_cast<clb::graph::Weight>(p.ell));
    cfg.max_rounds = 500'000;
    const auto inst = clb::comm::make_uniquely_intersecting(c.string_length(),
                                                            tp, rng, 0.4);
    clb::comm::Blackboard board(tp);
    const auto rep = clb::sim::run_quadratic_reduction(
        c, inst, clb::congest::universal_maxis_factory(exact_solver()), board,
        cfg);
    add_row(q, "universal-exact", "YES", rep);
  }
  q.print(std::cout);

  clb::print_heading(std::cout,
                     "cut-traffic profile over rounds (universal, t=2, YES)");
  {
    const auto p = clb::lb::GadgetParams::for_linear_separation(2, 1);
    const clb::lb::LinearConstruction c(p, 2);
    clb::congest::NetworkConfig cfg;
    cfg.bits_per_edge = clb::congest::universal_required_bits(
        c.num_nodes(), static_cast<clb::graph::Weight>(p.ell));
    cfg.max_rounds = 500'000;
    const auto inst = clb::comm::make_uniquely_intersecting(p.k, 2, rng, 0.3);
    clb::comm::Blackboard board(2);
    const auto rep = clb::sim::run_linear_reduction(
        c, inst, clb::congest::universal_maxis_factory(exact_solver()), board,
        cfg);
    const auto& series = rep.cut_bits_per_round;
    const std::uint64_t cap =
        static_cast<std::uint64_t>(2 * rep.cut_edges) * rep.bits_per_edge;
    Table prof({"round", "cut bits", "per-round cap 2|cut|B", "utilization"});
    for (std::size_t r : {std::size_t{1}, series.size() / 4,
                          series.size() / 2, 3 * series.size() / 4,
                          series.size() - 1}) {
      if (r >= series.size()) continue;
      prof.row(r, series[r], cap,
               clb::fmt_double(static_cast<double>(series[r]) /
                                   static_cast<double>(cap),
                               3));
    }
    prof.print(std::cout);
    std::cout << "  (every round stays under the per-round cap; the "
                 "Theorem-5 budget is the cap summed over rounds)\n";
  }

  clb::print_heading(std::cout,
                     "implied CC protocol cost vs the CKS lower bound");
  std::cout
      << "  The board bits above ARE a correct protocol's cost for promise\n"
         "  pairwise disjointness, so they must exceed Omega(k / t log t):\n";
  {
    Table ck({"t", "k", "board bits (universal, YES)", "CKS bound k/(t lg t)"});
    for (std::size_t tp : {2, 3}) {
      const auto p = clb::lb::GadgetParams::for_linear_separation(tp, 1);
      const clb::lb::LinearConstruction c(p, tp);
      clb::congest::NetworkConfig cfg;
      cfg.bits_per_edge = clb::congest::universal_required_bits(
          c.num_nodes(), static_cast<clb::graph::Weight>(p.ell));
      cfg.max_rounds = 500'000;
      const auto inst =
          clb::comm::make_uniquely_intersecting(p.k, tp, rng, 0.3);
      clb::comm::Blackboard board(tp);
      const auto rep = clb::sim::run_linear_reduction(
          c, inst, clb::congest::universal_maxis_factory(exact_solver()),
          board, cfg);
      ck.row(tp, p.k, rep.blackboard_bits,
             clb::fmt_double(clb::comm::cks_lower_bound_bits(p.k, tp), 1));
    }
    ck.print(std::cout);
  }

  // Small shapes when CLB_BENCH_SMOKE is set (the CI smoke job); full
  // windows otherwise. The scale section runs first (its rows are RSS
  // measurements, best taken before the throughput section's allocations)
  // and its rows fold into BENCH_simulation.json below.
  const bool smoke = std::getenv("CLB_BENCH_SMOKE") != nullptr;
  const auto [scale_rows, scale_ok] = scale_section(smoke);
  const bool simd_gate_ok =
      engine_throughput_section(/*timed_rounds=*/smoke ? 64 : 512,
                                /*mis_repeats=*/smoke ? 2 : 8, scale_rows);

  if (!scale_ok) {
    std::cerr << "\nFAILED: scaling-curve resident-set gate not met\n";
    return 1;
  }
  if (!simd_gate_ok) {
    std::cerr << "\nFAILED: SIMD kernel speedup gate not met\n";
    return 1;
  }
  std::cout << "\nSimulation experiments completed.\n";
  return 0;
}
