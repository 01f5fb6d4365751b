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
// compares against bench/baselines/ in CI (see docs/PERFORMANCE.md). The
// scaling-curve section writes BENCH_scale.json. The kernel loops under
// the engine (message codec, delivery accounting) are timed in bench_micro.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "comm/lower_bound.hpp"
#include "congest/algorithms/greedy_mis.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/algorithms/weighted_greedy.hpp"
#include "congest/message.hpp"
#include "graph/generators.hpp"
#include "maxis/branch_and_bound.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/reduction.hpp"
#include "support/alloc_hook.hpp"
#include "support/json.hpp"
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

/// One full universal-program reduction as an engine row: ns/round spreads
/// the whole run_linear_reduction call (instantiation, network build,
/// rounds, board posts, local solves) over its rounds.
EngineRow reduction_row(const std::string& name, std::size_t edges,
                        const clb::sim::ReductionReport& rep, double ns,
                        std::uint64_t allocs) {
  EngineRow row;
  row.name = name;
  row.n = rep.n;
  row.edges = edges;
  row.threads = 1;
  row.rounds = rep.rounds;
  row.ns_per_round = ns / static_cast<double>(rep.rounds);
  row.messages_per_s = static_cast<double>(rep.net_stats.messages_sent) * 1e9 / ns;
  row.bits_per_s = static_cast<double>(rep.net_stats.bits_sent) * 1e9 / ns;
  row.allocs_per_round =
      static_cast<double>(allocs) / static_cast<double>(rep.rounds);
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
  // What expanding every block would cost, priced as graph::Csr stores
  // it: one NodeId target per directed slot (2 per undirected edge) plus
  // n + 1 row offsets. This is the basis of EXPERIMENTS.md's scale table.
  row.materialized_edge_bytes =
      static_cast<double>(row.implicit_edges +
                          static_cast<std::uint64_t>(row.explicit_edges)) *
          2.0 * sizeof(clb::graph::NodeId) +
      static_cast<double>(row.n + 1) * sizeof(std::size_t);
  return row;
}

/// Memory gate: above this n, a run whose resident-set growth is not
/// small relative to the materialized CSR cost means the implicit
/// representation leaked an O(implicit edges) allocation somewhere.
constexpr std::size_t kRssGateMinN = 100'000;
constexpr double kRssGateFraction = 0.10;

/// The G_xbar scaling curve: n from 1e4 up to CLB_SCALE_MAX_N (default
/// 1e6; CLB_BENCH_SMOKE caps the default at 1e4). Writes BENCH_scale.json
/// and returns false when the resident-set gate fails.
bool scale_section(bool smoke) {
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

  std::vector<clb::BenchRow> entries;
  for (const auto& r : rows) {
    // The name carries only the target size; the realized n is a dim.
    entries.push_back(
        {r.name,
         {{"variant", r.variant},
          {"n", std::uint64_t{r.n}},
          {"threads", std::uint64_t{r.threads}}},
         {{"t", std::uint64_t{r.t}},
          {"rounds", std::uint64_t{r.rounds}},
          {"explicit_edges", std::uint64_t{r.explicit_edges}},
          {"implicit_edges", r.implicit_edges},
          {"blocks", std::uint64_t{r.blocks}},
          {"build_ms", r.build_ms},
          {"ns_per_round", r.ns_per_round},
          {"messages_per_s", r.messages_per_s},
          {"bits_per_s", r.bits_per_s},
          {"peak_rss_bytes", std::uint64_t{r.peak_rss_bytes}},
          {"rss_delta_bytes", std::uint64_t{r.rss_delta_bytes}},
          {"materialized_edge_bytes", r.materialized_edge_bytes},
          {"rss_vs_materialized", static_cast<double>(r.rss_delta_bytes) /
                                      r.materialized_edge_bytes}}});
  }
  std::ofstream out("BENCH_scale.json");
  clb::write_bench_json(out, "scale_gxbar", entries, [&](clb::JsonWriter& jw) {
    jw.kv("max_n", std::uint64_t{max_n});
  });
  std::cout << "  wrote BENCH_scale.json (" << rows.size() << " entries)\n";
  return ok;
}

/// Runs the engine-throughput suite and writes BENCH_simulation.json,
/// after the rows already timed in `rows`.
void engine_throughput_section(std::size_t timed_rounds,
                               std::size_t mis_repeats,
                               std::vector<EngineRow> rows) {
  clb::print_heading(std::cout,
                     "engine throughput (ns/round; see BENCH_simulation.json)");

  clb::Rng rng(7);
  const auto cycle = clb::graph::cycle_graph(1024);
  const auto gnp = clb::graph::gnp_random_connected(rng, 1024, 0.01);
  const auto params = clb::lb::GadgetParams::for_linear_separation(3, 1);
  const auto gadget = clb::lb::LinearConstruction(params, 3).fixed_graph();

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

  std::vector<clb::BenchRow> entries;
  for (const auto& r : rows) {
    entries.push_back({r.name,
                       {{"threads", std::uint64_t{r.threads}}},
                       {{"n", std::uint64_t{r.n}},
                        {"edges", std::uint64_t{r.edges}},
                        {"rounds", std::uint64_t{r.rounds}},
                        {"ns_per_round", r.ns_per_round},
                        {"messages_per_s", r.messages_per_s},
                        {"bits_per_s", r.bits_per_s},
                        {"allocs_per_round", r.allocs_per_round}}});
  }
  std::ofstream out("BENCH_simulation.json");
  clb::write_bench_json(
      out, "simulation_engine", entries, [&](clb::JsonWriter& jw) {
        jw.kv("alloc_hook", clb::allochook::hook_active());
        jw.kv("trace_compiled_in", clb::obs::trace_compiled_in());
        // The engine.* counters/histograms accumulated by every traced/*
        // run — the machine-readable side of docs/OBSERVABILITY.md's
        // overhead table.
        jw.key("metrics");
        clb::obs::append_metrics(jw, traced_metrics);
      });
  std::cout << "  wrote BENCH_simulation.json (" << rows.size()
            << " entries)\n";
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
}

}  // namespace

int main() {
  std::cout << "=== bench_simulation: Theorem 5 end-to-end ===\n";
  clb::Rng rng(99);

  clb::print_heading(std::cout,
                     "linear family, universal exact algorithm (both branches)");
  Table t({"algorithm", "branch", "n", "t", "rounds", "cut", "board bits",
           "budget T*2|cut|*B", "bits<=budget", "decided", "correct"});
  // The t = 3 YES run is timed as BENCH_simulation.json's
  // reduction/universal-linear-t3 row: the median of kReductionRepeats
  // runs, since one run alone strays by up to ~45% on a quiet machine.
  constexpr std::size_t kReductionRepeats = 5;
  std::vector<EngineRow> reduction_rows;
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
      const auto a0 = clb::allochook::allocation_count();
      const auto t0 = std::chrono::steady_clock::now();
      const auto factory =
          clb::congest::universal_maxis_factory(exact_solver());
      const auto rep =
          clb::sim::run_linear_reduction(c, inst, factory, board, cfg);
      const double ns = elapsed_ns(t0, std::chrono::steady_clock::now());
      const auto allocs = clb::allochook::allocation_count() - a0;
      add_row(t, "universal-exact", intersecting ? "YES" : "NO", rep);
      if (tp == 3 && intersecting) {
        std::vector<double> runs_ns = {ns};
        while (runs_ns.size() < kReductionRepeats) {
          clb::comm::Blackboard again(tp);
          const auto r0 = std::chrono::steady_clock::now();
          clb::sim::run_linear_reduction(c, inst, factory, again, cfg);
          runs_ns.push_back(elapsed_ns(r0, std::chrono::steady_clock::now()));
        }
        std::sort(runs_ns.begin(), runs_ns.end());
        reduction_rows.push_back(reduction_row(
            "reduction/universal-linear-t3", c.instantiate(inst).num_edges(),
            rep, runs_ns[kReductionRepeats / 2], allocs));
      }
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
  // windows otherwise. The scale section runs first: its rows are RSS
  // measurements, best taken before the throughput section's allocations.
  const bool smoke = std::getenv("CLB_BENCH_SMOKE") != nullptr;
  const bool scale_ok = scale_section(smoke);
  engine_throughput_section(/*timed_rounds=*/smoke ? 64 : 512,
                            /*mis_repeats=*/smoke ? 2 : 8,
                            std::move(reduction_rows));

  if (!scale_ok) {
    std::cerr << "\nFAILED: scaling-curve resident-set gate not met\n";
    return 1;
  }
  std::cout << "\nSimulation experiments completed.\n";
  return 0;
}
