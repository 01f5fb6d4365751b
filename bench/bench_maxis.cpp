// Experiment MAXIS: the exact-solver engine (kernelize + decompose +
// warm-start + parallel branch and bound, maxis/parallel_bnb.hpp) against
// the seed single-tree branch and bound, cold-solved on the paper's gadget
// instances.
//
// Per shape the bench replays the campaign's claim-check solve set: the
// linear construction instantiated on both branches (uniquely-intersecting
// YES and pairwise-disjoint NO promise instances) over several rng trials,
// exactly as campaign::solve_branch does. Every solve is timed cold
// through the seed solver, the engine at threads=1, and the engine at
// threads=4; the solvers must agree on OPT and the engine must return
// bit-identical (solution, search_nodes) across thread counts. Output: a
// console table plus BENCH_maxis.json with per-shape totals, search-node
// counts, kernel rule hits, and per-solve speedups.
//
// Gate: in the full run (no CLB_BENCH_SMOKE) the *median* per-solve
// speedup over a shape's claim-check set must reach kSpeedupGate (2.5x) on
// every shape marked `gate` — the largest stress shapes, where search and
// bound work dominate and the engine's advantages (arena search, two-tier
// bound, warm-start certificates on YES instances) compound — or the
// bench exits nonzero. The ratio moves with word-loop speed, because the
// seed searches one tree over full-width rows (~158 words at ell20) and
// the engine searches kernelized components: 2.5x was set when AVX-512
// kernels sped the seed up; with the plain loops the medians read
// ~5.4-6.4x (docs/SOLVER.md). The ratio mostly tracks how fast the seed
// solver runs, so the full run's engine/* rows are also held to absolute
// times in the checked-in baseline (nightly solver-bench job). The word
// loops themselves are timed in bench_micro (BM_Words*).
// The median is the gate statistic because per-solve
// ratios split into a NO band and a much faster YES band; it is robust to
// scheduler noise on shared runners where a min or mean is not. Shapes at
// and below the EXPERIMENTS.md solved grid (n <= ~5000) are reported
// ungated: there a cold solve is about a millisecond and fixed costs bound
// any solver's ratio near 1. The smoke run (CI) uses small shapes and
// checks OPT agreement plus determinism but not the speedup; the
// regression guard there is scripts/check_bench_regression.py against
// bench/baselines/BENCH_maxis_baseline.json.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "comm/instances.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"
#include "maxis/branch_and_bound.hpp"
#include "maxis/parallel_bnb.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace clb = congestlb;

namespace {

constexpr double kSpeedupGate = 2.5;

struct Shape {
  std::size_t ell, alpha, t, k;
  bool gate;  ///< full-run median-speedup gate applies
  std::string name() const {
    return "ell" + std::to_string(ell) + "-a" + std::to_string(alpha) + "-t" +
           std::to_string(t) + "-k" + std::to_string(k);
  }
};

// Smoke: the small C12 grid points CI can afford. Full: the EXPERIMENTS.md
// solved-grid tail (reported) plus the ell = t diagonal at code capacity
// k = ell + 1 — the shape family the L2 mapping sends eps = 1/8 to — as
// the gated stress sizes.
const std::vector<Shape> kSmokeShapes = {
    {4, 1, 2, 5, false},
    {6, 1, 2, 7, false},
    {4, 2, 2, 16, false},
};
const std::vector<Shape> kFullShapes = {
    {8, 1, 5, 9, false},
    {10, 1, 6, 11, false},
    {16, 1, 16, 17, false},
    {18, 1, 18, 19, true},
    {20, 1, 20, 21, true},
};

struct Row {
  std::string shape;
  std::size_t n = 0;
  std::size_t edges = 0;
  std::size_t solves = 0;
  double seed_ns = 0;       ///< total over the claim-check set
  double engine_ns = 0;     ///< total, threads = 1
  double engine_mt_ns = 0;  ///< total, threads = 4
  std::uint64_t seed_search_nodes = 0;
  std::uint64_t engine_search_nodes = 0;
  std::size_t kernel_nodes = 0;
  std::uint64_t kernel_decided = 0;
  std::vector<double> speedups;  ///< per solve, seed / engine(threads=1)
  double median_speedup = 0;
  bool gate = false;
};

double time_ns(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("CLB_BENCH_SMOKE") != nullptr;
  const std::vector<Shape>& shapes = smoke ? kSmokeShapes : kFullShapes;
  const std::size_t trials = smoke ? 1 : 3;

  std::cout << "MAXIS solver engine vs seed branch-and-bound ("
            << (smoke ? "smoke" : "full")
            << " shapes; claim-check solve set: YES + NO branches x "
            << trials << " trials, cold solves)\n\n";

  clb::Table tbl({"shape", "n", "solves", "seed ms", "engine ms", "t4 ms",
                  "median speedup", "seed nodes", "engine nodes"});
  std::vector<Row> rows;
  bool opt_ok = true;
  bool det_ok = true;

  for (const Shape& s : shapes) {
    const auto params =
        clb::lb::GadgetParams::from_l_alpha(s.ell, s.alpha, s.k);
    const clb::lb::LinearConstruction c(params, s.t);

    Row row;
    row.shape = s.name();
    row.gate = s.gate;

    for (int yes = 0; yes < 2; ++yes) {
      for (std::uint64_t trial = 0; trial < trials; ++trial) {
        clb::Rng rng(0x9e3779b97f4a7c15ULL * trial + (yes != 0 ? 1 : 0));
        const auto inst =
            yes != 0 ? clb::comm::make_uniquely_intersecting(
                           params.k, c.num_players(), rng, 0.3)
                     : clb::comm::make_pairwise_disjoint(
                           params.k, c.num_players(), rng, 0.4);
        const clb::graph::Graph g = c.instantiate(inst);
        row.n = g.num_nodes();
        row.edges = g.num_edges();

        clb::maxis::BnBResult seed_res;
        const double seed_ns = time_ns(
            [&] { seed_res = clb::maxis::solve_branch_and_bound(g); });

        clb::maxis::EngineResult eng;
        const double eng_ns =
            time_ns([&] { eng = clb::maxis::solve_maxis(g); });

        clb::maxis::EngineOptions mt;
        mt.threads = 4;
        clb::maxis::EngineResult eng_mt;
        row.engine_mt_ns +=
            time_ns([&] { eng_mt = clb::maxis::solve_maxis(g, mt); });

        row.solves += 1;
        row.seed_ns += seed_ns;
        row.engine_ns += eng_ns;
        row.seed_search_nodes += seed_res.search_nodes;
        row.engine_search_nodes += eng.search_nodes;
        row.kernel_nodes = eng.kernel_nodes;
        row.kernel_decided = eng.kernel.decisions();
        row.speedups.push_back(seed_ns / eng_ns);

        if (eng.solution.weight != seed_res.solution.weight) {
          std::cerr << "OPT MISMATCH on " << row.shape
                    << (yes != 0 ? " YES" : " NO") << " trial " << trial
                    << ": seed=" << seed_res.solution.weight
                    << " engine=" << eng.solution.weight << "\n";
          opt_ok = false;
        }
        if (eng_mt.solution.weight != eng.solution.weight ||
            eng_mt.solution.nodes != eng.solution.nodes ||
            eng_mt.search_nodes != eng.search_nodes) {
          std::cerr << "DETERMINISM MISMATCH on " << row.shape
                    << (yes != 0 ? " YES" : " NO") << " trial " << trial
                    << ": threads=4 diverges from threads=1\n";
          det_ok = false;
        }
      }
    }

    row.median_speedup = median(row.speedups);
    tbl.row(row.shape, row.n, row.solves,
            clb::fmt_double(row.seed_ns / 1e6),
            clb::fmt_double(row.engine_ns / 1e6),
            clb::fmt_double(row.engine_mt_ns / 1e6),
            clb::fmt_double(row.median_speedup), row.seed_search_nodes,
            row.engine_search_nodes);
    rows.push_back(row);
  }
  tbl.print(std::cout);

  // ---- BENCH_maxis.json -------------------------------------------------
  double min_gate_speedup = std::numeric_limits<double>::infinity();
  bool any_gate = false;
  for (const Row& r : rows) {
    if (r.gate) {
      any_gate = true;
      min_gate_speedup = std::min(min_gate_speedup, r.median_speedup);
    }
  }
  {
    std::vector<clb::BenchRow> entries;
    for (const Row& r : rows) {
      const double solves = static_cast<double>(r.solves);
      auto add = [&](std::string name, std::uint64_t threads,
                     clb::BenchRow::Fields metrics) {
        metrics.insert(metrics.begin(), {{"n", std::uint64_t{r.n}},
                                         {"edges", std::uint64_t{r.edges}},
                                         {"solves", std::uint64_t{r.solves}}});
        entries.push_back(
            {std::move(name), {{"threads", threads}}, std::move(metrics)});
      };
      add("seed-bnb/" + r.shape, 1,
          {{"ns_per_solve", r.seed_ns / solves},
           {"search_nodes", r.seed_search_nodes}});
      add("engine/" + r.shape, 1,
          {{"ns_per_solve", r.engine_ns / solves},
           {"search_nodes", r.engine_search_nodes},
           {"kernel_nodes", std::uint64_t{r.kernel_nodes}},
           {"kernel_decided", r.kernel_decided},
           {"median_speedup_vs_seed", r.median_speedup},
           {"gate", r.gate}});
      add("engine/" + r.shape, 4, {{"ns_per_solve", r.engine_mt_ns / solves}});
    }
    std::ofstream out("BENCH_maxis.json");
    clb::write_bench_json(
        out, "maxis_solver_engine", entries, [&](clb::JsonWriter& jw) {
          jw.kv("solver_version", clb::maxis::kSolverVersion);
          jw.kv("smoke", smoke);
          jw.key("gate");
          jw.begin_object();
          jw.kv("factor", kSpeedupGate);
          jw.kv("statistic", "median_per_solve_speedup");
          jw.kv("applies", any_gate && !smoke);
          if (any_gate) jw.kv("min_median_speedup", min_gate_speedup);
          jw.end_object();
        });
  }
  std::cout << "\n  wrote BENCH_maxis.json (" << rows.size()
            << " shapes)\n";

  if (!opt_ok) {
    std::cerr << "\nFAILED: engine and seed solver disagree on OPT\n";
    return 1;
  }
  if (!det_ok) {
    std::cerr << "\nFAILED: engine output depends on thread count\n";
    return 1;
  }
  if (!smoke && any_gate && min_gate_speedup < kSpeedupGate) {
    std::cerr << "\nFAILED: min gated median speedup " << min_gate_speedup
              << " < " << kSpeedupGate << "x\n";
    return 1;
  }
  std::cout << (smoke ? "\nsmoke run: OPT agreement and determinism "
                        "checked, speedup gate skipped (small shapes)\n"
                      : "\nspeedup gate passed\n");
  return 0;
}
