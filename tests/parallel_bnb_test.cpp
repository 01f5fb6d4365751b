// Solver engine (maxis/parallel_bnb.hpp): the determinism contract —
// solution, weight, and search_nodes bit-identical across thread counts,
// with the probe disabled or capped early so the fanout path really
// executes — plus equality of a capped probe's continuation with the
// uncapped serial search, OPT agreement with the seed solver, kernel on/off
// equivalence, budget enforcement, and structural edge cases.

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>

#include "comm/instances.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"
#include "lowerbound/quadratic_family.hpp"
#include "maxis/branch_and_bound.hpp"
#include "maxis/parallel_bnb.hpp"
#include "property_harness.hpp"
#include "support/deadline.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::maxis {
namespace {

graph::Graph random_weighted(Rng& rng, std::size_t n, double p,
                             graph::Weight max_w) {
  graph::Graph g(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    g.set_weight(v, static_cast<graph::Weight>(1 + rng.below(max_w)));
  }
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(p)) g.add_edge(u, v);
    }
  }
  return g;
}

/// A small instantiated paper gadget (the shape family the campaign
/// solves), YES or NO branch.
graph::Graph gadget(bool yes, std::uint64_t trial) {
  const auto params = lb::GadgetParams::from_l_alpha(6, 1, 7);
  const lb::LinearConstruction c(params, 3);
  Rng rng(0x9e3779b97f4a7c15ULL * trial + (yes ? 1 : 0));
  const auto inst = yes ? comm::make_uniquely_intersecting(
                              params.k, c.num_players(), rng, 0.3)
                        : comm::make_pairwise_disjoint(
                              params.k, c.num_players(), rng, 0.4);
  return c.instantiate(inst);
}

/// F_x̄ at ℓ = 6, α = 1, k = 7, t = 4 (n = 448): the claims_quadratic
/// shape, YES at density 0.3 or NO at density 0.4.
graph::Graph quadratic_gadget(bool yes, std::uint64_t seed) {
  const lb::QuadraticConstruction c(lb::GadgetParams::from_l_alpha(6, 1, 7),
                                    4);
  Rng rng(seed);
  const auto inst = yes ? comm::make_uniquely_intersecting(
                              c.string_length(), c.num_players(), rng, 0.3)
                        : comm::make_pairwise_disjoint(
                              c.string_length(), c.num_players(), rng, 0.4);
  return c.instantiate(inst);
}

/// Options that force the fanout: probe off, fanout floor at zero, so the
/// multi-threaded job path runs even on small graphs.
EngineOptions fanout_options(std::size_t threads) {
  EngineOptions opts;
  opts.threads = threads;
  opts.probe_search_nodes = 0;
  opts.fanout_min_nodes = 0;
  return opts;
}

/// Options whose probe stops after a few nodes, so the jobs are the
/// probe's unexplored DFS remainder (the continuation path) even on small
/// graphs.
EngineOptions continuation_options(std::size_t threads) {
  EngineOptions opts = fanout_options(threads);
  opts.probe_search_nodes = 64;
  return opts;
}

/// Options for one uncapped serial search: the probe never stops.
EngineOptions serial_options() {
  EngineOptions opts;
  opts.probe_search_nodes = std::numeric_limits<std::uint64_t>::max();
  opts.max_search_nodes = 0;
  return opts;
}

// ------------------------------------------------------------- determinism --

TEST(SolverEngine, BitIdenticalAcrossThreadCounts) {
  // The pinned contract: same solution nodes, weight, and search_nodes for
  // threads 1/2/8 — with the probe disabled so every component fans out
  // and the work-stealing pool actually races.
  for (const bool yes : {false, true}) {
    for (std::uint64_t trial = 0; trial < 2; ++trial) {
      const graph::Graph g = gadget(yes, trial);
      const EngineResult base = solve_maxis(g, fanout_options(1));
      EXPECT_GT(base.jobs, 0u) << "fanout did not engage";
      for (const std::size_t threads : {2u, 8u}) {
        const EngineResult got = solve_maxis(g, fanout_options(threads));
        EXPECT_EQ(got.solution.nodes, base.solution.nodes)
            << "threads=" << threads;
        EXPECT_EQ(got.solution.weight, base.solution.weight);
        EXPECT_EQ(got.search_nodes, base.search_nodes)
            << "threads=" << threads;
        EXPECT_EQ(got.jobs, base.jobs);
      }
    }
  }
}

TEST(SolverEngine, DefaultOptionsAreThreadInvariantToo) {
  // With the default probe the engine usually solves serially; the
  // observables must still not depend on the thread count.
  const graph::Graph g = gadget(false, 0);
  const EngineResult t1 = solve_maxis(g);
  EngineOptions mt;
  mt.threads = 8;
  const EngineResult t8 = solve_maxis(g, mt);
  EXPECT_EQ(t1.solution.nodes, t8.solution.nodes);
  EXPECT_EQ(t1.search_nodes, t8.search_nodes);
}

TEST(SolverEngine, DeterminismOnRandomGraphs) {
  const testing::Property prop =
      [](std::uint64_t seed, std::size_t size) -> std::optional<std::string> {
    Rng rng(seed);
    const std::size_t n = 1 + rng.below(2 + 3 * size);
    const graph::Graph g =
        random_weighted(rng, n, 0.02 + rng.uniform() * 0.3, 8);
    const EngineResult a = solve_maxis(g, fanout_options(1));
    const EngineResult b = solve_maxis(g, fanout_options(7));
    if (a.solution.nodes != b.solution.nodes ||
        a.search_nodes != b.search_nodes) {
      return "thread-dependent result on n=" + std::to_string(n);
    }
    return std::nullopt;
  };
  const auto failure = testing::check_seeds(prop, 99, 40, 16);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

TEST(SolverEngine, ContinuationBitIdenticalAcrossThreadCounts) {
  // The same contract on the continuation path: the probe stops mid-tree
  // and its remainder fans out.
  std::size_t continued = 0;
  for (const bool yes : {false, true}) {
    for (std::uint64_t trial = 0; trial < 2; ++trial) {
      const graph::Graph g = gadget(yes, trial);
      const EngineResult base = solve_maxis(g, continuation_options(1));
      if (base.jobs > 0) ++continued;
      for (const std::size_t threads : {2u, 8u}) {
        const EngineResult got = solve_maxis(g, continuation_options(threads));
        EXPECT_EQ(got.solution.nodes, base.solution.nodes)
            << "threads=" << threads;
        EXPECT_EQ(got.solution.weight, base.solution.weight);
        EXPECT_EQ(got.search_nodes, base.search_nodes)
            << "threads=" << threads;
        EXPECT_EQ(got.jobs, base.jobs);
      }
    }
  }
  EXPECT_GT(continued, 0u) << "no probe stopped below its cap";
}

TEST(SolverEngine, ContinuationDeterminismOnRandomGraphs) {
  // Thread invariance on the continuation path, and the DFS-first optimum:
  // the continuation returns exactly the uncapped serial search's solution.
  std::size_t continued = 0;
  const testing::Property prop =
      [&](std::uint64_t seed, std::size_t size) -> std::optional<std::string> {
    Rng rng(seed);
    const std::size_t n = 1 + rng.below(2 + 3 * size);
    const graph::Graph g =
        random_weighted(rng, n, 0.02 + rng.uniform() * 0.3, 8);
    const EngineResult a = solve_maxis(g, continuation_options(1));
    const EngineResult b = solve_maxis(g, continuation_options(7));
    if (a.solution.nodes != b.solution.nodes ||
        a.solution.weight != b.solution.weight ||
        a.search_nodes != b.search_nodes || a.jobs != b.jobs) {
      return "thread-dependent result on n=" + std::to_string(n);
    }
    if (a.solution.nodes != solve_maxis(g, serial_options()).solution.nodes) {
      return "continuation differs from the serial search on n=" +
             std::to_string(n);
    }
    if (a.jobs > 0) ++continued;
    return std::nullopt;
  };
  const auto failure = testing::check_seeds(prop, 99, 40, 16);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
  EXPECT_GT(continued, 0u) << "no probe stopped below its cap";
}

TEST(SolverEngine, CappedProbeContinuesInsteadOfRestarting) {
  // On F_x̄ the default probe cap stops many solves mid-tree. The jobs then
  // finish the probe's DFS instead of searching the whole tree again: the
  // same solution as one uncapped serial search, at (nearly) its node count.
  for (const bool yes : {false, true}) {
    const graph::Graph g = quadratic_gadget(yes, yes ? 11 : 1);
    const EngineResult serial = solve_maxis(g, serial_options());
    const EngineResult got = solve_maxis(g);
    EXPECT_GT(got.jobs, 0u) << "probe finished below its cap, yes=" << yes;
    EXPECT_EQ(serial.jobs, 0u);
    EXPECT_EQ(got.solution.nodes, serial.solution.nodes) << "yes=" << yes;
    EXPECT_EQ(got.solution.weight, serial.solution.weight);
    EXPECT_LE(static_cast<double>(got.search_nodes),
              1.02 * static_cast<double>(serial.search_nodes))
        << "yes=" << yes << " serial=" << serial.search_nodes;
  }
}

// --------------------------------------------------------------- exactness --

TEST(SolverEngine, MatchesSeedSolverOnGadgets) {
  for (const bool yes : {false, true}) {
    const graph::Graph g = gadget(yes, 1);
    const Weight seed_opt = solve_branch_and_bound(g).solution.weight;
    EXPECT_EQ(solve_maxis(g).solution.weight, seed_opt);
  }
}

TEST(SolverEngine, MatchesSeedSolverOnRandomGraphs) {
  const testing::Property prop =
      [](std::uint64_t seed, std::size_t size) -> std::optional<std::string> {
    Rng rng(seed ^ 0x5eed);
    const std::size_t n = 1 + rng.below(2 + 3 * size);
    const graph::Graph g =
        random_weighted(rng, n, 0.02 + rng.uniform() * 0.5, 6);
    const Weight seed_opt = solve_branch_and_bound(g).solution.weight;
    const Weight engine_opt = solve_maxis(g).solution.weight;
    if (engine_opt != seed_opt) {
      return "engine " + std::to_string(engine_opt) + " != seed " +
             std::to_string(seed_opt);
    }
    return std::nullopt;
  };
  const auto failure = testing::check_seeds(prop, 1234, 60, 14);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

TEST(SolverEngine, KernelAblationAgrees) {
  Rng rng(7);
  for (int it = 0; it < 30; ++it) {
    const graph::Graph g =
        random_weighted(rng, 2 + rng.below(30), 0.15, 5);
    EngineOptions off;
    off.kernelize = false;
    const EngineResult with = solve_maxis(g);
    const EngineResult without = solve_maxis(g, off);
    EXPECT_EQ(with.solution.weight, without.solution.weight);
    EXPECT_EQ(without.kernel.decisions(), 0u);
    EXPECT_EQ(without.kernel_nodes, g.num_nodes());
  }
}

// -------------------------------------------------------------- edge cases --

TEST(SolverEngine, EmptyAndTrivialGraphs) {
  const EngineResult empty = solve_maxis(graph::Graph(0));
  EXPECT_EQ(empty.solution.weight, 0);
  EXPECT_TRUE(empty.solution.nodes.empty());

  graph::Graph one(1);
  one.set_weight(0, 9);
  EXPECT_EQ(solve_maxis(one).solution.weight, 9);

  // Zero-weight vertices are legal (nonnegative contract).
  graph::Graph zeros(3, /*default_weight=*/0);
  zeros.add_edge(0, 1);
  EXPECT_EQ(solve_maxis(zeros).solution.weight, 0);
}

TEST(SolverEngine, DisconnectedComponentsCompose) {
  // Two triangles and an isolated vertex: OPT is the per-component sum.
  graph::Graph g(7);
  for (graph::NodeId v = 0; v < 7; ++v) {
    g.set_weight(v, static_cast<graph::Weight>(1 + v));
  }
  for (graph::NodeId b : {0u, 3u}) {
    g.add_edge(b, b + 1);
    g.add_edge(b + 1, b + 2);
    g.add_edge(b, b + 2);
  }
  EngineOptions opts;
  opts.kernelize = false;  // keep the triangles (simplicial rule would
                           // solve them outright)
  const EngineResult res = solve_maxis(g, opts);
  EXPECT_EQ(res.components, 3u);
  EXPECT_EQ(res.solution.weight, 3 + 6 + 7);
}

TEST(SolverEngine, WideRookGraphHitsAnalyticOpt) {
  // The k x k rook's graph (cells adjacent iff they share a row or a
  // column) is one component that no kernel rule touches: no vertex is
  // simplicial, dominated or a twin. Its independent sets are partial
  // permutations, so OPT = k. At k = 23 the search runs on 529-node,
  // 9-word rows.
  constexpr graph::NodeId kSide = 23;
  graph::Graph g(kSide * kSide);
  graph::EdgeList edges;
  for (graph::NodeId r = 0; r < kSide; ++r) {
    for (graph::NodeId c = 0; c < kSide; ++c) {
      for (graph::NodeId o = c + 1; o < kSide; ++o) {
        edges.emplace_back(r * kSide + c, r * kSide + o);  // same row
        edges.emplace_back(c * kSide + r, o * kSide + r);  // same column
      }
    }
  }
  g.add_edges(edges);
  const EngineResult res = solve_maxis(g);
  EXPECT_EQ(res.components, 1u);
  EXPECT_EQ(res.kernel_nodes, std::size_t{kSide} * kSide);
  EXPECT_EQ(res.solution.weight, kSide);
}

TEST(SolverEngine, NegativeWeightRejected) {
  graph::Graph g(2);
  g.set_weight(0, -2);
  g.add_edge(0, 1);
  EXPECT_THROW(solve_maxis(g), InvariantError);
}

TEST(SolverEngine, OptionValidation) {
  const graph::Graph g = gadget(false, 0);
  EngineOptions bad;
  bad.threads = 0;
  EXPECT_THROW(solve_maxis(g, bad), InvariantError);
  bad = {};
  bad.fanout = 0;
  EXPECT_THROW(solve_maxis(g, bad), InvariantError);
}

// ------------------------------------------------------------- deadlines --

TEST(SolverEngine, CancelledDeadlineReturnsCertifiedIncumbent) {
  // A solve whose deadline already fired still returns a *verified*
  // independent set (the warm-start incumbent at worst), flagged
  // approximate — cancellation decides when to stop, never what the
  // answer is.
  const graph::Graph g = gadget(false, 0);
  const Weight opt = solve_maxis(g).solution.weight;

  DeadlineToken cancelled;
  cancelled.cancel();
  EngineOptions opts;
  opts.deadline = &cancelled;
  const EngineResult partial = solve_maxis(g, opts);
  EXPECT_TRUE(partial.approximate);
  // The cancelled probe hands over no remainder, so nothing fans out.
  EXPECT_EQ(partial.jobs, 0u);
  EXPECT_LE(partial.solution.weight, opt);
  // Certified: independent on the original graph, weight consistent.
  Weight sum = 0;
  for (std::size_t i = 0; i < partial.solution.nodes.size(); ++i) {
    sum += g.weight(partial.solution.nodes[i]);
    for (std::size_t j = i + 1; j < partial.solution.nodes.size(); ++j) {
      EXPECT_FALSE(
          g.has_edge(partial.solution.nodes[i], partial.solution.nodes[j]));
    }
  }
  EXPECT_EQ(sum, partial.solution.weight);
}

TEST(SolverEngine, GenerousDeadlineDoesNotPerturbResults) {
  // An armed deadline that never fires stays inside the bit-identity
  // contract: same solution, weight, and search_nodes as no deadline.
  const graph::Graph g = gadget(true, 1);
  const EngineResult base = solve_maxis(g, fanout_options(1));
  DeadlineToken generous(std::chrono::minutes(10));
  for (const std::size_t threads : {1u, 8u}) {
    EngineOptions opts = fanout_options(threads);
    opts.deadline = &generous;
    const EngineResult got = solve_maxis(g, opts);
    EXPECT_FALSE(got.approximate);
    EXPECT_EQ(got.solution.nodes, base.solution.nodes);
    EXPECT_EQ(got.solution.weight, base.solution.weight);
    EXPECT_EQ(got.search_nodes, base.search_nodes);
  }
}

TEST(SolverEngine, SearchBudgetEnforced) {
  // A budget below the probe threshold skips the probe and must surface as
  // the job search's throwing exhaustion, same contract as the seed solver.
  const graph::Graph g = gadget(false, 0);
  EngineOptions tiny;
  tiny.max_search_nodes = 4;
  EXPECT_THROW(solve_maxis(g, tiny), InvariantError);
}

}  // namespace
}  // namespace congestlb::maxis
