// Reusable approximation-contract harness for the upper-bound algorithm
// zoo (congest/approx_mis.hpp, congest/blackboard_mis.hpp).
//
// A *contract* bundles everything an approximation algorithm promises into
// one checkable predicate over a single sample point (algorithm, workload
// graph, seed, thread count):
//
//   1. output validity   — the selected set is independent; for MIS
//                          protocols additionally maximal;
//   2. approximation     — on instances small enough for the exact solver
//                          to certify an optimum, the algorithm's weight w
//                          satisfies w * (den + num) >= OPT * den (i.e.
//                          w >= OPT / (1 + eps), checked in exact integer
//                          arithmetic); on larger instances the output
//                          weight must respect the greedy clique-partition
//                          upper bound (maxis::clique_partition_upper_bound);
//   3. complexity        — round counts stay inside the published envelope
//                          (approx_mis_round_bound; 1 blackboard round for
//                          full revelation; 2n for blackboard Luby) and bit
//                          counts inside the model budget;
//   4. determinism       — outputs and RunStats are bit-identical across
//                          thread counts (the engine's core promise).
//
// Checks return std::nullopt on success and a message on violation, so
// they plug directly into the property harness (property_harness.hpp) and
// inherit its seed-replay shrinking: a failing (seed, size) pair printed by
// check_seeds reproduces the exact sample.
//
// This header is test infrastructure, deliberately header-only: gtest files
// and fuzz drivers include it without a library target.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "comm/blackboard.hpp"
#include "congest/approx_mis.hpp"
#include "congest/blackboard_mis.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "maxis/brute_force.hpp"
#include "maxis/branch_and_bound.hpp"
#include "maxis/verify.hpp"
#include "property_harness.hpp"
#include "support/hash.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace congestlb::testing {

/// One contract evaluation point. Thread counts cover the serial engine,
/// the smallest parallel engine, and an oversubscribed one.
struct ApproxContractOptions {
  std::size_t eps_num = 1;
  std::size_t eps_den = 4;
  std::vector<std::size_t> thread_counts = {1, 2, 8};
  /// Largest n the harness certifies with the exact solver; above it the
  /// clique-partition upper bound is the only oracle.
  std::size_t solvable_limit = 24;
};

namespace detail {

inline std::string describe_graph(const graph::Graph& g) {
  return std::to_string(g.num_nodes()) + " nodes / " +
         std::to_string(g.num_edges()) + " edges";
}

inline congest::LocalMaxIsSolver contract_ball_solver() {
  return [](const graph::Graph& g) { return maxis::solve_exact(g).nodes; };
}

}  // namespace detail

/// Exact-or-bounded optimum oracle used by the ratio leg of the contract.
struct OptimumEstimate {
  graph::Weight value = 0;
  bool certified = false;  ///< true: exact OPT; false: upper bound only
};

inline OptimumEstimate estimate_optimum(const graph::Graph& g,
                                        std::size_t solvable_limit) {
  if (g.num_nodes() <= solvable_limit &&
      g.num_nodes() <= maxis::kBruteForceLimit) {
    return {maxis::solve_exact(g).weight, true};
  }
  return {maxis::clique_partition_upper_bound(g), false};
}

/// Full contract for the KKSS-style (1+eps)-approximate MaxIS program on
/// `g` at LOCAL bandwidth. `seed` drives the network.
inline std::optional<std::string> check_approx_mis_contract(
    const graph::Graph& g, std::uint64_t seed,
    const ApproxContractOptions& opts = {}) {
  graph::Weight max_w = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    max_w = std::max(max_w, g.weight(v));
  }
  congest::ApproxMisConfig cfg;
  cfg.eps_num = opts.eps_num;
  cfg.eps_den = opts.eps_den;

  congest::NetworkConfig ncfg;
  ncfg.seed = seed;
  ncfg.bits_per_edge = congest::approx_mis_local_bits(g.num_nodes(), max_w);

  std::optional<congest::RunStats> base_stats;
  std::optional<std::vector<std::int64_t>> base_outputs;
  for (const std::size_t threads : opts.thread_counts) {
    ncfg.num_threads = threads;
    congest::Network net(
        g, congest::approx_mis_factory(detail::contract_ball_solver(), cfg),
        ncfg);
    const auto stats = net.run();
    const auto outputs = net.outputs();

    // (4) determinism: every thread count reproduces the first run bit for
    // bit — outputs and the full RunStats.
    if (!base_stats.has_value()) {
      base_stats = stats;
      base_outputs = outputs;
    } else if (stats != *base_stats || outputs != *base_outputs) {
      return "approx-mis: thread count " + std::to_string(threads) +
             " diverged from thread count " +
             std::to_string(opts.thread_counts.front()) + " on " +
             detail::describe_graph(g);
    }
    if (threads != opts.thread_counts.front()) continue;

    if (!stats.all_finished || stats.any_failed) {
      return "approx-mis: run did not converge (" +
             std::to_string(stats.rounds) + " rounds, " +
             detail::describe_graph(g) + ")";
    }

    // (1) validity.
    const auto members = net.selected_nodes();
    if (!g.is_independent_set(members)) {
      return "approx-mis: output is not independent on " +
             detail::describe_graph(g);
    }

    // (3) complexity envelope.
    const std::size_t bound = congest::approx_mis_round_bound(
        g.num_nodes(), g.total_weight(), opts.eps_num, opts.eps_den,
        ncfg.bits_per_edge);
    if (stats.rounds > bound) {
      return "approx-mis: " + std::to_string(stats.rounds) +
             " rounds exceeds envelope " + std::to_string(bound);
    }

    // (2) approximation ratio, exact integer arithmetic.
    const graph::Weight alg_w = g.weight_of(members);
    const auto opt = estimate_optimum(g, opts.solvable_limit);
    if (opt.certified) {
      const auto lhs = static_cast<std::uint64_t>(alg_w) *
                       (opts.eps_den + opts.eps_num);
      const auto rhs =
          static_cast<std::uint64_t>(opt.value) * opts.eps_den;
      if (lhs < rhs) {
        std::ostringstream os;
        os << "approx-mis: ratio violated: w=" << alg_w
           << " OPT=" << opt.value << " eps=" << opts.eps_num << "/"
           << opts.eps_den << " on " << detail::describe_graph(g);
        return os.str();
      }
    }
    if (alg_w > opt.value && !opt.certified) {
      return "approx-mis: output exceeds the clique-partition upper bound";
    }
  }
  return std::nullopt;
}

/// Contract for the blackboard MIS protocols: validity (maximal +
/// independent, re-verified here, not just inside the protocol), exact bit
/// accounting against the published budgets, round counts, and determinism
/// across player counts for the shared-seed Luby variant.
inline std::optional<std::string> check_blackboard_contract(
    const graph::Graph& g, std::uint64_t seed, std::size_t players) {
  const std::size_t n = g.num_nodes();
  const std::size_t id_bits = static_cast<std::size_t>(
      std::max(1, ceil_log2(std::max<std::size_t>(2, n))));

  // The board itself requires >= 2 registered players; a protocol may
  // still involve only one of them.
  const std::size_t board_players = std::max<std::size_t>(2, players);
  comm::Blackboard board_full(board_players);
  const auto full = congest::full_revelation_mis(g, players, board_full);
  if (!g.is_independent_set(full.mis)) {
    return "blackboard full-revelation: output not independent";
  }
  if (full.blackboard_rounds != 1) {
    return "blackboard full-revelation: expected exactly 1 round";
  }
  const std::uint64_t full_budget =
      static_cast<std::uint64_t>(g.num_edges()) * 2 * id_bits;
  if (full.bits_posted != full_budget) {
    return "blackboard full-revelation: posted " +
           std::to_string(full.bits_posted) + " bits, budget is exactly " +
           std::to_string(full_budget);
  }

  comm::Blackboard board_luby(board_players);
  const auto luby = congest::luby_blackboard_mis(g, players, board_luby, seed);
  if (!g.is_independent_set(luby.mis)) {
    return "blackboard luby: output not independent";
  }
  // Every vertex is posted at most twice (winner, covered) and each phase
  // costs two board rounds while deciding at least one vertex.
  if (luby.bits_posted > static_cast<std::uint64_t>(2 * n) * id_bits) {
    return "blackboard luby: bits " + std::to_string(luby.bits_posted) +
           " exceed the 2 n log n budget";
  }
  if (luby.blackboard_rounds > 2 * n) {
    return "blackboard luby: rounds exceed 2n";
  }
  // Determinism in the player count: the protocol's transcript partitions
  // differently but the MIS (a pure function of seed and graph) must not.
  comm::Blackboard board_one(2);
  const auto solo = congest::luby_blackboard_mis(g, 1, board_one, seed);
  if (solo.mis != luby.mis) {
    return "blackboard luby: MIS depends on the player count";
  }
  return std::nullopt;
}

// ----------------------------------------------------- hostile topologies --
// Structure that random G(n, p) rarely produces, with node weights drawn
// from [1, 8]. Each graph is a pure function of (shape, n, rng state).

enum class HostileShape : std::uint8_t {
  kPathWithChords,  ///< G(n, 2/n) over a path backbone
  kBipartite,       ///< random bipartite, halves n/2 and n - n/2, p = 1/2
  kStar,            ///< one cut vertex
  kBridgedCliques,  ///< two n/2-cliques joined by one edge: carve elections
                    ///< meet at the bottleneck
  kCycle,           ///< a ring: no endpoint breaks the symmetry
};

/// gtest prints a shape parameter by name, so ctest lists each case as
/// ".../PathWithChords" and so on.
inline void PrintTo(HostileShape shape, std::ostream* os) {
  static constexpr const char* kNames[] = {"PathWithChords", "Bipartite",
                                           "Star", "BridgedCliques", "Cycle"};
  *os << kNames[static_cast<std::size_t>(shape)];
}

inline graph::Graph hostile_graph(HostileShape shape, std::size_t n,
                                  Rng& rng) {
  graph::Graph g;
  switch (shape) {
    case HostileShape::kPathWithChords:
      return graph::gnp_random_connected(
          rng, n, 2.0 / static_cast<double>(n), /*max_weight=*/8);
    case HostileShape::kBipartite:
      g = graph::random_bipartite(rng, n / 2, n - n / 2, 0.5);
      break;
    case HostileShape::kStar:
      g = graph::star_graph(n);
      break;
    case HostileShape::kBridgedCliques: {
      const std::size_t half = n / 2;
      graph::EdgeList edges;
      for (graph::NodeId u = 0; u < half; ++u) {
        for (graph::NodeId v = u + 1; v < half; ++v) {
          edges.emplace_back(u, v);
          edges.emplace_back(half + u, half + v);
        }
      }
      edges.emplace_back(half - 1, half);  // the bridge
      g = graph::Graph(2 * half);
      g.add_edges(edges);
      break;
    }
    case HostileShape::kCycle:
      g = graph::cycle_graph(n);
      break;
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    g.set_weight(v, static_cast<graph::Weight>(1 + rng.below(8)));
  }
  return g;
}

// --------------------------------------------------------- property forms --
// Pre-packaged Property lambdas: instance = random connected topology from
// (seed, size) via the shared generators, so failures shrink by seed replay.

inline Property approx_mis_contract_property(ApproxContractOptions opts) {
  return [opts](std::uint64_t seed,
                std::size_t size) -> std::optional<std::string> {
    Rng rng(hash_mix(seed, 0xac01ULL));
    auto g = random_topology(rng, size);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      g.set_weight(v, static_cast<graph::Weight>(1 + rng.below(9)));
    }
    return check_approx_mis_contract(g, seed, opts);
  };
}

inline Property blackboard_contract_property() {
  return [](std::uint64_t seed,
            std::size_t size) -> std::optional<std::string> {
    Rng rng(hash_mix(seed, 0xbb02ULL));
    const auto g = random_topology(rng, size);
    const std::size_t players = 1 + rng.below(1 + std::min<std::size_t>(
                                                      g.num_nodes(), 6));
    return check_blackboard_contract(g, seed, players);
  };
}

}  // namespace congestlb::testing
