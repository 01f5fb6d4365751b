// Shared measurement + serialization layer for the upper-bound algorithm
// sweeps (docs/ALGORITHMS.md).
//
// One ApproxBenchRow is the *gap sandwich* at a single (instance,
// algorithm) point:
//
//     alg_weight  <=  OPT  <=  opt_upper
//
// where alg_weight is what the distributed algorithm actually selected (a
// certified feasible solution, so a true lower bound on OPT), opt_exact is
// the branch-and-bound optimum when the instance is small enough to
// certify (-1 otherwise), and opt_upper is the greedy clique-partition
// upper bound (maxis::clique_partition_upper_bound), which is valid at any
// size. Alongside the sandwich each row carries the complexity legs of the
// contract: measured rounds against the published envelope and measured
// bits against the model budget.
//
// The campaign's algorithm checks produce these rows (algorithm_rows in
// campaign/jobs.hpp); bench/bench_approx.cpp times that same call and
// writes them as BENCH_approx.json, whose row schema
// tests/approx_bench_golden_test.cpp pins byte for byte.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace congestlb::campaign {

/// One gap-sandwich sample. Integer-valued where the contract is integer
/// (weights, rounds, bits); ns_per_round is the only timing field and is
/// left 0 by the measurement functions — benches fill it afterwards.
struct ApproxBenchRow {
  std::string name;     ///< instance id, e.g. "gadget/ell=2,alpha=1,t=2"
  std::string variant;  ///< "kkss-1/4", "full-revelation", "luby"
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::size_t eps_num = 0;  ///< 0/0 for blackboard rows (no eps knob)
  std::size_t eps_den = 0;
  std::uint64_t rounds = 0;       ///< measured CONGEST / blackboard rounds
  std::uint64_t round_bound = 0;  ///< published envelope for this variant
  std::uint64_t bits = 0;         ///< measured bits sent / posted
  std::uint64_t bit_budget = 0;   ///< model bit budget (0 = unbounded leg)
  std::int64_t alg_weight = -1;   ///< weight of the algorithm's output set
  std::int64_t opt_exact = -1;    ///< certified optimum, -1 when too large
  std::int64_t opt_upper = -1;    ///< clique-partition upper bound
  bool holds = false;             ///< full contract verdict for this row
  double ns_per_round = 0;        ///< wall ns / round; 0 until measured
};

/// Run the KKSS-style (1+eps)-approximate MaxIS program on `g` at LOCAL
/// bandwidth (single engine thread; cross-thread identity is the contract
/// suite's job) and evaluate the full sandwich at that point.
ApproxBenchRow measure_approx_row(const graph::Graph& g, std::string name,
                                  std::size_t eps_num, std::size_t eps_den,
                                  std::uint64_t seed);

/// Run both blackboard MIS protocols on `g` with `players` players and
/// return one row each ("full-revelation" first, then "luby"). The
/// full-revelation bit leg is *exact* (bits == budget or the row fails);
/// the Luby legs are <= budgets.
std::vector<ApproxBenchRow> measure_blackboard_rows(const graph::Graph& g,
                                                    std::string name,
                                                    std::size_t players,
                                                    std::uint64_t seed);

/// Serialize rows as a BENCH_approx.json document through
/// write_bench_json (dims: variant, threads). The regression checker and
/// the golden test both consume this exact shape.
void write_approx_bench_json(std::ostream& os,
                             const std::vector<ApproxBenchRow>& rows,
                             std::string_view sweep);

/// Render the human-readable gap-sandwich table (the EXPERIMENTS.md form):
/// per row, alg weight <= OPT <= clique UB plus rounds/envelope and
/// bits/budget.
void render_gap_sandwich(std::ostream& os,
                         const std::vector<ApproxBenchRow>& rows);

}  // namespace congestlb::campaign
