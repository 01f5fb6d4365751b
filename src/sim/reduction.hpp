// Theorem 5 executed for real: t players simulate a CONGEST algorithm on a
// lower-bound graph over a shared blackboard.
//
// The driver instantiates a lower-bound construction on a promise instance,
// runs any CONGEST NodeProgram on the resulting network, and — exactly as
// the simulation argument prescribes — posts every message that crosses
// between two players' node sets V^i, V^j to a comm::Blackboard, charged to
// the sending owner. When the algorithm terminates, the players read the
// computed independent set's weight off the gap predicate to answer promise
// pairwise disjointness.
//
// The report checks the facts Theorem 5 rests on:
//   1. accounting: blackboard bits <= rounds * |cut| * bits_per_edge;
//   2. exactness: the bits posted to the blackboard equal the bits the
//      network accounted on the cut edges — delivered traffic, nothing
//      more, nothing less;
//   3. correctness: the gap predicate decides f(xbar) (when the supplied
//      algorithm is exact, e.g. universal_maxis_factory, and the run
//      completed — a run in which some node reported failed() or which hit
//      max_rounds answers nothing).

#pragma once

#include <vector>

#include "comm/blackboard.hpp"
#include "comm/instances.hpp"
#include "congest/network.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/quadratic_family.hpp"

namespace congestlb::sim {

struct ReductionReport {
  std::size_t n = 0;
  std::size_t t = 0;
  std::size_t rounds = 0;
  std::size_t bits_per_edge = 0;
  std::size_t cut_edges = 0;

  /// Bits and entries this run posted for cut messages (posts already on
  /// a reused board are not counted).
  std::uint64_t blackboard_bits = 0;
  std::uint64_t blackboard_entries = 0;
  /// Cut traffic per round (index = round as reported at delivery time);
  /// the raw series behind the Theorem-5 accounting.
  std::vector<std::uint64_t> cut_bits_per_round;
  std::uint64_t total_bits = 0;        ///< all delivered network traffic
  /// rounds * 2 * cut_edges * bits_per_edge (two directed messages per
  /// undirected cut edge per round).
  std::uint64_t theorem5_budget = 0;

  graph::Weight computed_weight = 0;   ///< weight of the algorithm's IS
  graph::Weight yes_weight = 0;        ///< beta
  graph::Weight no_bound = 0;          ///< gamma * beta
  bool decided_disjoint = false;       ///< the players' answer
  bool ground_truth_disjoint = false;  ///< f(xbar)
  bool correct = false;
  bool accounting_ok = false;          ///< blackboard_bits <= budget
  /// Bits posted to the blackboard == bits the network charged to the cut
  /// edges: the invariant that keeps Theorem-5 charging honest.
  bool cut_accounting_exact = false;
  bool algorithm_finished = false;

  /// Full network statistics (net_stats.any_failed: some node gave up).
  congest::RunStats net_stats;
};

/// Simulate `factory`'s program on G_xbar for the linear family. The
/// network bandwidth comes from cfg (0 = auto); cfg.on_message and
/// cfg.owner must be empty (the driver installs its own observer and the
/// players' owner table).
ReductionReport run_linear_reduction(const lb::LinearConstruction& c,
                                     const comm::PromiseInstance& inst,
                                     const congest::ProgramFactory& factory,
                                     comm::Blackboard& board,
                                     congest::NetworkConfig cfg = {});

/// Same for the quadratic family F_xbar.
ReductionReport run_quadratic_reduction(const lb::QuadraticConstruction& c,
                                        const comm::PromiseInstance& inst,
                                        const congest::ProgramFactory& factory,
                                        comm::Blackboard& board,
                                        congest::NetworkConfig cfg = {});

}  // namespace congestlb::sim
