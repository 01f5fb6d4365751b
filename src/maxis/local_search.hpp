// Local-search improvement for weighted independent sets.
//
// Classic (1,1)/(1,2)-swap local search: starting from any independent set
// it greedily applies three move types until none applies —
//   * add:    a vertex with no IS neighbor joins;
//   * (1,1):  v in I is replaced by a heavier non-member whose only IS
//             neighbor is v;
//   * (1,2):  v in I is replaced by two non-adjacent non-members whose
//             only IS neighbor is v, when their combined weight is larger.
// The result dominates the input and is 2-swap-optimal. The solver engine
// uses it to strengthen its greedy warm start (parallel_bnb.cpp).

#pragma once

#include <cstdint>

#include "maxis/verify.hpp"

namespace congestlb::maxis {

struct LocalSearchResult {
  IsSolution solution;
  std::size_t moves_applied = 0;
};

/// Improve `start` (must be an IS of g) to 2-swap optimality. `max_moves`
/// caps the work (throws if exceeded; the default is far beyond anything a
/// sane instance needs).
LocalSearchResult improve_local_search(const graph::Graph& g,
                                       std::vector<NodeId> start,
                                       std::uint64_t max_moves = 1'000'000);

}  // namespace congestlb::maxis
