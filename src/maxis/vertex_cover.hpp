// Minimum (weighted) vertex cover.
//
// VC is MaxIS's complement — C is a vertex cover iff V \ C is independent,
// so min-VC weight = total weight - MaxIS weight. The paper's introduction
// uses VC as the second example of the two-party framework's limits ([4]
// showed the framework cannot rule out (3/2)-approximations for MVC);
// bench_baselines measures that ratio on our hard instances.

#pragma once

#include <span>

#include "maxis/verify.hpp"

namespace congestlb::maxis {

struct VcSolution {
  std::vector<NodeId> nodes;  ///< sorted ascending
  Weight weight = 0;
};

/// True iff every edge of g has at least one endpoint in `nodes`.
bool is_vertex_cover(const graph::Graph& g, std::span<const NodeId> nodes);

/// Validate and tally a vertex cover (throws if it is not one).
VcSolution checked_cover(const graph::Graph& g, std::vector<NodeId> nodes);

/// The complement V \ is of an independent set — always a vertex cover.
VcSolution cover_from_independent_set(const graph::Graph& g,
                                      std::span<const NodeId> is);

/// Exact minimum weighted vertex cover via exact MaxIS (branch and bound).
VcSolution solve_vertex_cover_exact(const graph::Graph& g);

}  // namespace congestlb::maxis
