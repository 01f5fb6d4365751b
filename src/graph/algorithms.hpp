// Basic graph algorithms: BFS distances, connectivity, diameter.
//
// The paper notes its lower bounds hold "even for constant diameter graphs";
// the diameter routine lets tests assert that property on the gadget
// instances. Connectivity is also a precondition for running CONGEST
// algorithms globally.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace congestlb::graph {

/// Distance (in hops) from `source` to every node; unreachable nodes get
/// kInfiniteDistance.
inline constexpr std::size_t kInfiniteDistance = static_cast<std::size_t>(-1);
std::vector<std::size_t> bfs_distances(const Graph& g, NodeId source);

/// True iff the graph is connected (vacuously true for the empty graph).
bool is_connected(const Graph& g);

/// Connected-component id per node (ids are dense, in discovery order).
std::vector<std::size_t> connected_components(const Graph& g);

/// Exact diameter via n BFS runs. Requires a connected non-empty graph.
std::size_t diameter(const Graph& g);

}  // namespace congestlb::graph
