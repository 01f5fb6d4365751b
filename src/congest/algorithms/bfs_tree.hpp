// Distributed BFS layering from a root.
//
// The root announces level 0; every node adopts level = 1 + (first heard
// level), announces once, then goes quiet. O(D) rounds, one O(log n)-bit
// message per edge per direction. Foundation for the convergecast
// aggregation (aggregate.hpp) and a standard sanity workload for the
// simulator. Requires a connected graph (unreached nodes never finish).

#pragma once

#include "congest/network.hpp"

namespace congestlb::congest {

/// Program outputs: every node's output() is its BFS level + 1 (so the
/// root outputs 1); nodes that never hear from the root output 0.
ProgramFactory bfs_level_factory(graph::NodeId root);

}  // namespace congestlb::congest
