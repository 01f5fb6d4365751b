// The universal CONGEST algorithm: gather the whole graph, solve locally.
//
// The paper leans on the folklore fact that *any* graph problem is solvable
// in O(n^2) CONGEST rounds (making the quadratic lower bound of Theorem 2
// nearly tight). This program realizes that upper bound for MaxIS: every
// node gossips "node tokens" (id, degree, weight) and "edge tokens" (u, v),
// broadcasting one token per round to all its neighbors in the order it
// learned them; once a node has all n node tokens and all sum(deg)/2 edge
// tokens it outputs its own membership bit in a solution of that graph,
// found by a pluggable exact (or approximate) local solver. CONGEST charges
// only communication, so the nodes of one run share the local work: the
// first node to learn a graph rebuilds and solves it, checks the solution
// is independent and stores it; every node that learns an equal graph
// (same weights, same known-edge bitmap, compared in full) reads its bit
// from it. The solver runs once per distinct learned graph per run. Every
// node still learns the whole graph, and the solver is deterministic on
// that graph, so outputs do not depend on which node solves first or on
// the thread count. Once a node knows the graph, every token it could
// still receive is one it holds, so it stops reading its inbox: from then
// on its work per round is one send. Every neighbor receives the same
// message each round, so this is a CONGEST-Broadcast algorithm, as the
// engine requires: each round's token is stored once, in the sender's one
// out-slot.
//
// It is also the honest end-to-end algorithm for the reduction pipeline
// (sim::ReductionDriver): it decides the gap predicate exactly, so the
// simulated players always answer promise disjointness correctly — at a cut
// cost the Theorem 5 accounting makes visible.
//
// Per-node memory: a bitmap of known edges over the pairs u < v, C(n, 2)/8
// bytes, plus 8 B per token (each token is the 64-bit head word it is sent
// as), n + m tokens once the graph is known, and one cursor: the next
// token to broadcast. A hash set of edge keys at most half full costs 16 B
// or more per known edge, so the bitmap is the smaller whenever
// m >= n^2/256 — every caller in this repository: the lower-bound gadgets
// and G(n, p >= 0.15) at n up to a few hundred. Per run, the memo keeps
// one copy of the weights and the bitmap per distinct learned graph.

#pragma once

#include <functional>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace congestlb::congest {

/// Deterministic local solver: graph -> independent set (node ids). The
/// universal program calls it once per distinct learned graph per run,
/// under a lock shared by that run's programs, possibly on a shard thread.
using LocalMaxIsSolver =
    std::function<std::vector<graph::NodeId>(const graph::Graph&)>;

/// Per-edge bandwidth the token encoding needs for an n-node network with
/// max node weight `max_weight` (1 type bit + 2 id fields + weight field).
std::size_t universal_required_bits(std::size_t n, graph::Weight max_weight);

/// One UniversalMaxIsProgram per node; `solver` must be deterministic. The
/// programs alive together (one run, or runs that overlap) share one memo
/// of checked solutions and call `solver` once per distinct learned graph;
/// a program made after all of them are gone starts a fresh memo, so a new
/// run solves again. The network's bits_per_edge must be at least
/// universal_required_bits(...) — the program throws otherwise.
ProgramFactory universal_maxis_factory(LocalMaxIsSolver solver);

}  // namespace congestlb::congest
