// Synthetic traffic-pattern workloads (the classic interconnection-network
// suite: uniform-random, bit-complement, shuffle, transpose, tornado).
//
// Two views of each pattern:
//  - a destination map dest: [n] -> [n] (the permutation/assignment itself);
//  - a workload *graph* — the union of {i, dest(i)} edges plus a connecting
//    ring — used as hostile topologies for the upper-bound algorithms
//    (congest/approx_mis, congest/blackboard_mis): patterns concentrate
//    long-range edges in structured ways random G(n,p) never produces.
//
// Everything is a pure function of (pattern, n, seed): the same workload is
// rebuilt bit-identically on every thread count and every run.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace congestlb::sim {

enum class TrafficPattern : std::uint8_t {
  kUniformRandom = 0,  ///< dest(i) drawn uniformly from [n], per-seed
  kBitComplement,      ///< dest(i) = ~i over ceil(log2 n) bits, mod n
  kShuffle,            ///< dest(i) = rotate-left-1 of i's bits, mod n
  kTranspose,          ///< dest(i) = swap high/low bit halves, mod n
  kTornado,            ///< dest(i) = i + floor(n/2) mod n
};

/// All patterns, in enum order (sweep/table iteration).
inline constexpr TrafficPattern kAllTrafficPatterns[] = {
    TrafficPattern::kUniformRandom, TrafficPattern::kBitComplement,
    TrafficPattern::kShuffle, TrafficPattern::kTranspose,
    TrafficPattern::kTornado,
};

std::string_view to_string(TrafficPattern p);
std::optional<TrafficPattern> traffic_pattern_from_string(std::string_view s);

/// The destination map: element i is dest(i). Requires n >= 1. `seed` only
/// matters for kUniformRandom; the bit patterns are seed-independent.
std::vector<graph::NodeId> traffic_destinations(TrafficPattern p,
                                                std::size_t n,
                                                std::uint64_t seed);

/// The workload graph: nodes 0..n-1 with seed-derived weights in [1, 8],
/// edges {i, dest(i)} for every non-self pair, plus the ring i -- i+1 so the
/// topology is always connected (distributed MIS on a disconnected workload
/// would just test components). Requires n >= 1.
graph::Graph traffic_graph(TrafficPattern p, std::size_t n,
                           std::uint64_t seed);

}  // namespace congestlb::sim
