#include "sim/traffic.hpp"

#include "support/expect.hpp"
#include "support/hash.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace congestlb::sim {

namespace {

using graph::NodeId;

std::size_t pattern_bits(std::size_t n) {
  return static_cast<std::size_t>(
      std::max(1, ceil_log2(std::max<std::size_t>(2, n))));
}

}  // namespace

std::string_view to_string(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kUniformRandom:
      return "uniform-random";
    case TrafficPattern::kBitComplement:
      return "bit-complement";
    case TrafficPattern::kShuffle:
      return "shuffle";
    case TrafficPattern::kTranspose:
      return "transpose";
    case TrafficPattern::kTornado:
      return "tornado";
  }
  return "?";
}

std::optional<TrafficPattern> traffic_pattern_from_string(
    std::string_view s) {
  for (TrafficPattern p : kAllTrafficPatterns) {
    if (to_string(p) == s) return p;
  }
  return std::nullopt;
}

std::vector<NodeId> traffic_destinations(TrafficPattern p, std::size_t n,
                                         std::uint64_t seed) {
  CLB_EXPECT(n >= 1, "traffic: n must be >= 1");
  std::vector<NodeId> dest(n);
  const std::size_t b = pattern_bits(n);
  // Transpose swaps bit halves, so it works over an even bit width.
  const std::size_t be = b + (b % 2);
  const std::uint64_t mask = (b >= 64) ? ~0ULL : ((1ULL << b) - 1);
  const std::uint64_t emask = (be >= 64) ? ~0ULL : ((1ULL << be) - 1);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t d = 0;
    switch (p) {
      case TrafficPattern::kUniformRandom: {
        Rng rng(hash_mix(seed, 0x7261ffULL, i));
        d = rng.below(n);
        break;
      }
      case TrafficPattern::kBitComplement:
        d = (~static_cast<std::uint64_t>(i)) & mask;
        break;
      case TrafficPattern::kShuffle:
        d = ((static_cast<std::uint64_t>(i) << 1) |
             (static_cast<std::uint64_t>(i) >> (b - 1))) &
            mask;
        break;
      case TrafficPattern::kTranspose: {
        const std::size_t half = be / 2;
        const std::uint64_t lo = i & ((1ULL << half) - 1);
        const std::uint64_t hi = static_cast<std::uint64_t>(i) >> half;
        d = ((lo << half) | hi) & emask;
        break;
      }
      case TrafficPattern::kTornado:
        d = static_cast<std::uint64_t>(i) + n / 2;
        break;
    }
    dest[i] = static_cast<NodeId>(d % n);
  }
  return dest;
}

graph::Graph traffic_graph(TrafficPattern p, std::size_t n,
                           std::uint64_t seed) {
  CLB_EXPECT(n >= 1, "traffic: n must be >= 1");
  graph::Graph g(n);
  for (NodeId v = 0; v < n; ++v) {
    g.set_weight(v, static_cast<graph::Weight>(
                        1 + (hash_mix(seed, 0x77ULL, v) % 8)));
  }
  const auto dest = traffic_destinations(p, n, seed);
  graph::EdgeList edges;
  for (NodeId i = 0; i < n; ++i) {
    if (dest[i] != i) edges.emplace_back(i, dest[i]);
  }
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  g.add_edges(edges);  // repeated pairs collapse, as the graph is simple
  return g;
}

}  // namespace congestlb::sim
