// A small property-based testing harness, seed-driven end to end.
//
// Every generated instance is a pure function of (seed, size): the
// generators below consume only an Rng forked from the seed, and `size`
// caps the structural dimensions (nodes, rounds). That
// purity buys the classic QuickCheck loop without storing instances:
//
//   - check_seeds runs `instances` independent seeds at full size and
//     reports the first failure;
//   - shrinking is seed replay: the failing seed is re-run at sizes
//     1, 2, ..., and the smallest size that still fails is reported. No
//     shrink tree, no instance mutation — the repro is the two numbers
//     (seed, size) printed in the failure message, pluggable straight back
//     into the property.
//
// Properties return std::nullopt on success and a human-readable message on
// failure. Throwing (e.g. a CLB_EXPECT trip) counts as a failure with the
// exception text as the message, so invariant violations shrink too.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace congestlb::testing {

/// A property checked at one (seed, size) point. Success = std::nullopt.
using Property =
    std::function<std::optional<std::string>(std::uint64_t seed,
                                             std::size_t size)>;

/// The minimal failing point of a property, found by seed replay.
struct PropertyFailure {
  std::uint64_t seed = 0;
  std::size_t size = 0;
  std::string message;

  std::string describe() const {
    return "property failed at seed=" + std::to_string(seed) +
           " size=" + std::to_string(size) + ": " + message;
  }
};

/// Evaluate the property, folding exceptions into failure messages.
inline std::optional<std::string> eval_property(const Property& prop,
                                                std::uint64_t seed,
                                                std::size_t size) {
  try {
    return prop(seed, size);
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

/// Run `instances` seeds (base_seed, base_seed+1, ...) at max_size. On the
/// first failure, shrink by replaying the same seed at ascending sizes and
/// return the smallest size that still fails (with its message). Returns
/// std::nullopt when every instance passes.
inline std::optional<PropertyFailure> check_seeds(const Property& prop,
                                                  std::uint64_t base_seed,
                                                  std::size_t instances,
                                                  std::size_t max_size) {
  for (std::size_t i = 0; i < instances; ++i) {
    const std::uint64_t seed = base_seed + i;
    auto failure = eval_property(prop, seed, max_size);
    if (!failure.has_value()) continue;
    PropertyFailure best{seed, max_size, *failure};
    for (std::size_t size = 1; size < max_size; ++size) {
      if (auto smaller = eval_property(prop, seed, size)) {
        best = {seed, size, *smaller};
        break;
      }
    }
    return best;
  }
  return std::nullopt;
}

// ------------------------------------------------------------- generators --
// All generators take the Rng by reference and draw a bounded number of
// values, so one forked Rng per instance makes the whole instance a pure
// function of (seed, size).

/// A connected random graph with 2..(2 + size) nodes.
inline graph::Graph random_topology(Rng& rng, std::size_t size) {
  const std::size_t n = 2 + rng.below(size + 1);
  return graph::gnp_random_connected(rng, n, 0.1 + rng.uniform() * 0.4);
}

/// Shape of the flood workload the property runs on the topology.
struct ProgramPlan {
  std::size_t flood_rounds = 1;  ///< rounds each node keeps sending
  std::size_t payload_bits = 16;
};

inline ProgramPlan random_program_plan(Rng& rng, std::size_t size) {
  ProgramPlan plan;
  plan.flood_rounds = 1 + rng.below(1 + size / 2);
  plan.payload_bits = 8 + 8 * rng.below(3);
  return plan;
}

}  // namespace congestlb::testing
