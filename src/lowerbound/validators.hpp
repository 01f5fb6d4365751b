// Structured invariant validators for the lower-bound constructions.
//
// The gap arguments of Sections 4-5 stand on Properties 1-3 of the base
// gadget and on the instantiation rules for G_xbar / F_xbar (weights follow
// the strings in the linear family; pair edges follow the strings in the
// quadratic family). The construction code checks its *inputs* with
// CLB_EXPECT, but a bare InvariantError tells a debugging engineer nothing
// about which gadget, vertex, or weight went wrong — and a mutated or
// hand-modified instance deserves a full report, not a first-failure
// throw. These validators recheck every property from first principles and
// return all violations as structured diagnostics: which property, which
// players/copies, which vertex or edge, expected vs. actual value.
//
// Use them in tests (assert report.ok()), in fuzz harnesses (print
// report.summary() on failure), and ahead of expensive reduction runs
// (validate before simulating).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/instances.hpp"
#include "graph/graph.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/quadratic_family.hpp"

namespace congestlb::lb {

/// One violated invariant, located as precisely as the check allows.
/// Fields that do not apply hold kNone.
struct ValidationIssue {
  static constexpr std::size_t kNone = ~static_cast<std::size_t>(0);

  std::string property;  ///< e.g. "property1", "weights", "cut"
  std::string gadget;    ///< e.g. "linear G_xbar", "quadratic fixed F"
  std::size_t player_i = kNone;  ///< first player/copy involved
  std::size_t player_j = kNone;  ///< second player/copy involved
  std::size_t index = kNone;     ///< message index m (or flattened pair)
  NodeId u = graph::NodeId(kNone);  ///< offending vertex (or edge endpoint)
  NodeId v = graph::NodeId(kNone);  ///< second endpoint for edge issues
  std::int64_t expected = 0;
  std::int64_t actual = 0;
  std::string detail;  ///< human-readable one-liner

  std::string to_string() const;
};

/// The outcome of one validate_* call: every issue found, plus how many
/// individual checks ran (so "ok" is meaningful — 0 checks is not a pass).
struct ValidationReport {
  std::size_t checks_run = 0;
  std::vector<ValidationIssue> issues;

  bool ok() const { return issues.empty(); }
  /// "ok (N checks)" or the first issues, one per line.
  std::string summary() const;
};

/// Properties 1-3 on the linear fixed construction G (Section 4):
///   1. every yes_witness(m) is independent and has size t(1 + ell + alpha);
///   2. cross-copy codeword pairs (m1 != m2) induce a matching >= ell;
///   3. distinct codewords agree (are non-adjacent cross-copy at the same
///      position) in at most alpha positions;
/// plus cut consistency: cut_edges() matches the closed form cut_size() and
/// every listed edge really crosses a player boundary.
/// Pairwise checks are sampled: at most `sample_budget` random (m1, m2,
/// copy) combinations, drawn deterministically from `seed`.
ValidationReport validate_linear_properties(const LinearConstruction& c,
                                            std::size_t sample_budget = 64,
                                            std::uint64_t seed = 1);

/// An instantiated G_xbar against its instance: node count, edge set
/// identical to the fixed graph, and w(v^i_m) = ell iff x^i_m = 1 with all
/// other weights 1 (Section 4's instantiation rule).
ValidationReport validate_linear_instance(const LinearConstruction& c,
                                          const comm::PromiseInstance& inst,
                                          const graph::Graph& gx);

/// Properties 1-3 lifted to the quadratic fixed construction F (both blocks
/// of every copy), plus cut consistency. Sampled like the linear version.
ValidationReport validate_quadratic_properties(const QuadraticConstruction& c,
                                               std::size_t sample_budget = 64,
                                               std::uint64_t seed = 1);

/// An instantiated F_xbar against its instance: fixed A-clique weights of
/// ell, all other weights 1, and the input edge {v^(i,1)_m1, v^(i,2)_m2}
/// present iff x^i_(m1,m2) = 0 (Figure 6's instantiation rule).
ValidationReport validate_quadratic_instance(const QuadraticConstruction& c,
                                             const comm::PromiseInstance& inst,
                                             const graph::Graph& fx);

}  // namespace congestlb::lb
