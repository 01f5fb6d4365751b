// Campaign job bodies: gadget builds, exact solves, claim checks.
//
// Every job here is a pure function of (resolved parameters, seed): the
// instance draws, pair samples, and solver calls consume only an Rng built
// from the pre-bound seed, so a job's outputs are identical no matter
// which scheduler worker runs it, in what order, or on which run of the
// process. That purity is what makes the content-addressed cache sound
// (equal canonical inputs => equal outputs) and the run manifests
// bit-identical across worker counts.
//
// The check semantics:
//   - P1/P2/P3 check Properties 1-3 (witness independence, cross-copy
//     matching >= ell, <= alpha shared positions);
//   - Claim12/Claim35 take the max exact OPT over `trials` instance draws
//     per branch (solve_branch) and compare it against the closed-form
//     bounds of Claims 1-5.

#pragma once

#include <cstdint>
#include <string>

#include "campaign/manifest.hpp"
#include "graph/graph.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"

namespace congestlb {
class DeadlineToken;
}

namespace congestlb::campaign {

/// A GridPoint with k resolved to the concrete universe size the gadget
/// will be built with (the paper default when the spec left k empty).
struct ResolvedPoint {
  std::size_t ell = 0;
  std::size_t alpha = 0;
  std::size_t t = 0;
  std::size_t k = 0;

  /// "ell=2,alpha=1,t=2,k=3" — the canonical point id used in job ids and
  /// cache keys.
  std::string canonical() const;
};

/// Resolve a spec point (throws InvariantError if the shape is invalid,
/// e.g. the code capacity cannot cover the requested k).
ResolvedPoint resolve_point(const GridPoint& p);

/// The gadget parameters for a resolved point (Reed-Solomon default code).
lb::GadgetParams gadget_params(const ResolvedPoint& p);

/// Canonical cache-key string for the fixed linear construction at this
/// point — includes the code name, so an ablation code change invalidates.
std::string gadget_cache_key(const ResolvedPoint& p);

/// Every measured quantity a job can produce; stages fill the fields they
/// define and leave the rest at their defaults. Integer-valued on purpose:
/// records round-trip exactly through manifests.
struct PointOutcome {
  // build:
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t cut = 0;
  // properties:
  std::uint64_t checked = 0;       ///< witnesses (P1) or sampled pairs (P2/P3)
  std::uint64_t min_matching = 0;  ///< P2
  std::uint64_t max_shared = 0;    ///< P3
  // solves / claims:
  std::int64_t opt = -1;        ///< solve stages: max OPT over trials
  std::int64_t yes_opt = -1;    ///< claim checks
  std::int64_t no_opt = -1;
  std::int64_t bound_yes = 0;
  std::int64_t bound_no = 0;
  // algorithm sweeps (kApproxSweep / kBlackboardSweep); alg_weight < 0
  // means "not an algorithm record" and keeps these out of manifests:
  std::int64_t alg_weight = -1;   ///< weight the algorithm selected
  std::uint64_t rounds = 0;       ///< measured rounds
  std::uint64_t round_bound = 0;  ///< published round envelope
  std::uint64_t bits = 0;         ///< measured bits sent / posted
  bool holds = false;  ///< check stages only
  /// A deadline cancelled part of the work that produced this outcome: the
  /// values are certified lower bounds, not necessarily the true OPTs.
  /// Approximate outcomes are never cached and never honored on resume.
  bool approximate = false;
};

/// Build the fixed construction for a point from scratch (the cold path).
lb::LinearConstruction build_gadget(const ResolvedPoint& p,
                                    const std::string& cached_edge_list);

/// Serialize a fixed graph for the cache (graph/io edge-list text, which
/// is canonical: sorted "e u v" lines with u < v).
std::string serialize_graph(const graph::Graph& g);

/// Cache payload for a built gadget: a "linear <nodes> <edges> <cut>"
/// header line followed by the edge-list text. The header lets a warm
/// build job record its counts without parsing the (possibly large) graph
/// body — rehydration is deferred until a dependent actually needs the
/// graph, which a fully warm run never does.
std::string serialize_gadget(const lb::LinearConstruction& c);

struct GadgetHeader {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t cut = 0;
};

/// Parse the header line of a serialize_gadget payload (throws
/// InvariantError on a malformed payload).
GadgetHeader parse_gadget_header(const std::string& payload);

/// Rehydrate the full construction from a serialize_gadget payload (strips
/// the header, parses the edge list, and re-binds it to the point's
/// parameters with node/edge-count verification).
lb::LinearConstruction rehydrate_gadget(const ResolvedPoint& p,
                                        const std::string& payload);

/// Outcome of a build (node/edge/cut counts for the manifest record).
PointOutcome build_outcome(const lb::LinearConstruction& c);

/// P1/P2/P3 on a built construction. `seed` drives the P2/P3 pair
/// sampling; P1 is exhaustive over all k witnesses.
PointOutcome check_property(CheckKind kind, const lb::LinearConstruction& c,
                            std::uint64_t seed, std::size_t sample_budget);

/// Result of solving one promise branch. When a deadline fired, `opt` is
/// the best certified incumbent found before cancellation (a lower bound on
/// the true max) and `approximate` is set.
struct SolveResult {
  std::int64_t opt = -1;
  bool approximate = false;
};

/// Max exact OPT over `trials` instance draws of one promise branch
/// (trial seeds hash-derived from `seed`). Densities: 0.3 intersecting,
/// 0.4 disjoint. `deadline` (may be null) cooperatively cancels the
/// underlying engine searches; once it has fired, remaining trials are
/// skipped and the result is approximate.
SolveResult solve_branch(const lb::LinearConstruction& c, bool yes_branch,
                         std::size_t trials, std::uint64_t seed,
                         const DeadlineToken* deadline = nullptr);

/// Claim verdict from solver outcomes + the closed-form bounds (no graph
/// needed — usable when both solves were replayed from a manifest).
PointOutcome check_claim(CheckKind kind, const ResolvedPoint& p,
                         std::int64_t yes_opt, std::int64_t no_opt);

/// Algorithm-sweep verdict (kApproxSweep / kBlackboardSweep): run the
/// upper-bound algorithm on the point's fixed gadget graph and evaluate
/// its full approximation contract — the gap sandwich plus round and bit
/// envelopes (campaign/approx_sweep.hpp). `opt` records the certified
/// optimum (or -1), `bound_no` the clique-partition upper bound.
PointOutcome check_algorithm(CheckKind kind, const lb::LinearConstruction& c,
                             std::uint64_t seed, std::size_t eps_num,
                             std::size_t eps_den);

}  // namespace congestlb::campaign
