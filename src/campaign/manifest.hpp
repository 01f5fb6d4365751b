// Campaign sweep specifications (docs/CAMPAIGN.md).
//
// A campaign declares, as data, the parameter sweeps that verify the
// paper's numbered statements: each sweep names a claim check (Properties
// 1-3 of Section 4.1, Claims 1-2 / 3+5 of Section 4) and a set of gadget
// shapes (ell, alpha, t, k) to run it over. Shapes come either from an
// explicit point list or from a grid whose axes are crossed in declaration
// order — deterministic expansion, so a spec's job set (and with it every
// content hash) is a pure function of the spec text.
//
// Specs are JSON documents parseable by parse_campaign_spec (schema in
// docs/CAMPAIGN.md); the two built-in specs reproduce the bench sweeps:
// builtin_paper_campaign() is the P1-P3 + C12 + C35 sweep behind the
// EXPERIMENTS.md tables, builtin_smoke_campaign() a tiny CI-sized grid.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace congestlb {
class JsonValue;
}

namespace congestlb::campaign {

/// Which mechanical check a sweep runs at every grid point.
enum class CheckKind : std::uint8_t {
  kProperty1,  ///< P1: every yes-witness is independent
  kProperty2,  ///< P2: cross-copy codeword matching >= ell
  kProperty3,  ///< P3: <= alpha positions host both codewords
  kClaim12,    ///< Claims 1-2 (t = 2): YES >= 4l+2a, NO <= 3l+2a+1
  kClaim35,    ///< Claims 3+5 (general t): YES >= t(2l+a), NO <= (t+1)l+at^2
  /// Upper-bound algorithm sweeps (docs/ALGORITHMS.md): run the algorithm
  /// on the point's fixed gadget graph and check its full approximation
  /// contract (gap sandwich + round/bit envelopes, campaign/approx_sweep).
  kApproxSweep,      ///< KKSS-style (1+eps)-approximate MaxIS
  kBlackboardSweep,  ///< Assadi–Kol–Zhang blackboard MIS protocols
};

std::string_view to_string(CheckKind kind);
std::optional<CheckKind> check_kind_from_string(std::string_view s);

/// One gadget shape. k empty means "the paper's default choice for
/// (ell, alpha)" (GadgetParams::from_l_alpha's capped (ell+alpha)^alpha).
struct GridPoint {
  std::size_t ell = 0;
  std::size_t alpha = 0;
  std::size_t t = 0;
  std::optional<std::size_t> k;
};

/// One sweep: a check applied over a list of points.
struct SweepSpec {
  std::string name;  ///< short id, e.g. "P1"; becomes the job-id prefix
  CheckKind check = CheckKind::kProperty1;
  std::vector<GridPoint> points;
  /// Instance draws per branch for claim sweeps (max OPT over trials).
  std::size_t trials = 2;
  /// Pair-sampling budget for P2/P3 (min(k*(k-1), budget) pairs).
  std::size_t sample_budget = 60;
  /// Approximation target for kApproxSweep: eps = eps_num / eps_den. The
  /// defaults are appended to canonical() only when changed, so specs from
  /// before the approx sweeps keep their content hashes bit for bit.
  std::size_t eps_num = 1;
  std::size_t eps_den = 4;
};

struct CampaignSpec {
  std::string name = "campaign";
  /// Base seed; every job seed is hash-derived from it plus the job's
  /// structural position, so results never depend on execution order.
  std::uint64_t seed = 2020;
  std::vector<SweepSpec> sweeps;

  /// Canonical one-line-per-sweep textual form (the content hashed into
  /// spec_hash and every job's inputs_hash).
  std::string canonical() const;
  std::uint64_t content_hash() const;
};

/// Parse a spec document. Schema (docs/CAMPAIGN.md):
///   {"campaign": "name", "seed": 2020, "sweeps": [
///      {"name": "P1", "check": "property1", "trials": 3,
///       "grid": {"ell": [2,3], "alpha": [1], "t": [2], "k": [3]},
///       "points": [{"ell": 2, "alpha": 1, "t": 2}]}]}
/// "grid" axes are crossed ell-major (ell, then alpha, then t, then k);
/// "k" may be omitted from grids and points. "points" are appended after
/// the grid expansion. Throws InvariantError on schema violations.
CampaignSpec parse_campaign_spec(const JsonValue& doc);
CampaignSpec parse_campaign_spec_text(std::string_view json_text);

/// Serialize a spec back to the schema above (explicit points only — grid
/// shorthand is expanded at parse time).
void write_campaign_spec(std::ostream& os, const CampaignSpec& spec);

/// The full paper sweep: P1-P3 over 8 gadget shapes, Claims 1-2 over the
/// 6 bench_gap_linear t=2 shapes, Claims 3+5 over its 7 general-t shapes.
CampaignSpec builtin_paper_campaign();

/// A CI-sized grid: ell in {2,3}, t in {2,3}, alpha = 1.
CampaignSpec builtin_smoke_campaign();

/// KKSS (1+eps)-approximate MaxIS over small gadget shapes at eps = 1/4
/// and 1/8 — the BENCH_approx gap-sandwich sweep as a resumable campaign.
CampaignSpec builtin_approx_campaign();

/// Blackboard MIS protocols (full revelation + shared-seed Luby) over the
/// same gadget shapes, with exact bit accounting.
CampaignSpec builtin_blackboard_campaign();

/// Look up a built-in spec by name ("paper", "smoke", "approx_sweep", or
/// "blackboard_sweep").
std::optional<CampaignSpec> builtin_campaign(std::string_view name);

}  // namespace congestlb::campaign
