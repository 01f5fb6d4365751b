#include "campaign/report.hpp"

#include <map>
#include <ostream>
#include <string>

#include "support/table.hpp"

namespace congestlb::campaign {
namespace {

std::string_view sweep_heading(CheckKind kind) {
  switch (kind) {
    case CheckKind::kProperty1:
      return "Property 1 witness independence";
    case CheckKind::kProperty2:
      return "min max-matching between distinct codeword gadgets "
             "(paper: >= ell)";
    case CheckKind::kProperty3:
      return "positions where an IS can hold both codewords "
             "(paper: <= alpha)";
    case CheckKind::kClaim12:
      return "two players (Claims 1-2): YES >= 4l+2a, NO <= 3l+2a+1";
    case CheckKind::kClaim35:
      return "t players (Claims 3+5): YES >= t(2l+a), NO <= (t+1)l+at^2";
    case CheckKind::kApproxSweep:
      return "KKSS (1+eps)-approx MaxIS: alg W <= OPT <= clique UB, "
             "rounds within envelope";
    case CheckKind::kBlackboardSweep:
      return "blackboard MIS (full revelation + Luby): exact bit "
             "accounting within budget";
  }
  return "?";
}

std::vector<std::string> sweep_headers(CheckKind kind) {
  switch (kind) {
    case CheckKind::kProperty1:
      return {"ell", "alpha", "t", "k", "witnesses checked",
              "all independent"};
    case CheckKind::kProperty2:
      return {"ell", "alpha", "t", "k", "pairs checked", "min matching",
              "claim >= ell", "holds"};
    case CheckKind::kProperty3:
      return {"ell", "alpha", "t", "k", "pairs checked",
              "max shared positions", "claim <= alpha", "holds"};
    case CheckKind::kClaim12:
      return {"ell", "alpha", "k", "n", "YES OPT", "claim YES>=", "NO OPT",
              "claim NO<=", "holds"};
    case CheckKind::kClaim35:
      return {"t", "ell", "alpha", "k", "n", "YES OPT", "claim YES>=",
              "NO OPT", "claim NO<=", "separated", "holds"};
    case CheckKind::kApproxSweep:
      return {"ell", "alpha", "t", "n", "alg W", "OPT", "clique UB",
              "rounds", "envelope", "bits", "holds"};
    case CheckKind::kBlackboardSweep:
      return {"ell", "alpha", "t", "n", "MIS W", "clique UB",
              "luby rounds", "<= 2n", "luby bits", "holds"};
  }
  return {};
}

}  // namespace

void print_campaign_tables(std::ostream& os, const CampaignSpec& spec,
                           const CampaignResult& result) {
  std::map<std::string, const JobRecord*> by_id;
  for (const JobRecord& r : result.records) by_id.emplace(r.id, &r);
  const auto lookup = [&](const std::string& id) -> const JobRecord* {
    const auto it = by_id.find(id);
    return it == by_id.end() ? nullptr : it->second;
  };

  for (const SweepSpec& sweep : spec.sweeps) {
    print_heading(os, sweep.name + " — " +
                          std::string(sweep_heading(sweep.check)));
    Table table(sweep_headers(sweep.check));
    for (const GridPoint& gp : sweep.points) {
      const ResolvedPoint p = resolve_point(gp);
      const std::string point = p.canonical();
      const JobRecord* check = lookup(sweep.name + "/" + point + "/check");
      const JobRecord* build = lookup("gadget/" + point);
      const std::uint64_t n = build != nullptr ? build->outcome.nodes : 0;
      if (check == nullptr) {
        std::vector<std::string> cells(sweep_headers(sweep.check).size(),
                                       "-");
        cells.front() = "(pending)";
        table.add_row(std::move(cells));
        continue;
      }
      const PointOutcome& o = check->outcome;
      switch (sweep.check) {
        case CheckKind::kProperty1:
          table.row(p.ell, p.alpha, p.t, p.k, o.checked, o.holds);
          break;
        case CheckKind::kProperty2:
          table.row(p.ell, p.alpha, p.t, p.k, o.checked, o.min_matching,
                    p.ell, o.holds);
          break;
        case CheckKind::kProperty3:
          table.row(p.ell, p.alpha, p.t, p.k, o.checked, o.max_shared,
                    p.alpha, o.holds);
          break;
        case CheckKind::kClaim12:
          table.row(p.ell, p.alpha, p.k, n, o.yes_opt, o.bound_yes, o.no_opt,
                    o.bound_no, o.holds);
          break;
        case CheckKind::kClaim35:
          table.row(p.t, p.ell, p.alpha, p.k, n, o.yes_opt, o.bound_yes,
                    o.no_opt, o.bound_no, o.bound_yes > o.bound_no, o.holds);
          break;
        case CheckKind::kApproxSweep:
          table.row(p.ell, p.alpha, p.t, n, o.alg_weight,
                    o.opt >= 0 ? std::to_string(o.opt) : std::string("-"),
                    o.bound_no, o.rounds, o.round_bound, o.bits, o.holds);
          break;
        case CheckKind::kBlackboardSweep:
          table.row(p.ell, p.alpha, p.t, n, o.alg_weight, o.bound_no,
                    o.rounds, o.round_bound, o.bits, o.holds);
          break;
      }
    }
    table.print(os);
  }
}

void print_campaign_summary(std::ostream& os, const CampaignResult& result) {
  os << "\ncampaign '" << result.campaign << "': " << result.records.size()
     << "/" << result.jobs_total << " jobs recorded (" << result.jobs_run
     << " run, " << result.jobs_resumed << " resumed), " << result.threads
     << (result.threads == 1 ? " worker" : " workers") << ", "
     << fmt_double(result.total_wall_ms, 1) << " ms\n";
  os << "cache: " << result.cache.mem_hits << " mem hits, "
     << result.cache.disk_hits << " disk hits, " << result.cache.misses
     << " misses, " << result.cache.writes << " writes";
  if (result.cache.invalid > 0) {
    os << ", " << result.cache.invalid << " invalid slots";
  }
  os << "\n";
  if (result.jobs_quarantined > 0 || result.jobs_blocked > 0) {
    os << "faults: " << result.jobs_quarantined << " quarantined, "
       << result.jobs_blocked << " blocked\n";
    for (const JobRecord& r : result.records) {
      if (r.verdict == "quarantined") {
        os << "  quarantined " << r.id << ": " << r.diagnostic << "\n";
      }
    }
  }
  const char* outcome = "run incomplete";
  if (result.all_hold) {
    outcome = "ALL CLAIMS HOLD";
  } else if (result.jobs_quarantined > 0 || result.jobs_blocked > 0) {
    outcome = "DEGRADED (quarantined jobs)";
  } else if (result.complete) {
    outcome = "VIOLATIONS PRESENT";
  }
  os << "checks: " << result.checks_holding << "/" << result.checks
     << " hold — " << outcome << "\n";
}

}  // namespace congestlb::campaign
