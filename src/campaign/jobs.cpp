#include "campaign/jobs.hpp"

#include <algorithm>
#include <sstream>

#include "comm/instances.hpp"
#include "graph/io.hpp"
#include "graph/matching.hpp"
#include "maxis/parallel_bnb.hpp"
#include "support/deadline.hpp"
#include "support/expect.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace congestlb::campaign {

std::string ResolvedPoint::canonical() const {
  std::ostringstream os;
  os << "ell=" << ell << ",alpha=" << alpha << ",t=" << t << ",k=" << k;
  return os.str();
}

ResolvedPoint resolve_point(const GridPoint& p) {
  const lb::GadgetParams params = lb::GadgetParams::from_l_alpha(
      p.ell, p.alpha, p.k);
  return ResolvedPoint{params.ell, params.alpha, p.t, params.k};
}

lb::GadgetParams gadget_params(const ResolvedPoint& p) {
  return lb::GadgetParams::from_l_alpha(p.ell, p.alpha, p.k);
}

std::string gadget_cache_key(const ResolvedPoint& p) {
  const lb::GadgetParams params = gadget_params(p);
  return "gadget/linear|" + p.canonical() + "|code=" + params.code->name();
}

lb::LinearConstruction build_gadget(const ResolvedPoint& p,
                                    const std::string& cached_edge_list) {
  lb::GadgetParams params = gadget_params(p);
  if (cached_edge_list.empty()) {
    return lb::LinearConstruction(std::move(params), p.t);
  }
  std::istringstream in(cached_edge_list);
  return lb::LinearConstruction(std::move(params), p.t,
                                graph::read_edge_list(in));
}

std::string serialize_graph(const graph::Graph& g) {
  std::ostringstream os;
  graph::write_edge_list(os, g);
  return os.str();
}

std::string serialize_gadget(const lb::LinearConstruction& c) {
  std::ostringstream os;
  os << "linear " << c.num_nodes() << ' ' << c.fixed_graph().num_edges()
     << ' ' << c.cut_size() << '\n';
  graph::write_edge_list(os, c.fixed_graph());
  return os.str();
}

GadgetHeader parse_gadget_header(const std::string& payload) {
  std::istringstream in(payload);
  std::string tag;
  GadgetHeader h;
  in >> tag >> h.nodes >> h.edges >> h.cut;
  CLB_EXPECT(static_cast<bool>(in) && tag == "linear",
             "campaign: malformed gadget cache payload header");
  return h;
}

lb::LinearConstruction rehydrate_gadget(const ResolvedPoint& p,
                                        const std::string& payload) {
  const std::size_t eol = payload.find('\n');
  CLB_EXPECT(eol != std::string::npos,
             "campaign: malformed gadget cache payload");
  parse_gadget_header(payload);  // validates the header line
  return build_gadget(p, payload.substr(eol + 1));
}

PointOutcome build_outcome(const lb::LinearConstruction& c) {
  PointOutcome out;
  out.nodes = c.num_nodes();
  out.edges = c.fixed_graph().num_edges();
  out.cut = c.cut_size();
  return out;
}

PointOutcome check_property(CheckKind kind, const lb::LinearConstruction& c,
                            std::uint64_t seed, std::size_t sample_budget) {
  const lb::GadgetParams& p = c.params();
  PointOutcome out;
  switch (kind) {
    case CheckKind::kProperty1: {
      // Exhaustive: every yes-witness must be independent in the fixed G.
      bool all_ok = true;
      for (std::size_t m = 0; m < p.k; ++m) {
        ++out.checked;
        all_ok =
            all_ok && c.fixed_graph().is_independent_set(c.yes_witness(m));
      }
      out.holds = all_ok && out.checked == p.k;
      return out;
    }
    case CheckKind::kProperty2:
    case CheckKind::kProperty3: {
      Rng rng(seed);
      const std::size_t budget =
          std::min<std::size_t>(p.k * (p.k - 1), sample_budget);
      std::size_t min_matching = p.num_positions() + 1;
      std::size_t max_shared = 0;
      for (std::size_t trial = 0; trial < budget; ++trial) {
        const std::size_t m1 = rng.below(p.k);
        std::size_t m2 = rng.below(p.k - 1);
        if (m2 >= m1) ++m2;
        const auto left = c.codeword_nodes(0, m1);
        const auto right = c.codeword_nodes(1, m2);
        if (kind == CheckKind::kProperty2) {
          const auto matching = graph::max_bipartite_matching(
              c.fixed_graph(), left, right);
          min_matching = std::min(min_matching, matching.size());
        } else {
          std::size_t shared = 0;
          for (std::size_t h = 0; h < p.num_positions(); ++h) {
            if (!c.fixed_graph().has_edge(left[h], right[h])) ++shared;
          }
          max_shared = std::max(max_shared, shared);
        }
        ++out.checked;
      }
      if (kind == CheckKind::kProperty2) {
        out.min_matching = min_matching;
        out.holds = min_matching >= p.ell;
      } else {
        out.max_shared = max_shared;
        out.holds = max_shared <= p.alpha;
      }
      return out;
    }
    case CheckKind::kClaim12:
    case CheckKind::kClaim35:
    case CheckKind::kApproxSweep:
    case CheckKind::kBlackboardSweep:
      break;
  }
  throw InvariantError("check_property: not a property check");
}

std::vector<ApproxBenchRow> algorithm_rows(CheckKind kind,
                                           const lb::LinearConstruction& c,
                                           std::uint64_t seed,
                                           std::size_t eps_num,
                                           std::size_t eps_den) {
  const lb::GadgetParams& p = c.params();
  std::string name = "gadget/ell=" + std::to_string(p.ell) +
                     ",alpha=" + std::to_string(p.alpha) +
                     ",t=" + std::to_string(c.num_players());
  switch (kind) {
    case CheckKind::kApproxSweep:
      return {measure_approx_row(c.fixed_graph(), std::move(name), eps_num,
                                 eps_den, seed)};
    case CheckKind::kBlackboardSweep:
      // Players = t, the gadget's natural party count.
      return measure_blackboard_rows(c.fixed_graph(), std::move(name),
                                     c.num_players(), seed);
    case CheckKind::kProperty1:
    case CheckKind::kProperty2:
    case CheckKind::kProperty3:
    case CheckKind::kClaim12:
    case CheckKind::kClaim35:
      break;
  }
  throw InvariantError("algorithm_rows: not an algorithm check");
}

PointOutcome check_algorithm(CheckKind kind, const lb::LinearConstruction& c,
                             std::uint64_t seed, std::size_t eps_num,
                             std::size_t eps_den) {
  const std::vector<ApproxBenchRow> rows =
      algorithm_rows(kind, c, seed, eps_num, eps_den);
  // Recorded legs: the last row — the KKSS run, or the blackboard sweep's
  // Luby run (the interesting tradeoff point); the full-revelation legs
  // are pinned by its exact-bit holds check.
  const ApproxBenchRow& row = rows.back();
  PointOutcome out;
  out.nodes = row.nodes;
  out.edges = row.edges;
  out.alg_weight = row.alg_weight;
  out.opt = row.opt_exact;
  out.bound_no = row.opt_upper;
  out.rounds = row.rounds;
  out.round_bound = row.round_bound;
  out.bits = row.bits;
  out.checked = rows.size();
  out.holds = std::all_of(rows.begin(), rows.end(),
                          [](const ApproxBenchRow& r) { return r.holds; });
  return out;
}

SolveResult solve_branch(const lb::LinearConstruction& c, bool yes_branch,
                         std::size_t trials, std::uint64_t seed,
                         const DeadlineToken* deadline) {
  const lb::GadgetParams& p = c.params();
  SolveResult res;
  graph::Weight best = 0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    Rng rng(hash_mix(seed, trial, yes_branch ? 1 : 0));
    const auto inst =
        yes_branch
            ? comm::make_uniquely_intersecting(p.k, c.num_players(), rng, 0.3)
            : comm::make_pairwise_disjoint(p.k, c.num_players(), rng, 0.4);
    // Full engine, single-threaded: the campaign already parallelizes
    // across jobs, so nesting worker pools here would only oversubscribe.
    maxis::EngineOptions eopts;
    eopts.deadline = deadline;
    const maxis::EngineResult r = maxis::solve_maxis(c.instantiate(inst), eopts);
    best = std::max(best, r.solution.weight);
    if (r.approximate) res.approximate = true;
    if (deadline != nullptr && deadline->expired()) {
      // Remaining trials would each be cancelled at their first node; the
      // max over the trials run so far is still a certified lower bound.
      res.approximate = true;
      break;
    }
  }
  res.opt = static_cast<std::int64_t>(best);
  return res;
}

PointOutcome check_claim(CheckKind kind, const ResolvedPoint& p,
                         std::int64_t yes_opt, std::int64_t no_opt) {
  CLB_EXPECT(kind == CheckKind::kClaim12 || kind == CheckKind::kClaim35,
             "check_claim: not a claim check");
  CLB_EXPECT(yes_opt >= 0 && no_opt >= 0,
             "check_claim: missing solver outcomes");
  const lb::GadgetParams params = gadget_params(p);
  PointOutcome out;
  out.yes_opt = yes_opt;
  out.no_opt = no_opt;
  out.bound_yes =
      static_cast<std::int64_t>(lb::linear_yes_weight_formula(params, p.t));
  out.bound_no =
      static_cast<std::int64_t>(lb::linear_no_bound_formula(params, p.t));
  out.holds = yes_opt >= out.bound_yes && no_opt <= out.bound_no;
  return out;
}

}  // namespace congestlb::campaign
