#include "campaign/approx_sweep.hpp"

#include <algorithm>
#include <ostream>

#include "comm/blackboard.hpp"
#include "congest/approx_mis.hpp"
#include "congest/blackboard_mis.hpp"
#include "congest/network.hpp"
#include "maxis/branch_and_bound.hpp"
#include "maxis/verify.hpp"
#include "support/json.hpp"
#include "support/math.hpp"
#include "support/table.hpp"

namespace congestlb::campaign {
namespace {

/// Largest instance the sandwich certifies with branch and bound; above
/// it opt_exact stays -1 and the clique-partition bound is the only upper
/// slice. 40 matches maxis::kBruteForceLimit, the size the exact-solver
/// test suite itself treats as routinely solvable.
constexpr std::size_t kCertifyLimit = 40;

std::size_t id_bits_of(std::size_t n) {
  return static_cast<std::size_t>(
      std::max(1, ceil_log2(std::max<std::size_t>(2, n))));
}

}  // namespace

ApproxBenchRow measure_approx_row(const graph::Graph& g, std::string name,
                                  std::size_t eps_num, std::size_t eps_den,
                                  std::uint64_t seed) {
  ApproxBenchRow row;
  row.name = std::move(name);
  row.variant =
      "kkss-" + std::to_string(eps_num) + "/" + std::to_string(eps_den);
  row.nodes = g.num_nodes();
  row.edges = g.num_edges();
  row.eps_num = eps_num;
  row.eps_den = eps_den;

  graph::Weight max_w = 1;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    max_w = std::max(max_w, g.weight(v));
  }

  congest::ApproxMisConfig acfg;
  acfg.eps_num = eps_num;
  acfg.eps_den = eps_den;
  congest::NetworkConfig ncfg;
  ncfg.seed = seed;
  ncfg.bits_per_edge = congest::approx_mis_local_bits(g.num_nodes(), max_w);
  congest::Network net(
      g,
      congest::approx_mis_factory(
          [](const graph::Graph& ball) {
            return maxis::solve_exact(ball).nodes;
          },
          acfg),
      ncfg);
  const auto stats = net.run();
  const auto members = net.selected_nodes();

  row.rounds = stats.rounds;
  row.round_bound = congest::approx_mis_round_bound(
      g.num_nodes(), g.total_weight(), eps_num, eps_den, ncfg.bits_per_edge);
  row.bits = stats.bits_sent;
  row.alg_weight = g.weight_of(members);
  row.opt_upper = maxis::clique_partition_upper_bound(g);
  if (g.num_nodes() <= kCertifyLimit) {
    row.opt_exact = maxis::solve_exact(g).weight;
  }

  bool holds = stats.all_finished && !stats.any_failed &&
               g.is_independent_set(members) && row.rounds <= row.round_bound;
  if (row.opt_exact >= 0) {
    // w * (den + num) >= OPT * den, exact integer arithmetic — and the
    // lower slice of the sandwich can never exceed the certified optimum.
    holds = holds &&
            row.alg_weight * static_cast<std::int64_t>(eps_den + eps_num) >=
                row.opt_exact * static_cast<std::int64_t>(eps_den) &&
            row.alg_weight <= row.opt_exact;
  }
  holds = holds && row.alg_weight <= row.opt_upper;
  row.holds = holds;
  return row;
}

std::vector<ApproxBenchRow> measure_blackboard_rows(const graph::Graph& g,
                                                    std::string name,
                                                    std::size_t players,
                                                    std::uint64_t seed) {
  const std::size_t n = g.num_nodes();
  const std::size_t id_bits = id_bits_of(n);
  // The board registers at least two parties even when the protocol only
  // exercises one of them (comm::Blackboard's own floor).
  const std::size_t board_players = std::max<std::size_t>(2, players);

  std::vector<ApproxBenchRow> rows;
  {
    comm::Blackboard board(board_players);
    const auto rep = congest::full_revelation_mis(g, players, board);
    ApproxBenchRow row;
    row.name = name;
    row.variant = "full-revelation";
    row.nodes = n;
    row.edges = g.num_edges();
    row.rounds = rep.blackboard_rounds;
    row.round_bound = 1;
    row.bits = rep.bits_posted;
    row.bit_budget = static_cast<std::uint64_t>(g.num_edges()) * 2 * id_bits;
    row.alg_weight = g.weight_of(rep.mis);
    row.opt_upper = maxis::clique_partition_upper_bound(g);
    // The bit leg is exact for full revelation: the protocol posts every
    // half-open incident edge exactly once, no more, no less.
    row.holds = g.is_independent_set(rep.mis) && rep.blackboard_rounds == 1 &&
                rep.bits_posted == row.bit_budget &&
                row.alg_weight <= row.opt_upper;
    rows.push_back(std::move(row));
  }
  {
    comm::Blackboard board(board_players);
    const auto rep = congest::luby_blackboard_mis(g, players, board, seed);
    ApproxBenchRow row;
    row.name = std::move(name);
    row.variant = "luby";
    row.nodes = n;
    row.edges = g.num_edges();
    row.rounds = rep.blackboard_rounds;
    row.round_bound = 2 * n;
    row.bits = rep.bits_posted;
    row.bit_budget = static_cast<std::uint64_t>(2 * n) * id_bits;
    row.alg_weight = g.weight_of(rep.mis);
    row.opt_upper = maxis::clique_partition_upper_bound(g);
    row.holds = g.is_independent_set(rep.mis) &&
                rep.blackboard_rounds <= row.round_bound &&
                rep.bits_posted <= row.bit_budget &&
                row.alg_weight <= row.opt_upper;
    rows.push_back(std::move(row));
  }
  return rows;
}

void write_approx_bench_json(std::ostream& os,
                             const std::vector<ApproxBenchRow>& rows,
                             std::string_view sweep) {
  std::vector<BenchRow> out;
  out.reserve(rows.size());
  for (const ApproxBenchRow& r : rows) {
    out.push_back(
        {r.name,
         {{"variant", r.variant}, {"threads", std::uint64_t{1}}},
         {{"nodes", r.nodes},
          {"edges", r.edges},
          {"eps_num", std::uint64_t{r.eps_num}},
          {"eps_den", std::uint64_t{r.eps_den}},
          {"rounds", r.rounds},
          {"round_bound", r.round_bound},
          {"bits", r.bits},
          {"bit_budget", r.bit_budget},
          {"alg_weight", r.alg_weight},
          {"opt_exact", r.opt_exact},
          {"opt_upper", r.opt_upper},
          {"holds", r.holds},
          {"ns_per_round", r.ns_per_round}}});
  }
  write_bench_json(os, "approx", out, [&](JsonWriter& jw) {
    jw.kv("sweep", sweep);
  });
}

void render_gap_sandwich(std::ostream& os,
                         const std::vector<ApproxBenchRow>& rows) {
  print_heading(os,
                "gap sandwich: alg weight <= OPT <= clique-partition UB");
  Table t({"instance", "variant", "n", "m", "alg W", "OPT", "UB", "rounds",
           "envelope", "bits", "budget", "holds"});
  for (const ApproxBenchRow& r : rows) {
    t.row(r.name, r.variant, r.nodes, r.edges, r.alg_weight,
          r.opt_exact >= 0 ? std::to_string(r.opt_exact) : std::string("-"),
          r.opt_upper, r.rounds, r.round_bound, r.bits,
          r.bit_budget > 0 ? std::to_string(r.bit_budget) : std::string("-"),
          r.holds);
  }
  t.print(os);
}

}  // namespace congestlb::campaign
