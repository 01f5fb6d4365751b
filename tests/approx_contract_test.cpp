// The approximation-contract suite for the upper-bound algorithm zoo:
// KKSS-style (1+eps)-approximate MaxIS (congest/approx_mis.hpp) and the
// Assadi–Kol–Zhang blackboard MIS protocols (congest/blackboard_mis.hpp),
// sampled across workloads, seeds, and thread counts via
// the contract harness (approx_contract.hpp). Hostile topologies from
// graph/generators (stars, bridged cliques, sparse chords) serve as the
// structured stress workloads.

#include <gtest/gtest.h>

#include <algorithm>

#include "approx_contract.hpp"
#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "congest/approx_mis.hpp"
#include "congest/blackboard_mis.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"
#include "maxis/branch_and_bound.hpp"
#include "maxis/verify.hpp"
#include "support/rng.hpp"

namespace congestlb::testing {
namespace {

// ------------------------------------------------------ random workloads --

TEST(ApproxContract, RandomGraphsFaultFree) {
  const auto failure = check_seeds(approx_mis_contract_property({}),
                                   /*base_seed=*/101, /*instances=*/6,
                                   /*max_size=*/10);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

TEST(ApproxContract, TighterEpsilonStillMeetsRatio) {
  ApproxContractOptions opts;
  opts.eps_num = 1;
  opts.eps_den = 8;
  const auto failure =
      check_seeds(approx_mis_contract_property(opts),
                  /*base_seed=*/307, /*instances=*/4, /*max_size=*/8);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

TEST(ApproxContract, BlackboardProtocols) {
  const auto failure = check_seeds(blackboard_contract_property(),
                                   /*base_seed=*/401, /*instances=*/8,
                                   /*max_size=*/14);
  EXPECT_FALSE(failure.has_value()) << failure->describe();
}

// ----------------------------------------------------- hostile topologies --
// Weighted graphs from graph/generators whose structure random G(n, p)
// rarely produces (approx_contract.hpp's HostileShape).

class ApproxContractTopology
    : public ::testing::TestWithParam<HostileShape> {};

TEST_P(ApproxContractTopology, ApproxMisContractHolds) {
  Rng rng(5);
  const auto g = hostile_graph(GetParam(), 12, rng);
  const auto failure = check_approx_mis_contract(g, /*seed=*/5);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

TEST_P(ApproxContractTopology, BlackboardContractHolds) {
  Rng rng(6);
  const auto g = hostile_graph(GetParam(), 16, rng);
  const auto failure = check_blackboard_contract(g, /*seed=*/6, /*players=*/4);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

INSTANTIATE_TEST_SUITE_P(
    Hostile, ApproxContractTopology,
    ::testing::Values(HostileShape::kPathWithChords, HostileShape::kBipartite,
                      HostileShape::kStar, HostileShape::kBridgedCliques,
                      HostileShape::kCycle));

// ------------------------------------------------------- gadget workloads --
// The paper's own hard instances: instantiated linear-family gadgets, where
// the exact solver certifies the optimum. Acceptance requires the measured
// KKSS ratio <= 1 + eps on every such instance.

TEST(ApproxContract, LinearGadgetInstancesMeetRatio) {
  const auto params = lb::GadgetParams::from_l_alpha(2, 1, 3);
  const lb::LinearConstruction c(params, 2);
  ASSERT_LE(c.num_nodes(), 24u);

  // The fixed (all-weights-1) gadget graph.
  auto failure = check_approx_mis_contract(c.fixed_graph(), /*seed=*/1);
  EXPECT_FALSE(failure.has_value()) << "fixed graph: " << *failure;

  // Instantiated (reweighted) gadgets over a few input patterns.
  Rng rng(17);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::vector<std::uint8_t>> strings(
        2, std::vector<std::uint8_t>(params.k, 0));
    for (auto& s : strings) {
      for (auto& bit : s) bit = rng.chance(0.5) ? 1 : 0;
    }
    const auto g = c.instantiate_raw(strings);
    failure = check_approx_mis_contract(g, /*seed=*/trial + 2);
    EXPECT_FALSE(failure.has_value())
        << "instantiated trial " << trial << ": " << *failure;
  }
}

// ----------------------------------------------------------- unit pinning --

congest::LocalMaxIsSolver exact_solver() {
  return [](const graph::Graph& g) { return maxis::solve_exact(g).nodes; };
}

TEST(ApproxMis, SingleCliqueTakesHeaviest) {
  graph::Graph g(5);
  std::vector<graph::NodeId> all{0, 1, 2, 3, 4};
  for (graph::NodeId u = 0; u < 5; ++u) {
    for (graph::NodeId v = u + 1; v < 5; ++v) g.add_edge(u, v);
    g.set_weight(u, 1 + u);
  }
  congest::NetworkConfig cfg;
  cfg.bits_per_edge = congest::approx_mis_local_bits(5, 5);
  congest::Network net(g, congest::approx_mis_factory(exact_solver()), cfg);
  const auto stats = net.run();
  ASSERT_TRUE(stats.all_finished);
  EXPECT_EQ(net.selected_nodes(), (std::vector<graph::NodeId>{4}));
}

TEST(ApproxMis, PathIsSolvedOptimally) {
  // Unweighted path 0-1-2-3-4: OPT = {0,2,4} with weight 3; a (1+1/4)
  // approximation must reach weight >= 3 * 4/5 = 2.4, i.e. >= 3 here
  // because carves solve their balls exactly.
  graph::Graph g(5);
  for (graph::NodeId v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
  congest::NetworkConfig cfg;
  cfg.bits_per_edge = congest::approx_mis_local_bits(5, 1);
  congest::Network net(g, congest::approx_mis_factory(exact_solver()), cfg);
  const auto stats = net.run();
  ASSERT_TRUE(stats.all_finished);
  const auto sel = net.selected_nodes();
  EXPECT_TRUE(g.is_independent_set(sel));
  EXPECT_GE(g.weight_of(sel) * 5, maxis::solve_exact(g).weight * 4);
}

TEST(ApproxMis, RejectsBandwidthBelowFloor) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  congest::NetworkConfig cfg;
  cfg.bits_per_edge = congest::approx_mis_required_bits(4, 1) - 1;
  congest::Network net(g, congest::approx_mis_factory(exact_solver()), cfg);
  EXPECT_THROW(net.run(), InvariantError);
}

TEST(ApproxMis, RejectsNullSolver) {
  EXPECT_THROW(congest::approx_mis_factory(nullptr)(0, congest::NodeInfo{}),
               InvariantError);
}

TEST(ApproxMis, SigmaShrinksWithBandwidth) {
  // At the CONGEST floor sigma is maximal; at local bits it is 1. The
  // quantitative LOCAL/CONGEST gap the bench sweep charts.
  const std::size_t n = 32;
  const std::size_t floor_bits = congest::approx_mis_required_bits(n, 8);
  const std::size_t local_bits = congest::approx_mis_local_bits(n, 8);
  EXPECT_GT(congest::approx_mis_sigma(n, floor_bits), 1u);
  EXPECT_EQ(congest::approx_mis_sigma(n, local_bits), 1u);
  EXPECT_GT(congest::approx_mis_round_bound(n, 100, 1, 4, floor_bits),
            congest::approx_mis_round_bound(n, 100, 1, 4, local_bits));
}

TEST(BlackboardMis, FullRevelationBitsAreExact) {
  Rng rng(9);
  const auto g = graph::gnp_random_connected(rng, 12, 0.3);
  comm::Blackboard board(3);
  const auto rep = congest::full_revelation_mis(g, 3, board);
  EXPECT_EQ(rep.bits_posted, g.num_edges() * 2 * 4);  // id_bits(12) = 4
  EXPECT_EQ(rep.blackboard_rounds, 1u);
  EXPECT_EQ(board.total_bits(), rep.bits_posted);
}

TEST(BlackboardMis, LubyIndependentOfPlayerCount) {
  Rng rng(11);
  const auto g = graph::gnp_random_connected(rng, 20, 0.2);
  std::vector<std::vector<graph::NodeId>> results;
  for (const std::size_t players : {1, 2, 5}) {
    comm::Blackboard board(std::max<std::size_t>(2, players));
    results.push_back(
        congest::luby_blackboard_mis(g, players, board, /*seed=*/77).mis);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(BlackboardMis, RejectsBadPlayerCount) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  comm::Blackboard board(2);
  EXPECT_THROW(congest::full_revelation_mis(g, 0, board), InvariantError);
  EXPECT_THROW(congest::full_revelation_mis(g, 5, board), InvariantError);
}

// ------------------------------------------------------ campaign builtins --
// The algorithm sweeps as resumable campaigns: every check must hold, the
// records must survive a manifest round trip bit for bit, and each record
// must equal the algorithm_rows call bench_approx makes for that job.

/// Every check record of `result` carries the legs of its point's last
/// algorithm_rows row, measured at the job's exported seed.
void expect_records_match_algorithm_rows(
    const campaign::CampaignSpec& spec,
    const campaign::CampaignResult& result) {
  for (const campaign::SweepSpec& sweep : spec.sweeps) {
    for (std::size_t pi = 0; pi < sweep.points.size(); ++pi) {
      const campaign::ResolvedPoint p =
          campaign::resolve_point(sweep.points[pi]);
      const auto* rec =
          result.find(sweep.name + "/" + p.canonical() + "/check");
      ASSERT_NE(rec, nullptr) << sweep.name << " point " << pi;
      const auto rows = campaign::algorithm_rows(
          sweep.check, campaign::build_gadget(p, ""),
          campaign::check_job_seed(spec.seed, sweep.name, pi), sweep.eps_num,
          sweep.eps_den);
      ASSERT_FALSE(rows.empty());
      const campaign::ApproxBenchRow& row = rows.back();
      EXPECT_EQ(rec->outcome.alg_weight, row.alg_weight) << rec->id;
      EXPECT_EQ(rec->outcome.opt, row.opt_exact) << rec->id;
      EXPECT_EQ(rec->outcome.bound_no, row.opt_upper) << rec->id;
      EXPECT_EQ(rec->outcome.rounds, row.rounds) << rec->id;
      EXPECT_EQ(rec->outcome.bits, row.bits) << rec->id;
    }
  }
}

TEST(ApproxCampaign, BuiltinApproxSweepAllHold) {
  const auto spec = campaign::builtin_campaign("approx_sweep");
  ASSERT_TRUE(spec.has_value());
  campaign::RunOptions opts;
  opts.threads = 2;
  const auto result = campaign::run_campaign(*spec, opts);
  EXPECT_TRUE(result.all_hold);
  EXPECT_EQ(result.checks, 6u);  // 3 shapes x 2 eps sweeps
  EXPECT_EQ(result.checks_holding, result.checks);

  // Algorithm records round-trip through the manifest exactly.
  std::ostringstream os;
  campaign::write_manifest(os, result, {.include_volatile = false});
  const auto parsed = campaign::read_manifest(os.str());
  EXPECT_TRUE(parsed.all_hold);
  const auto* rec = result.find("A8/ell=2,alpha=1,t=2,k=3/check");
  ASSERT_NE(rec, nullptr);
  EXPECT_GE(rec->outcome.alg_weight, 0);
  EXPECT_GT(rec->outcome.rounds, 0u);
  EXPECT_LE(rec->outcome.rounds, rec->outcome.round_bound);
  const auto it = parsed.records.find(rec->id);
  ASSERT_NE(it, parsed.records.end());
  EXPECT_EQ(it->second.outcome.alg_weight, rec->outcome.alg_weight);
  EXPECT_EQ(it->second.outcome.rounds, rec->outcome.rounds);
  EXPECT_EQ(it->second.outcome.bits, rec->outcome.bits);

  expect_records_match_algorithm_rows(*spec, result);
}

TEST(ApproxCampaign, BuiltinBlackboardSweepAllHold) {
  const auto spec = campaign::builtin_campaign("blackboard_sweep");
  ASSERT_TRUE(spec.has_value());
  const auto result = campaign::run_campaign(*spec, {});
  EXPECT_TRUE(result.all_hold);
  EXPECT_EQ(result.checks, 4u);
  expect_records_match_algorithm_rows(*spec, result);
}

TEST(ApproxCampaign, EpsRoundTripsThroughSpecText) {
  const auto spec = campaign::builtin_approx_campaign();
  std::ostringstream os;
  campaign::write_campaign_spec(os, spec);
  const auto reparsed = campaign::parse_campaign_spec_text(os.str());
  EXPECT_EQ(spec.canonical(), reparsed.canonical());
  EXPECT_EQ(spec.content_hash(), reparsed.content_hash());
  ASSERT_EQ(reparsed.sweeps.size(), 2u);
  EXPECT_EQ(reparsed.sweeps[1].eps_den, 8u);
}

TEST(ApproxCampaign, DefaultEpsKeepsLegacyCanonicalForm) {
  // The eps knob must be invisible in pre-approx specs: their canonical
  // text (and with it every content hash and cache key) is unchanged.
  const auto smoke = campaign::builtin_smoke_campaign();
  EXPECT_EQ(smoke.canonical().find("eps"), std::string::npos);
  const auto kind = campaign::check_kind_from_string("approx");
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(campaign::to_string(*kind), "approx");
  EXPECT_EQ(campaign::to_string(campaign::CheckKind::kBlackboardSweep),
            "blackboard");
}

// -------------------------------------------------- clique-partition bound --

TEST(CliquePartitionBound, IsAValidUpperBound) {
  Rng rng(13);
  for (int i = 0; i < 8; ++i) {
    auto g = graph::gnp_random_connected(rng, 4 + rng.below(14),
                                         0.1 + rng.uniform() * 0.5);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      g.set_weight(v, static_cast<graph::Weight>(1 + rng.below(10)));
    }
    EXPECT_GE(maxis::clique_partition_upper_bound(g),
              maxis::solve_exact(g).weight);
  }
}

TEST(CliquePartitionBound, TightOnCliquesAndEmptyGraphs) {
  graph::Graph clique(6);
  for (graph::NodeId u = 0; u < 6; ++u) {
    clique.set_weight(u, 1 + u);
    for (graph::NodeId v = u + 1; v < 6; ++v) clique.add_edge(u, v);
  }
  EXPECT_EQ(maxis::clique_partition_upper_bound(clique), 6);

  graph::Graph empty(4);
  for (graph::NodeId v = 0; v < 4; ++v) empty.set_weight(v, 2);
  EXPECT_EQ(maxis::clique_partition_upper_bound(empty), 8);
}

}  // namespace
}  // namespace congestlb::testing
