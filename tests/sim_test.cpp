// Theorem 5 end-to-end: t players simulate a CONGEST algorithm on the
// lower-bound graphs, cut messages land on the blackboard, the gap
// predicate answers promise disjointness, and the bit accounting holds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "congest/algorithms/universal_maxis.hpp"
#include "congest/algorithms/weighted_greedy.hpp"
#include "maxis/branch_and_bound.hpp"
#include "sim/reduction.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::sim {
namespace {

congest::LocalMaxIsSolver exact_solver() {
  return [](const graph::Graph& g) { return maxis::solve_exact(g).nodes; };
}

congest::NetworkConfig universal_cfg(std::size_t n, graph::Weight max_w) {
  congest::NetworkConfig cfg;
  cfg.bits_per_edge = congest::universal_required_bits(n, max_w);
  cfg.max_rounds = 200'000;
  return cfg;
}

class LinearReductionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinearReductionSweep, UniversalAlgorithmDecidesBothBranches) {
  const std::size_t t = 2 + GetParam() % 2;  // t in {2, 3}
  const auto p = lb::GadgetParams::for_linear_separation(t, 1,
                                                         std::min<std::size_t>(4, t + 2));
  const lb::LinearConstruction c(p, t);
  Rng rng(GetParam());
  for (bool intersecting : {true, false}) {
    const auto inst =
        intersecting
            ? comm::make_uniquely_intersecting(p.k, t, rng, 0.4)
            : comm::make_pairwise_disjoint(p.k, t, rng, 0.4);
    comm::Blackboard board(t);
    const auto rep = run_linear_reduction(
        c, inst, congest::universal_maxis_factory(exact_solver()), board,
        universal_cfg(c.num_nodes(), static_cast<graph::Weight>(p.ell)));
    EXPECT_TRUE(rep.algorithm_finished);
    EXPECT_FALSE(rep.net_stats.any_failed);
    EXPECT_TRUE(rep.correct) << "branch intersecting=" << intersecting;
    EXPECT_TRUE(rep.accounting_ok);
    EXPECT_TRUE(rep.cut_accounting_exact);
    EXPECT_EQ(rep.decided_disjoint, !intersecting);
    EXPECT_GT(rep.blackboard_entries, 0u);
    EXPECT_LE(rep.blackboard_bits, rep.theorem5_budget);
    EXPECT_EQ(rep.cut_edges, c.cut_size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearReductionSweep,
                         ::testing::Values(1, 2, 3, 4));

TEST(LinearReduction, BlackboardChargesOnlyCutTraffic) {
  const std::size_t t = 2;
  const auto p = lb::GadgetParams::for_linear_separation(t, 1, 3);
  const lb::LinearConstruction c(p, t);
  Rng rng(11);
  const auto inst = comm::make_uniquely_intersecting(p.k, t, rng, 0.4);
  comm::Blackboard board(t);
  const auto rep = run_linear_reduction(
      c, inst, congest::universal_maxis_factory(exact_solver()), board,
      universal_cfg(c.num_nodes(), static_cast<graph::Weight>(p.ell)));
  // Cut traffic is a strict subset of total traffic (the copies talk
  // internally a lot).
  EXPECT_LT(rep.blackboard_bits, rep.total_bits);
  // Every entry is tagged "msg u->v" with a cut edge {u, v}, charged to the
  // sender's owner, and the entries' bits sum to the reported board bits.
  std::set<std::pair<graph::NodeId, graph::NodeId>> cut;
  for (auto [u, v] : c.cut_edges()) cut.emplace(std::min(u, v), std::max(u, v));
  std::size_t bits = 0;
  for (const auto& entry : board.transcript()) {
    graph::NodeId u = 0, v = 0;
    ASSERT_EQ(std::sscanf(entry.tag.c_str(), "msg %zu->%zu", &u, &v), 2)
        << entry.tag;
    ASSERT_EQ(entry.tag, "msg " + std::to_string(u) + "->" + std::to_string(v));
    ASSERT_TRUE(cut.count({std::min(u, v), std::max(u, v)})) << entry.tag;
    ASSERT_EQ(entry.player, c.owner(u)) << entry.tag;
    ASSERT_NE(c.owner(u), c.owner(v)) << entry.tag;
    bits += entry.bits;
  }
  EXPECT_EQ(bits, rep.blackboard_bits);
  // The first posts of this seed, pinned as literal text.
  ASSERT_GE(board.transcript().size(), 3u);
  EXPECT_EQ(board.transcript()[0].tag, "msg 3->27");
  EXPECT_EQ(board.transcript()[1].tag, "msg 3->28");
  EXPECT_EQ(board.transcript()[2].tag, "msg 3->29");
}

TEST(LinearReduction, ApproximateAlgorithmStillAccountsCorrectly) {
  // weighted-greedy is not exact, so the decision may be wrong — but the
  // Theorem-5 *accounting* must hold regardless of the algorithm.
  const std::size_t t = 2;
  const auto p = lb::GadgetParams::for_linear_separation(t, 1, 3);
  const lb::LinearConstruction c(p, t);
  Rng rng(13);
  const auto inst = comm::make_uniquely_intersecting(p.k, t, rng, 0.4);
  comm::Blackboard board(t);
  congest::NetworkConfig cfg;
  cfg.max_rounds = 100'000;
  const auto rep = run_linear_reduction(c, inst,
                                        congest::weighted_greedy_factory(),
                                        board, cfg);
  EXPECT_TRUE(rep.algorithm_finished);
  EXPECT_TRUE(rep.accounting_ok);
  EXPECT_GT(rep.computed_weight, 0);
}

TEST(QuadraticReduction, UniversalAlgorithmEndToEnd) {
  // Small quadratic instance, t = 2. At this scale the loose Claim-7 bound
  // does not separate, but the exact-OPT decision rule (weight >= yes)
  // still answers correctly on intersecting instances and the accounting
  // always holds.
  const auto p = lb::GadgetParams::from_l_alpha(3, 1, 3);
  const lb::QuadraticConstruction c(p, 2);
  Rng rng(17);
  const auto inst =
      comm::make_uniquely_intersecting(c.string_length(), 2, rng, 0.5);
  comm::Blackboard board(2);
  const auto rep = run_quadratic_reduction(
      c, inst, congest::universal_maxis_factory(exact_solver()), board,
      universal_cfg(c.num_nodes(), static_cast<graph::Weight>(p.ell)));
  EXPECT_TRUE(rep.algorithm_finished);
  EXPECT_TRUE(rep.accounting_ok);
  EXPECT_FALSE(rep.decided_disjoint);  // YES branch: weight >= yes_weight
  EXPECT_TRUE(rep.correct);
  EXPECT_GT(rep.blackboard_entries, 0u);
}

TEST(QuadraticReduction, NoBranchDecidedByExactOptimum) {
  // At small scale the loose Claim-7 bound does not separate, but the
  // exact optimum on pairwise-disjoint inputs stays strictly below the
  // YES weight (measured in bench_gap_quadratic), so the exact-algorithm
  // decision rule is still correct on the NO branch.
  const auto p = lb::GadgetParams::from_l_alpha(3, 1, 3);
  const lb::QuadraticConstruction c(p, 2);
  Rng rng(23);
  const auto inst =
      comm::make_pairwise_disjoint(c.string_length(), 2, rng, 0.5);
  comm::Blackboard board(2);
  const auto rep = run_quadratic_reduction(
      c, inst, congest::universal_maxis_factory(exact_solver()), board,
      universal_cfg(c.num_nodes(), static_cast<graph::Weight>(p.ell)));
  EXPECT_TRUE(rep.algorithm_finished);
  EXPECT_TRUE(rep.decided_disjoint);
  EXPECT_TRUE(rep.correct);
  EXPECT_LT(rep.computed_weight, rep.yes_weight);
}

TEST(Reduction, RejectsForeignObserver) {
  const auto p = lb::GadgetParams::for_linear_separation(2, 1, 3);
  const lb::LinearConstruction c(p, 2);
  Rng rng(3);
  const auto inst = comm::make_pairwise_disjoint(p.k, 2, rng, 0.3);
  comm::Blackboard board(2);
  congest::NetworkConfig cfg;
  cfg.on_message = [](std::size_t, graph::NodeId, graph::NodeId,
                      const congest::Message&) {};
  EXPECT_THROW(run_linear_reduction(c, inst,
                                    congest::weighted_greedy_factory(), board,
                                    cfg),
               InvariantError);
}

TEST(Reduction, RejectsMismatchedBlackboard) {
  const auto p = lb::GadgetParams::for_linear_separation(3, 1, 4);
  const lb::LinearConstruction c(p, 3);
  Rng rng(3);
  const auto inst = comm::make_pairwise_disjoint(p.k, 3, rng, 0.3);
  comm::Blackboard board(2);  // wrong player count
  EXPECT_THROW(run_linear_reduction(c, inst,
                                    congest::weighted_greedy_factory(), board,
                                    {}),
               InvariantError);
}

}  // namespace
}  // namespace congestlb::sim
