// Theorem 5 end-to-end: t players simulate a CONGEST algorithm on the
// lower-bound graphs, cut messages land on the blackboard, the gap
// predicate answers promise disjointness, and the bit accounting holds.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "congest/algorithms/universal_maxis.hpp"
#include "congest/algorithms/weighted_greedy.hpp"
#include "delivery_log.hpp"
#include "maxis/branch_and_bound.hpp"
#include "sim/reduction.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::sim {
namespace {

congest::LocalMaxIsSolver exact_solver() {
  return [](const graph::Graph& g) { return maxis::solve_exact(g).nodes; };
}

/// The construction's player partition as a per-node owner table.
template <typename Construction>
std::vector<std::size_t> owner_table(const Construction& c,
                                     const graph::Graph& g) {
  std::vector<std::size_t> owner(g.num_nodes());
  for (graph::NodeId v = 0; v < owner.size(); ++v) owner[v] = c.owner(v);
  return owner;
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
  // Expanded per cut edge, every record becomes deliveries u->v over cut
  // edges {u, v}, charged to the sender's owner, and their bits sum to the
  // reported board bits.
  const graph::Graph gx = c.instantiate(inst);
  const std::vector<std::size_t> owner = owner_table(c, gx);
  std::set<std::pair<graph::NodeId, graph::NodeId>> cut;
  for (auto [u, v] : c.cut_edges()) cut.emplace(std::min(u, v), std::max(u, v));
  const auto posts = congest::expand_board(board, gx, owner);
  std::size_t bits = 0;
  for (const auto& d : posts) {
    ASSERT_TRUE(cut.count({std::min(d.from, d.to), std::max(d.from, d.to)}))
        << d.from << "->" << d.to;
    ASSERT_EQ(d.player, c.owner(d.from)) << d.from << "->" << d.to;
    ASSERT_NE(c.owner(d.from), c.owner(d.to)) << d.from << "->" << d.to;
    bits += d.bits;
  }
  EXPECT_EQ(bits, rep.blackboard_bits);
  EXPECT_EQ(posts.size(), rep.blackboard_entries);
  // One record per boundary sender per round: far fewer than deliveries.
  EXPECT_EQ(board.written_records(), rep.board_records_written);
  EXPECT_LT(rep.board_records_written, rep.blackboard_entries);
  // The first posts of this seed, pinned as literal text.
  ASSERT_GE(posts.size(), 3u);
  const auto text = [&](std::size_t i) {
    return "msg " + std::to_string(posts[i].from) + "->" +
           std::to_string(posts[i].to);
  };
  EXPECT_EQ(text(0), "msg 3->27");
  EXPECT_EQ(text(1), "msg 3->28");
  EXPECT_EQ(text(2), "msg 3->29");
}

TEST(LinearReduction, ObserverCallsAreTheCutPostsOnly) {
  // The driver hands the network its owner table, so the hook runs once
  // per round with one entry per boundary sender that sent — one board
  // record each — not once per message or per delivery. A twin network
  // with the same owner table and a counting hook counts those entries;
  // cut_accounting_exact still compares the posted bits against
  // bits_on_edge over cut_edges(), a tally of its own.
  const std::size_t t = 2;
  const auto p = lb::GadgetParams::for_linear_separation(t, 1, 3);
  const lb::LinearConstruction c(p, t);
  Rng rng(11);
  const auto inst = comm::make_uniquely_intersecting(p.k, t, rng, 0.4);
  const auto factory = congest::universal_maxis_factory(exact_solver());
  const auto cfg =
      universal_cfg(c.num_nodes(), static_cast<graph::Weight>(p.ell));
  comm::Blackboard board(t);
  const auto rep = run_linear_reduction(c, inst, factory, board, cfg);
  ASSERT_TRUE(rep.correct);
  EXPECT_TRUE(rep.cut_accounting_exact);

  const graph::Graph gx = c.instantiate(inst);
  const std::vector<std::size_t> owner = owner_table(c, gx);
  std::uint64_t calls = 0;
  std::uint64_t entries = 0;
  std::uint64_t charged = 0;
  std::uint64_t bits = 0;
  std::uint64_t written_bits = 0;
  auto counted = cfg;
  counted.owner = owner;
  counted.on_cut_sends = [&](std::size_t,
                             std::span<const congest::CutSend> sends) {
    ++calls;
    entries += sends.size();
    for (const congest::CutSend& s : sends) {
      charged += s.multiplicity;
      bits += s.msg->bits * s.multiplicity;
      written_bits += s.msg->bits;
    }
  };
  congest::Network net(gx, factory, counted);
  EXPECT_EQ(net.run(), rep.net_stats);
  EXPECT_EQ(calls, rep.rounds);
  EXPECT_EQ(entries, rep.board_records_written);
  EXPECT_EQ(written_bits, rep.board_bits_written);
  EXPECT_EQ(charged, rep.blackboard_entries);
  EXPECT_EQ(bits, rep.blackboard_bits);
  EXPECT_LT(charged, rep.net_stats.messages_sent);
  EXPECT_LT(entries, charged);
}

TEST(LinearReduction, BlockedGadgetPostsTheMaterializedBoard) {
  // G_xbar with its inter-copy anti-matchings and cliques as implicit
  // blocks; the driver's owner table lists its cut over the merged
  // neighbors. The board must be the materialized twin's, entry for entry.
  const std::size_t t = 3;
  const auto p = lb::GadgetParams::for_linear_separation(t, 1);
  const lb::LinearConstruction plain(p, t);
  lb::BuildOptions opts;
  opts.implicit_threshold = 1;
  const lb::LinearConstruction blocked(p, t, opts);
  ASSERT_TRUE(blocked.fixed_graph().has_implicit_blocks());
  Rng rng(5);
  const auto inst = comm::make_uniquely_intersecting(p.k, t, rng, 0.3);
  const auto factory = congest::universal_maxis_factory(exact_solver());
  auto cfg = universal_cfg(plain.num_nodes(), static_cast<graph::Weight>(p.ell));
  comm::Blackboard blocked_board(t);
  const auto rep = run_linear_reduction(blocked, inst, factory,
                                        blocked_board, cfg);
  comm::Blackboard twin_board(t);
  const auto twin = run_linear_reduction(plain, inst, factory, twin_board, cfg);
  EXPECT_TRUE(rep.correct);
  EXPECT_TRUE(rep.cut_accounting_exact);
  EXPECT_EQ(rep.net_stats, twin.net_stats);
  ASSERT_GT(rep.blackboard_entries, 0u);
  ASSERT_EQ(rep.blackboard_entries, twin.blackboard_entries);
  ASSERT_EQ(rep.board_records_written, twin.board_records_written);
  const auto got = blocked_board.transcript();
  const auto want = twin_board.transcript();
  for (std::size_t i = 0; i < want.size(); ++i) {
    const comm::BoardEntry a = got[i];
    const comm::BoardEntry b = want[i];
    ASSERT_EQ(a.player, b.player) << "entry " << i;
    ASSERT_EQ(a.bits, b.bits) << "entry " << i;
    ASSERT_EQ(a.sender, b.sender) << "entry " << i;
    ASSERT_EQ(a.multiplicity, b.multiplicity) << "entry " << i;
    ASSERT_TRUE(std::ranges::equal(a.data, b.data)) << "entry " << i;
  }
}

/// One linear reduction's report and its board records, field by field.
struct RecordedRun {
  ReductionReport rep;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                         std::vector<std::byte>>>
      records;
};

RecordedRun record_linear_reduction(const lb::LinearConstruction& c,
                                    const comm::PromiseInstance& inst,
                                    const congest::ProgramFactory& factory,
                                    const congest::NetworkConfig& cfg) {
  comm::Blackboard board(inst.t);
  RecordedRun r{run_linear_reduction(c, inst, factory, board, cfg), {}};
  for (const comm::BoardEntry e : board.transcript()) {
    r.records.emplace_back(e.player, e.sender, e.multiplicity, e.bits,
                           std::vector<std::byte>(e.data.begin(),
                                                  e.data.end()));
  }
  return r;
}

/// Every report field and board record of `got` equals `want`'s.
void expect_same_run(const RecordedRun& got, const RecordedRun& want) {
  EXPECT_EQ(got.rep.rounds, want.rep.rounds);
  EXPECT_EQ(got.rep.net_stats, want.rep.net_stats);
  EXPECT_EQ(got.rep.blackboard_bits, want.rep.blackboard_bits);
  EXPECT_EQ(got.rep.blackboard_entries, want.rep.blackboard_entries);
  EXPECT_EQ(got.rep.board_records_written, want.rep.board_records_written);
  EXPECT_EQ(got.rep.board_bits_written, want.rep.board_bits_written);
  EXPECT_EQ(got.rep.cut_bits_per_round, want.rep.cut_bits_per_round);
  EXPECT_EQ(got.rep.computed_weight, want.rep.computed_weight);
  EXPECT_EQ(got.rep.decided_disjoint, want.rep.decided_disjoint);
  EXPECT_EQ(got.rep.correct, want.rep.correct);
  EXPECT_EQ(got.rep.cut_accounting_exact, want.rep.cut_accounting_exact);
  EXPECT_EQ(got.records, want.records);
}

TEST(LinearReduction, ReportsIdenticalAcrossThreadCounts) {
  // The hook runs serially after each round, so the report and the board
  // records are the same for every num_threads. Every node learns the same
  // G_xbar, so each run calls the local solver once, whichever shard's
  // node learns it first, and sharing its solution changes nothing.
  const std::size_t t = 3;
  const auto p = lb::GadgetParams::for_linear_separation(t, 1);
  const lb::LinearConstruction c(p, t);
  Rng rng(7);
  const auto inst = comm::make_uniquely_intersecting(p.k, t, rng);
  auto cfg = universal_cfg(c.num_nodes(), static_cast<graph::Weight>(p.ell));
  const RecordedRun want = record_linear_reduction(
      c, inst, congest::universal_maxis_factory(exact_solver()), cfg);
  ASSERT_TRUE(want.rep.correct);
  ASSERT_TRUE(want.rep.cut_accounting_exact);
  ASSERT_EQ(want.records.size(), want.rep.board_records_written);
  for (std::size_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::size_t calls = 0;  // unsynchronized: the memo's lock orders calls
    const auto counting =
        congest::universal_maxis_factory([&calls](const graph::Graph& g) {
          ++calls;
          return maxis::solve_exact(g).nodes;
        });
    cfg.num_threads = threads;
    expect_same_run(record_linear_reduction(c, inst, counting, cfg), want);
    EXPECT_EQ(calls, 1u);
  }
}

TEST(LinearReduction, EachRunSolvesAgain) {
  // The shared solution lives only as long as one run's programs: a second
  // run from the same factory solves its graph again.
  const std::size_t t = 2;
  const auto p = lb::GadgetParams::for_linear_separation(t, 1, 3);
  const lb::LinearConstruction c(p, t);
  Rng rng(11);
  const auto inst = comm::make_uniquely_intersecting(p.k, t, rng, 0.4);
  const auto cfg =
      universal_cfg(c.num_nodes(), static_cast<graph::Weight>(p.ell));
  std::size_t calls = 0;
  const auto counting =
      congest::universal_maxis_factory([&calls](const graph::Graph& g) {
        ++calls;
        return maxis::solve_exact(g).nodes;
      });
  const RecordedRun first = record_linear_reduction(c, inst, counting, cfg);
  EXPECT_EQ(calls, 1u);
  const RecordedRun second = record_linear_reduction(c, inst, counting, cfg);
  EXPECT_EQ(calls, 2u);
  EXPECT_TRUE(first.rep.correct);
  expect_same_run(second, first);
}

TEST(LinearReduction, ReusedBoardReportsThisRunOnly) {
  // Every run on a shared board must report what a fresh board reports:
  // its own posts, checked against its own budget.
  const std::size_t t = 2;
  const auto p = lb::GadgetParams::for_linear_separation(t, 1, 3);
  const lb::LinearConstruction c(p, t);
  Rng rng(11);
  const auto inst = comm::make_uniquely_intersecting(p.k, t, rng, 0.4);
  const auto cfg =
      universal_cfg(c.num_nodes(), static_cast<graph::Weight>(p.ell));
  const auto factory = congest::universal_maxis_factory(exact_solver());
  comm::Blackboard fresh(t);
  const auto want = run_linear_reduction(c, inst, factory, fresh, cfg);
  ASSERT_TRUE(want.accounting_ok);
  comm::Blackboard shared(t);
  for (int run = 0; run < 3; ++run) {
    const auto rep = run_linear_reduction(c, inst, factory, shared, cfg);
    EXPECT_EQ(rep.blackboard_bits, want.blackboard_bits) << "run " << run;
    EXPECT_EQ(rep.blackboard_entries, want.blackboard_entries) << "run " << run;
    EXPECT_EQ(rep.theorem5_budget, want.theorem5_budget) << "run " << run;
    EXPECT_EQ(rep.accounting_ok, want.accounting_ok) << "run " << run;
    EXPECT_EQ(rep.cut_accounting_exact, want.cut_accounting_exact);
    EXPECT_EQ(rep.correct, want.correct) << "run " << run;
  }
  EXPECT_EQ(shared.total_bits(), 3 * want.blackboard_bits);
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
  cfg.on_cut_sends = [](std::size_t, std::span<const congest::CutSend>) {};
  EXPECT_THROW(run_linear_reduction(c, inst,
                                    congest::weighted_greedy_factory(), board,
                                    cfg),
               InvariantError);
}

TEST(Reduction, RejectsForeignOwnerTable) {
  const auto p = lb::GadgetParams::for_linear_separation(2, 1, 3);
  const lb::LinearConstruction c(p, 2);
  Rng rng(3);
  const auto inst = comm::make_pairwise_disjoint(p.k, 2, rng, 0.3);
  comm::Blackboard board(2);
  const std::vector<std::size_t> owner(c.num_nodes(), 0);
  congest::NetworkConfig cfg;
  cfg.owner = owner;
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
