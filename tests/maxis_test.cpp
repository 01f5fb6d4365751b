// Exact MaxIS solvers: brute force vs branch-and-bound agreement, verifier
// rejections, budget enforcement.

#include <gtest/gtest.h>

#include "maxis/brute_force.hpp"
#include "maxis/branch_and_bound.hpp"
#include "maxis/bitset.hpp"
#include "maxis/verify.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::maxis {
namespace {

graph::Graph random_graph(Rng& rng, std::size_t n, double p,
                          graph::Weight max_w) {
  graph::Graph g(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    g.set_weight(v, static_cast<graph::Weight>(1 + rng.below(max_w)));
  }
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(p)) g.add_edge(u, v);
    }
  }
  return g;
}

// ------------------------------------------------------------------ bitset --

TEST(Bitset, SetResetTestCount) {
  Bitset b(130);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  EXPECT_EQ(b.first(), 0u);
  b.reset(0);
  EXPECT_EQ(b.first(), 64u);
  EXPECT_TRUE(b.any());
  b.reset(64);
  b.reset(129);
  EXPECT_FALSE(b.any());
  EXPECT_EQ(b.first(), 130u);
}

TEST(Bitset, AndAndNot) {
  Bitset a(70), b(70);
  a.set(3);
  a.set(65);
  a.set(69);
  b.set(65);
  b.set(69);
  Bitset c = a & b;
  EXPECT_EQ(c.count(), 2u);
  EXPECT_FALSE(c.test(3));
  a.and_not(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_TRUE(a.test(3));
}

TEST(Bitset, BoundsChecked) {
  Bitset b(10);
  EXPECT_THROW(b.set(10), InvariantError);
  EXPECT_THROW(b.test(11), InvariantError);
  Bitset other(11);
  EXPECT_THROW(b &= other, InvariantError);
}

/// Random row mixing all-zero, sparse, uniform and dense words, so
/// first_bit hits both early-exit and full-scan paths.
std::vector<std::uint64_t> random_row(Rng& rng, std::size_t nw) {
  std::vector<std::uint64_t> row(nw);
  for (auto& w : row) {
    switch (rng.below(4)) {
      case 0: w = 0; break;
      case 1: w = rng.next(); break;
      case 2: w = rng.next() & rng.next() & rng.next(); break;
      default: w = rng.next() | rng.next(); break;
    }
  }
  return row;
}

/// The words:: loops against a bit-at-a-time reference, on short rows
/// and on one 4096-word row (the large-component case).
TEST(WordLoops, MatchBitAtATimeReference) {
  Rng rng(0x51D0'0002);
  std::vector<std::size_t> sizes;
  for (std::size_t nw = 1; nw <= 20; ++nw) sizes.push_back(nw);
  sizes.push_back(4096);
  for (const std::size_t nw : sizes) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto a = random_row(rng, nw);
      const auto b = random_row(rng, nw);
      const std::size_t bits = 64 * nw;
      std::vector<std::uint64_t> ref_and(nw, 0), ref_andnot(nw, 0);
      std::size_t ref_pop = 0, ref_first = bits;
      for (std::size_t i = 0; i < bits; ++i) {
        const bool x = words::test_bit(a.data(), i);
        const bool y = words::test_bit(b.data(), i);
        if (x && y) words::set_bit(ref_and.data(), i);
        if (x && !y) words::set_bit(ref_andnot.data(), i);
        ref_pop += x;
        if (x && ref_first == bits) ref_first = i;
      }
      SCOPED_TRACE("nw=" + std::to_string(nw));
      std::vector<std::uint64_t> got(nw);
      words::and_rows(got.data(), a.data(), b.data(), nw);
      EXPECT_EQ(got, ref_and);
      words::and_not_rows(got.data(), a.data(), b.data(), nw);
      EXPECT_EQ(got, ref_andnot);
      EXPECT_EQ(words::popcount(a.data(), nw), ref_pop);
      EXPECT_EQ(words::first_bit(a.data(), nw, bits), ref_first);
      // dst aliasing a source, as the solver's in-place narrowing does.
      got = a;
      words::and_rows(got.data(), got.data(), b.data(), nw);
      EXPECT_EQ(got, ref_and);
    }
  }
}

// ------------------------------------------------------------------ verify --

TEST(Verify, CheckedAcceptsAndSorts) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.set_weight(2, 5);
  const IsSolution sol = checked(g, {3, 2, 0});
  EXPECT_EQ(sol.nodes, (std::vector<graph::NodeId>{0, 2, 3}));
  EXPECT_EQ(sol.weight, 7);
}

TEST(Verify, CheckedRejectsNonIndependent) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(checked(g, {0, 1}), InvariantError);
  EXPECT_THROW(checked(g, {0, 0}), InvariantError);
}

TEST(Verify, ApproximationRatio) {
  EXPECT_DOUBLE_EQ(approximation_ratio(5, 10), 0.5);
  EXPECT_DOUBLE_EQ(approximation_ratio(10, 10), 1.0);
  EXPECT_THROW(approximation_ratio(5, 0), InvariantError);
  EXPECT_THROW(approximation_ratio(11, 10), InvariantError);
}

// -------------------------------------------------------------- brute force --

TEST(BruteForce, HandComputedCases) {
  // Path 0-1-2: optimum {0,2} = 2 (unit weights).
  graph::Graph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  EXPECT_EQ(solve_brute_force(path).weight, 2);
  // With a heavy middle, the middle alone wins.
  path.set_weight(1, 5);
  const auto sol = solve_brute_force(path);
  EXPECT_EQ(sol.weight, 5);
  EXPECT_EQ(sol.nodes, (std::vector<graph::NodeId>{1}));
}

TEST(BruteForce, EmptyAndEdgelessGraphs) {
  EXPECT_EQ(solve_brute_force(graph::Graph(0)).weight, 0);
  graph::Graph g(6, 2);
  EXPECT_EQ(solve_brute_force(g).weight, 12);
}

TEST(BruteForce, CliqueTakesHeaviest) {
  graph::Graph g(5);
  std::vector<graph::NodeId> all{0, 1, 2, 3, 4};
  g.add_clique(all);
  g.set_weight(3, 9);
  const auto sol = solve_brute_force(g);
  EXPECT_EQ(sol.weight, 9);
  EXPECT_EQ(sol.nodes, (std::vector<graph::NodeId>{3}));
}

TEST(BruteForce, SizeLimitEnforced) {
  EXPECT_THROW(solve_brute_force(graph::Graph(kBruteForceLimit + 1)),
               InvariantError);
}

// --------------------------------------------------------- branch and bound --

class ExactAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactAgreement, BnBMatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + rng.below(18);
    const double p = 0.1 + 0.6 * rng.uniform();
    auto g = random_graph(rng, n, p, 7);
    const auto brute = solve_brute_force(g);
    const auto bnb = solve_branch_and_bound(g);
    EXPECT_EQ(bnb.solution.weight, brute.weight)
        << "n=" << n << " p=" << p << " trial=" << trial;
    EXPECT_TRUE(g.is_independent_set(bnb.solution.nodes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactAgreement,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38));

TEST(BranchAndBound, EmptyGraph) {
  EXPECT_EQ(solve_branch_and_bound(graph::Graph(0)).solution.weight, 0);
}

TEST(BranchAndBound, ZeroWeightsAllowed) {
  graph::Graph g(3);
  g.set_weight(0, 0);
  g.set_weight(1, 0);
  g.set_weight(2, 0);
  EXPECT_EQ(solve_exact(g).weight, 0);
}

TEST(BranchAndBound, NegativeWeightsRejected) {
  graph::Graph g(2);
  g.set_weight(0, -1);
  EXPECT_THROW(solve_exact(g), InvariantError);
}

TEST(BranchAndBound, SearchBudgetEnforced) {
  Rng rng(77);
  auto g = random_graph(rng, 60, 0.1, 3);
  BnBOptions opts;
  opts.max_search_nodes = 5;
  EXPECT_THROW(solve_branch_and_bound(g, opts), InvariantError);
}

TEST(BranchAndBound, CliqueCoverBoundMakesUnionsOfCliquesEasy) {
  // 20 disjoint cliques of 10 nodes: bound is exact, so the search explores
  // only a linear number of nodes.
  graph::Graph g(200);
  for (int c = 0; c < 20; ++c) {
    std::vector<graph::NodeId> clique;
    for (int i = 0; i < 10; ++i) clique.push_back(c * 10 + i);
    g.add_clique(clique);
    g.set_weight(clique[3], 4);
  }
  const auto res = solve_branch_and_bound(g);
  EXPECT_EQ(res.solution.weight, 20 * 4);
  EXPECT_LT(res.search_nodes, 2000u);
}

}  // namespace
}  // namespace congestlb::maxis
