// The linear lower-bound family (Section 4): Properties 1-3, Claims 1-3
// and 5, Lemma 1/2 gap behavior, Definition 4 locality, cut structure,
// and the Figure 2/3 worked examples.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "comm/instances.hpp"
#include "graph/matching.hpp"
#include "lowerbound/framework.hpp"
#include "lowerbound/linear_family.hpp"
#include "maxis/branch_and_bound.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::lb {
namespace {

// --------------------------------------------------------------- structure --

TEST(LinearConstruction, NodeAndCutCounts) {
  const auto p = GadgetParams::from_l_alpha(2, 1, 3);  // Figure 1/3 params
  const LinearConstruction c(p, 3);
  EXPECT_EQ(c.num_nodes(), 3 * 12u);
  // Cut: C(3,2) pairs * 3 positions * p(p-1) = 3 * 3 * 6 = 54.
  EXPECT_EQ(c.cut_size(), 54u);
  EXPECT_EQ(c.cut_edges().size(), c.cut_size());
}

TEST(LinearConstruction, CutFormulaMatchesActualAcrossShapes) {
  for (auto [ell, alpha, t] : {std::tuple<std::size_t, std::size_t, std::size_t>{2, 1, 2},
                               {3, 1, 4},
                               {3, 2, 3},
                               {5, 1, 2}}) {
    const auto p = GadgetParams::from_l_alpha(ell, alpha);
    const LinearConstruction c(p, t);
    EXPECT_EQ(c.cut_edges().size(), c.cut_size())
        << "ell=" << ell << " alpha=" << alpha << " t=" << t;
  }
}

TEST(LinearConstruction, Figure2AntiMatchingPattern) {
  // sigma^i_(h,r) is connected to all of C^j_h except sigma^j_(h,r).
  const auto p = GadgetParams::from_l_alpha(2, 1, 3);
  const LinearConstruction c(p, 2);
  const auto& g = c.fixed_graph();
  for (std::size_t h = 0; h < p.num_positions(); ++h) {
    for (std::size_t r1 = 0; r1 < p.clique_size(); ++r1) {
      for (std::size_t r2 = 0; r2 < p.clique_size(); ++r2) {
        EXPECT_EQ(g.has_edge(c.code_node(0, h, r1), c.code_node(1, h, r2)),
                  r1 != r2)
            << "h=" << h << " r1=" << r1 << " r2=" << r2;
      }
    }
  }
}

TEST(LinearConstruction, NoEdgesBetweenACliquesOfDifferentCopies) {
  const auto p = GadgetParams::from_l_alpha(2, 1, 3);
  const LinearConstruction c(p, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      for (std::size_t m1 = 0; m1 < p.k; ++m1) {
        for (std::size_t m2 = 0; m2 < p.k; ++m2) {
          EXPECT_FALSE(c.fixed_graph().has_edge(c.a_node(i, m1), c.a_node(j, m2)));
        }
        // Also no A^i to Code^j edges.
        for (std::size_t h = 0; h < p.num_positions(); ++h) {
          for (std::size_t r = 0; r < p.clique_size(); ++r) {
            EXPECT_FALSE(
                c.fixed_graph().has_edge(c.a_node(i, m1), c.code_node(j, h, r)));
          }
        }
      }
    }
  }
}

/// G built the way the construction used to be: every copy's cliques and
/// codeword stars regenerated into one edge list, then the grids, then one
/// add_edges — the reference the tiled build must reproduce exactly.
graph::Graph reference_linear(const GadgetParams& p, std::size_t t,
                              std::size_t threshold) {
  const BaseGadget h(p);
  const std::size_t npc = p.nodes_per_copy();
  const std::size_t q = p.clique_size();
  graph::Graph g(t * npc);
  g.set_implicit_block_threshold(threshold);
  graph::EdgeList edges;
  for (std::size_t i = 0; i < t; ++i) {
    const NodeId off = i * npc;
    const auto shifted = [off](std::vector<NodeId> nodes) {
      for (NodeId& v : nodes) v += off;
      return nodes;
    };
    g.add_clique(shifted(h.a_nodes()), edges);
    for (std::size_t pos = 0; pos < p.num_positions(); ++pos) {
      g.add_clique(shifted(h.clique_nodes(pos)), edges);
    }
    for (std::size_t m = 0; m < p.k; ++m) {
      for (std::size_t pos = 0; pos < p.num_positions(); ++pos) {
        for (std::size_t r = 0; r < q; ++r) {
          if (r != h.codeword(m)[pos]) {
            edges.emplace_back(off + h.a_node(m), off + h.code_node(pos, r));
          }
        }
      }
    }
    for (NodeId local = 0; local < npc; ++local) {
      std::string label = h.graph().label(local);
      label += '^';
      label += std::to_string(i + 1);
      g.set_label(off + local, std::move(label));
    }
  }
  for (std::size_t pos = 0; pos < p.num_positions(); ++pos) {
    g.add_anti_matching_grid(p.k + pos * q, npc, t, q, edges);
  }
  g.add_edges(edges);
  return g;
}

TEST(LinearConstruction, TiledBuildEqualsPerCopyReference) {
  for (const auto& p : {GadgetParams::from_l_alpha(2, 1, 3),
                        GadgetParams::from_l_alpha(3, 1)}) {
    const std::size_t q = p.clique_size();
    // Above every per-copy clique, at or below every grid: only the grids
    // become blocks.
    const std::size_t grids_only =
        std::max(p.k * (p.k - 1) / 2, q * (q - 1) / 2) + 1;
    for (std::size_t threshold :
         {graph::Graph::kNeverImplicit, std::size_t{1}, grids_only}) {
      for (std::size_t t : {2, 3, 5}) {
        BuildOptions opts;
        opts.implicit_threshold = threshold;
        const LinearConstruction c(p, t, opts);
        const graph::Graph want = reference_linear(p, t, threshold);
        const auto& g = c.fixed_graph();
        SCOPED_TRACE(testing::Message() << "k=" << p.k << " t=" << t
                                        << " threshold=" << threshold);
        EXPECT_EQ(g, want);
        EXPECT_EQ(g.csr(), want.csr());
        EXPECT_EQ(g.implicit_blocks(), want.implicit_blocks());
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(g.label(v), want.label(v)) << "node " << v;
        }
        if (threshold == grids_only) {
          EXPECT_EQ(g.implicit_blocks().size(), p.num_positions());
        }
      }
    }
  }
}

TEST(LinearConstruction, PartitionIsContiguousAndComplete) {
  const auto p = GadgetParams::from_l_alpha(3, 1);
  const LinearConstruction c(p, 4);
  std::size_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto part = c.partition(i);
    total += part.size();
    for (graph::NodeId v : part) EXPECT_EQ(c.owner(v), i);
  }
  EXPECT_EQ(total, c.num_nodes());
  EXPECT_THROW(c.partition(4), InvariantError);
  EXPECT_THROW(c.owner(c.num_nodes()), InvariantError);
}

TEST(LinearConstruction, RequiresTwoPlayers) {
  const auto p = GadgetParams::from_l_alpha(2, 1);
  EXPECT_THROW(LinearConstruction(p, 1), InvariantError);
}

// ------------------------------------------------------------- properties --

class PropertySweep : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {
 protected:
  GadgetParams params() const {
    auto [ell, alpha, t] = GetParam();
    return GadgetParams::from_l_alpha(ell, alpha);
  }
  std::size_t t() const { return std::get<2>(GetParam()); }
};

TEST_P(PropertySweep, Property1WitnessIsIndependent) {
  const auto p = params();
  const LinearConstruction c(p, t());
  for (std::size_t m = 0; m < p.k; ++m) {
    const auto witness = c.yes_witness(m);
    EXPECT_TRUE(c.fixed_graph().is_independent_set(witness)) << "m=" << m;
    EXPECT_EQ(witness.size(), t() * (1 + p.num_positions()));
  }
}

TEST_P(PropertySweep, Property2CrossCodewordMatchingAtLeastEll) {
  const auto p = params();
  const LinearConstruction c(p, t());
  Rng rng(17);
  const std::size_t trials = std::min<std::size_t>(p.k * (p.k - 1), 20);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::size_t m1 = rng.below(p.k);
    std::size_t m2 = rng.below(p.k - 1);
    if (m2 >= m1) ++m2;
    const std::size_t i = rng.below(t());
    std::size_t j = rng.below(t() - 1);
    if (j >= i) ++j;
    const auto left = c.codeword_nodes(i, m1);
    const auto right = c.codeword_nodes(j, m2);
    const auto matching =
        graph::max_bipartite_matching(c.fixed_graph(), left, right);
    EXPECT_GE(matching.size(), p.ell)
        << "m1=" << m1 << " m2=" << m2 << " i=" << i << " j=" << j;
  }
}

TEST_P(PropertySweep, Property3SharedPositionsAtMostAlpha) {
  // For any IS containing nodes from Code^i_{m1} and Code^j_{m2} (m1 != m2),
  // at most alpha positions h can host *both* selected nodes — because
  // sigma^i_(h,r1) ~ sigma^j_(h,r2) whenever r1 != r2 and the codewords
  // agree in at most alpha positions.
  const auto p = params();
  const LinearConstruction c(p, t());
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m1 = rng.below(p.k);
    std::size_t m2 = rng.below(p.k - 1);
    if (m2 >= m1) ++m2;
    const auto left = c.codeword_nodes(0, m1);
    const auto right = c.codeword_nodes(1 % t(), m2);
    // Greedily build an IS inside left ∪ right, maximizing both-position
    // picks: a position h can host both iff the two nodes are non-adjacent,
    // i.e. the codewords share symbol at h.
    std::size_t both = 0;
    for (std::size_t h = 0; h < p.num_positions(); ++h) {
      if (!c.fixed_graph().has_edge(left[h], right[h])) ++both;
    }
    EXPECT_LE(both, p.alpha) << "m1=" << m1 << " m2=" << m2;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PropertySweep,
    ::testing::Values(std::tuple(2, 1, 2), std::tuple(3, 1, 3),
                      std::tuple(3, 2, 2), std::tuple(4, 2, 3),
                      std::tuple(5, 1, 4), std::tuple(4, 1, 5)));

// --------------------------------------------------------------- weights --

TEST(LinearInstantiate, WeightsFollowStrings) {
  const auto p = GadgetParams::from_l_alpha(3, 1, 4);
  const LinearConstruction c(p, 2);
  Rng rng(5);
  const auto inst = comm::make_pairwise_disjoint(4, 2, rng, 0.5);
  const auto g = c.instantiate(inst);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t m = 0; m < 4; ++m) {
      EXPECT_EQ(g.weight(c.a_node(i, m)),
                inst.strings[i][m] ? static_cast<graph::Weight>(p.ell) : 1);
    }
  }
  // Code nodes stay unit weight.
  EXPECT_EQ(g.weight(c.code_node(0, 0, 0)), 1);
}

TEST(LinearInstantiate, RejectsMismatchedInstance) {
  const auto p = GadgetParams::from_l_alpha(3, 1, 4);
  const LinearConstruction c(p, 2);
  Rng rng(5);
  const auto wrong_k = comm::make_pairwise_disjoint(5, 2, rng);
  EXPECT_THROW(c.instantiate(wrong_k), InvariantError);
  const auto wrong_t = comm::make_pairwise_disjoint(4, 3, rng);
  EXPECT_THROW(c.instantiate(wrong_t), InvariantError);
}

TEST(LinearInstantiate, RejectsPromiseViolation) {
  const auto p = GadgetParams::from_l_alpha(3, 1, 4);
  const LinearConstruction c(p, 3);
  comm::PromiseInstance bad;
  bad.k = 4;
  bad.t = 3;
  bad.kind = comm::PromiseKind::kPairwiseDisjoint;
  bad.strings = {{1, 1, 0, 0}, {1, 0, 1, 0}, {0, 1, 1, 0}};
  EXPECT_THROW(c.instantiate(bad), InvariantError);
}

// ---------------------------------------------------- Definition 4 locality --

TEST(LinearFamily, Definition4Condition1) {
  // Toggle player i's string; only V^i weights may change, no edges ever.
  const auto p = GadgetParams::from_l_alpha(3, 1, 4);
  const std::size_t t = 3;
  const LinearConstruction c(p, t);
  Rng rng(11);
  for (std::size_t i = 0; i < t; ++i) {
    const auto a = comm::make_pairwise_disjoint(4, t, rng, 0.5);
    auto b = a;
    // Flip player i's string to a fresh draw from its own pool (keeps the
    // promise: pools are disjoint per player).
    for (std::size_t m = i; m < 4; m += t) {
      b.strings[i][m] ^= 1;
    }
    if (comm::classify(b.strings) != comm::InstanceClass::kPairwiseDisjoint) {
      continue;  // extremely unlikely; regenerate next i
    }
    const auto [lo, hi] = c.partition_range(i);
    const auto diff =
        verify_partition_locality(c.instantiate(a), c.instantiate(b), lo, hi);
    EXPECT_TRUE(diff.ok) << "player " << i;
    EXPECT_EQ(diff.edge_diffs_inside, 0u);   // linear family: weights only
    EXPECT_EQ(diff.edge_diffs_outside, 0u);
  }
}

// ------------------------------------------------------------ gap claims --

struct ClaimCase {
  std::size_t ell, alpha, k, t;
};

class ClaimSweep : public ::testing::TestWithParam<ClaimCase> {};

TEST_P(ClaimSweep, Claim3YesInstancesReachTheBound) {
  const auto [ell, alpha, k, t] = GetParam();
  const auto p = GadgetParams::from_l_alpha(ell, alpha, k);
  const LinearConstruction c(p, t);
  Rng rng(100 + t);
  for (int trial = 0; trial < 3; ++trial) {
    const auto inst = comm::make_uniquely_intersecting(k, t, rng, 0.3);
    const auto g = c.instantiate(inst);
    // Constructive side: the witness really is an IS of weight t(2l+a).
    const auto witness = c.yes_witness(*inst.witness);
    ASSERT_TRUE(g.is_independent_set(witness));
    EXPECT_EQ(g.weight_of(witness), c.yes_weight());
    // And the optimum is at least that.
    const auto opt = maxis::solve_exact(g);
    EXPECT_GE(opt.weight, c.yes_weight());
  }
}

TEST_P(ClaimSweep, Claim5NoInstancesStayBelowTheBound) {
  const auto [ell, alpha, k, t] = GetParam();
  const auto p = GadgetParams::from_l_alpha(ell, alpha, k);
  const LinearConstruction c(p, t);
  Rng rng(200 + t);
  for (int trial = 0; trial < 3; ++trial) {
    const auto inst = comm::make_pairwise_disjoint(k, t, rng, 0.4);
    const auto g = c.instantiate(inst);
    const auto opt = maxis::solve_exact(g);
    EXPECT_LE(opt.weight, c.no_bound())
        << "ell=" << ell << " alpha=" << alpha << " k=" << k << " t=" << t;
  }
}

TEST_P(ClaimSweep, Claim3HoldsForLooseIntersectingInstances) {
  // Definition 2's first branch allows extra pairwise overlaps; Claim 3's
  // YES bound must still hold.
  const auto [ell, alpha, k, t] = GetParam();
  const auto p = GadgetParams::from_l_alpha(ell, alpha, k);
  const LinearConstruction c(p, t);
  Rng rng(300 + t);
  const auto inst = comm::make_loose_intersecting(k, t, rng, 0.5);
  const auto g = c.instantiate(inst);
  const auto opt = maxis::solve_exact(g);
  EXPECT_GE(opt.weight, c.yes_weight());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClaimSweep,
    ::testing::Values(ClaimCase{2, 1, 3, 2}, ClaimCase{3, 1, 4, 2},
                      ClaimCase{4, 1, 5, 3}, ClaimCase{5, 1, 6, 3},
                      ClaimCase{4, 2, 16, 2}, ClaimCase{5, 2, 20, 3},
                      ClaimCase{6, 1, 7, 4}, ClaimCase{8, 1, 9, 4}));

TEST(Claim2, TwoPartyTighterBound) {
  // t = 2 (Lemma 1 / Claims 1-2): NO-side <= 3*ell + 2*alpha + 1.
  const auto p = GadgetParams::from_l_alpha(4, 1, 5);
  const LinearConstruction c(p, 2);
  EXPECT_EQ(c.no_bound(), 3 * 4 + 2 * 1 + 1);
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    const auto inst = comm::make_pairwise_disjoint(5, 2, rng, 0.5);
    const auto opt = maxis::solve_exact(c.instantiate(inst));
    EXPECT_LE(opt.weight, c.no_bound());
  }
}

TEST(Claim1, TwoPartyYesBound) {
  const auto p = GadgetParams::from_l_alpha(4, 1, 5);
  const LinearConstruction c(p, 2);
  EXPECT_EQ(c.yes_weight(), 2 * (2 * 4 + 1));  // 4*ell + 2*alpha
  Rng rng(10);
  const auto inst = comm::make_uniquely_intersecting(5, 2, rng, 0.3);
  const auto opt = maxis::solve_exact(c.instantiate(inst));
  EXPECT_GE(opt.weight, c.yes_weight());
}

// --------------------------------------------------------------- Lemma 2 --

TEST(Lemma2, HardnessRatioApproachesHalf) {
  // With alpha = 1 and ell -> infinity, no_bound/yes_weight -> (t+1)/(2t)
  // -> 1/2 as t grows. Check monotone improvement in t at large ell
  // (formula-level: the corresponding graphs are astronomically large).
  double prev = 1.0;
  for (std::size_t t : {3, 4, 6, 8, 12}) {
    const double ratio = linear_hardness_ratio_formula(1 << 20, 1, t);
    EXPECT_LT(ratio, prev);
    EXPECT_GT(ratio, 0.5);
    prev = ratio;
  }
  EXPECT_LT(prev, 0.55);  // t = 12, huge ell: close to (t+1)/(2t)
  // Consistency with the constructed object at a buildable size.
  const auto p = GadgetParams::from_l_alpha(6, 1, 5);
  const LinearConstruction c(p, 3);
  EXPECT_DOUBLE_EQ(c.hardness_ratio(), linear_hardness_ratio_formula(6, 1, 3));
}

TEST(Lemma2, PlayersForEpsilon) {
  EXPECT_EQ(linear_players_for_epsilon(0.4), 5u);
  EXPECT_EQ(linear_players_for_epsilon(0.25), 8u);
  EXPECT_EQ(linear_players_for_epsilon(0.1), 20u);
  EXPECT_THROW(linear_players_for_epsilon(0.0), InvariantError);
  EXPECT_THROW(linear_players_for_epsilon(0.5), InvariantError);
}

TEST(Lemma2, SeparationRequiresEllAboveAlphaT) {
  // ell = alpha*t exactly: not separated; ell = alpha*t + 1: separated
  // (t > 2 branch).
  const std::size_t t = 4;
  const auto tight = GadgetParams::from_l_alpha(4, 1, 5);
  EXPECT_FALSE(LinearConstruction(tight, t).separated());
  const auto loose = GadgetParams::from_l_alpha(5, 1, 5);
  EXPECT_TRUE(LinearConstruction(loose, t).separated());
}

TEST(Lemma2, SeparatedParamsProduceDecidableGap) {
  // End-to-end gap decision: exact OPT >= yes iff intersecting.
  for (std::size_t t : {2, 3, 4}) {
    const auto p = GadgetParams::for_linear_separation(t);
    const LinearConstruction c(p, t);
    ASSERT_TRUE(c.separated()) << t;
    Rng rng(42 + t);
    for (int trial = 0; trial < 3; ++trial) {
      const auto yes = comm::make_uniquely_intersecting(p.k, t, rng, 0.3);
      EXPECT_GE(maxis::solve_exact(c.instantiate(yes)).weight, c.yes_weight());
      const auto no = comm::make_pairwise_disjoint(p.k, t, rng, 0.3);
      EXPECT_LT(maxis::solve_exact(c.instantiate(no)).weight, c.yes_weight());
    }
  }
}

}  // namespace
}  // namespace congestlb::lb
