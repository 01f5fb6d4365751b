// The quadratic lower-bound family (Section 5): structure (Figures 4-6),
// input-edge semantics, Definition 4 locality (edges inside V^i only),
// Claims 6-7 and Lemma 3 gap behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "comm/instances.hpp"
#include "lowerbound/framework.hpp"
#include "lowerbound/quadratic_family.hpp"
#include "maxis/branch_and_bound.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::lb {
namespace {

GadgetParams small_params() { return GadgetParams::from_l_alpha(2, 1, 3); }

// --------------------------------------------------------------- structure --

TEST(QuadraticConstruction, NodeCountIsTwiceLinear) {
  const QuadraticConstruction c(small_params(), 2);
  EXPECT_EQ(c.num_nodes(), 2u * 2 * 12);
  EXPECT_EQ(c.string_length(), 9u);
}

TEST(QuadraticConstruction, FixedWeightsAreEllOnACliques) {
  const auto p = small_params();
  const QuadraticConstruction c(p, 2);
  const auto& g = c.fixed_graph();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t b = 0; b < 2; ++b) {
      for (std::size_t m = 0; m < p.k; ++m) {
        EXPECT_EQ(g.weight(c.a_node(i, b, m)),
                  static_cast<graph::Weight>(p.ell));
      }
      EXPECT_EQ(g.weight(c.code_node(i, b, 0, 0)), 1);
    }
  }
}

TEST(QuadraticConstruction, BlocksAreNotConnectedInFixedGraph) {
  // G^1 and G^2 touch only through input edges (absent in F itself).
  const auto p = small_params();
  const QuadraticConstruction c(p, 2);
  const auto& g = c.fixed_graph();
  for (graph::NodeId u : c.partition(0)) {
    for (graph::NodeId v : c.partition(1)) {
      if (g.has_edge(u, v)) {
        // Any cross-player edge must stay within one block.
        // Block of a node: position within the player's span.
        const auto npc = p.nodes_per_copy();
        EXPECT_EQ((u % (2 * npc)) / npc, (v % (2 * npc)) / npc)
            << "edge " << u << "-" << v << " crosses blocks";
      }
    }
  }
}

TEST(QuadraticConstruction, CutMatchesFormulaAndIsCodeOnly) {
  for (std::size_t t : {1, 2, 3}) {
    const QuadraticConstruction c(small_params(), t);
    const auto cut = c.cut_edges();
    EXPECT_EQ(cut.size(), c.cut_size()) << "t=" << t;
    // 2 blocks * C(t,2) * (l+a) * p(p-1)
    EXPECT_EQ(c.cut_size(), 2 * (t * (t - 1) / 2) * 3 * 3 * 2);
  }
}

TEST(QuadraticConstruction, TEqualsOneHasEmptyCut) {
  const QuadraticConstruction c(small_params(), 1);
  EXPECT_EQ(c.cut_size(), 0u);
  EXPECT_TRUE(c.cut_edges().empty());
}

/// F built the way the construction used to be: every copy (i, b) gets
/// its cliques and codeword stars regenerated into one edge list and its A
/// clique weighted ell, then the grids, then one add_edges — the reference
/// the tiled build must reproduce exactly.
graph::Graph reference_quadratic(const GadgetParams& p, std::size_t t,
                                 std::size_t threshold) {
  const BaseGadget h(p);
  const std::size_t npc = p.nodes_per_copy();
  const std::size_t q = p.clique_size();
  graph::Graph g(2 * t * npc);
  g.set_implicit_block_threshold(threshold);
  graph::EdgeList edges;
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t b = 0; b < 2; ++b) {
      const NodeId off = (2 * i + b) * npc;
      const auto shifted = [off](std::vector<NodeId> nodes) {
        for (NodeId& v : nodes) v += off;
        return nodes;
      };
      for (std::size_t m = 0; m < p.k; ++m) {
        g.set_weight(off + h.a_node(m), static_cast<graph::Weight>(p.ell));
      }
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
        label += "^(";
        label += std::to_string(i + 1);
        label += ',';
        label += std::to_string(b + 1);
        label += ')';
        g.set_label(off + local, std::move(label));
      }
    }
  }
  if (t >= 2) {
    for (std::size_t b = 0; b < 2; ++b) {
      for (std::size_t pos = 0; pos < p.num_positions(); ++pos) {
        g.add_anti_matching_grid(b * npc + p.k + pos * q, 2 * npc, t, q,
                                 edges);
      }
    }
  }
  g.add_edges(edges);
  return g;
}

TEST(QuadraticConstruction, TiledBuildEqualsPerCopyReference) {
  for (const auto& p : {small_params(), GadgetParams::from_l_alpha(3, 1)}) {
    const std::size_t q = p.clique_size();
    // Above every per-copy clique, at or below every grid: only the grids
    // become blocks.
    const std::size_t grids_only =
        std::max(p.k * (p.k - 1) / 2, q * (q - 1) / 2) + 1;
    for (std::size_t threshold :
         {graph::Graph::kNeverImplicit, std::size_t{1}, grids_only}) {
      for (std::size_t t : {1, 2, 3, 5}) {
        BuildOptions opts;
        opts.implicit_threshold = threshold;
        const QuadraticConstruction c(p, t, opts);
        const graph::Graph want = reference_quadratic(p, t, threshold);
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
          EXPECT_EQ(g.implicit_blocks().size(),
                    t >= 2 ? 2 * p.num_positions() : 0u);
        }
      }
    }
  }
}

TEST(QuadraticConstruction, PairIndexLayout) {
  const QuadraticConstruction c(small_params(), 2);
  EXPECT_EQ(c.pair_index(0, 0), 0u);
  EXPECT_EQ(c.pair_index(1, 2), 5u);
  EXPECT_EQ(c.pair_index(2, 2), 8u);
  EXPECT_THROW(c.pair_index(3, 0), InvariantError);
}

// -------------------------------------------------------------- input edges --

TEST(QuadraticInstantiate, Figure6InputEdgeSemantics) {
  // Figure 6's example: x^1 has bit (1,1) = 0 (paper indexing), everything
  // else 1 -> exactly one input edge, at player 1 between v^(1,1)_1 and
  // v^(1,2)_1. In our 0-based indexing: bit (0,0) of player 0.
  const auto p = small_params();
  const QuadraticConstruction c(p, 2);
  comm::PromiseInstance inst;
  inst.k = 9;
  inst.t = 2;
  inst.kind = comm::PromiseKind::kUniquelyIntersecting;
  inst.strings = {std::vector<std::uint8_t>(9, 1),
                  std::vector<std::uint8_t>(9, 1)};
  inst.strings[0][c.pair_index(0, 0)] = 0;
  inst.witness = c.pair_index(1, 1);
  const auto g = c.instantiate(inst);
  EXPECT_EQ(g.num_edges(), c.fixed_graph().num_edges() + 1);
  EXPECT_TRUE(g.has_edge(c.a_node(0, 0, 0), c.a_node(0, 1, 0)));
  EXPECT_FALSE(g.has_edge(c.a_node(1, 0, 0), c.a_node(1, 1, 0)));
}

TEST(QuadraticInstantiate, AllZeroStringsGiveCompleteInputBicliquePattern) {
  const auto p = small_params();
  const QuadraticConstruction c(p, 2);
  comm::PromiseInstance inst;
  inst.k = 9;
  inst.t = 2;
  inst.kind = comm::PromiseKind::kPairwiseDisjoint;
  inst.strings = {std::vector<std::uint8_t>(9, 0),
                  std::vector<std::uint8_t>(9, 0)};
  const auto g = c.instantiate(inst);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t m1 = 0; m1 < p.k; ++m1) {
      for (std::size_t m2 = 0; m2 < p.k; ++m2) {
        EXPECT_TRUE(g.has_edge(c.a_node(i, 0, m1), c.a_node(i, 1, m2)));
      }
    }
  }
}

TEST(QuadraticInstantiate, RejectsWrongStringLength) {
  const QuadraticConstruction c(small_params(), 2);
  Rng rng(3);
  const auto wrong = comm::make_pairwise_disjoint(8, 2, rng);
  EXPECT_THROW(c.instantiate(wrong), InvariantError);
}

// ---------------------------------------------------- Definition 4 locality --

TEST(QuadraticFamily, Definition4Condition1EdgesInsideOwnPart) {
  const auto p = small_params();
  const std::size_t t = 3;
  const QuadraticConstruction c(p, t);
  Rng rng(13);
  for (std::size_t i = 0; i < t; ++i) {
    const auto a = comm::make_pairwise_disjoint(c.string_length(), t, rng, 0.4);
    auto b = a;
    for (std::size_t pos = i; pos < c.string_length(); pos += t) {
      b.strings[i][pos] ^= 1;
    }
    if (comm::classify(b.strings) != comm::InstanceClass::kPairwiseDisjoint) {
      continue;
    }
    const auto [lo, hi] = c.partition_range(i);
    const auto diff =
        verify_partition_locality(c.instantiate(a), c.instantiate(b), lo, hi);
    EXPECT_TRUE(diff.ok) << "player " << i;
    EXPECT_GT(diff.edge_diffs_inside, 0u);   // the flips changed edges
    EXPECT_EQ(diff.weight_diffs_inside, 0u);  // quadratic family: edges only
  }
}

// ------------------------------------------------------------- gap claims --

struct QuadCase {
  std::size_t ell, alpha, k, t;
};

class QuadClaimSweep : public ::testing::TestWithParam<QuadCase> {};

TEST_P(QuadClaimSweep, Claim6YesInstancesReachTheBound) {
  const auto [ell, alpha, k, t] = GetParam();
  const auto p = GadgetParams::from_l_alpha(ell, alpha, k);
  const QuadraticConstruction c(p, t);
  Rng rng(500 + t);
  for (int trial = 0; trial < 2; ++trial) {
    const auto inst =
        comm::make_uniquely_intersecting(c.string_length(), t, rng, 0.3);
    const auto g = c.instantiate(inst);
    const std::size_t m1 = *inst.witness / k;
    const std::size_t m2 = *inst.witness % k;
    const auto witness = c.yes_witness(m1, m2);
    ASSERT_TRUE(g.is_independent_set(witness));
    EXPECT_EQ(g.weight_of(witness), c.yes_weight());
    EXPECT_GE(maxis::solve_exact(g).weight, c.yes_weight());
  }
}

TEST_P(QuadClaimSweep, Claim7NoInstancesStayBelowTheBound) {
  const auto [ell, alpha, k, t] = GetParam();
  const auto p = GadgetParams::from_l_alpha(ell, alpha, k);
  const QuadraticConstruction c(p, t);
  Rng rng(600 + t);
  for (int trial = 0; trial < 2; ++trial) {
    const auto inst =
        comm::make_pairwise_disjoint(c.string_length(), t, rng, 0.4);
    const auto g = c.instantiate(inst);
    EXPECT_LE(maxis::solve_exact(g).weight, c.no_bound())
        << "ell=" << ell << " k=" << k << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QuadClaimSweep,
    ::testing::Values(QuadCase{2, 1, 3, 3}, QuadCase{2, 1, 3, 2},
                      QuadCase{3, 1, 4, 2}, QuadCase{4, 1, 5, 2},
                      QuadCase{4, 1, 5, 3}, QuadCase{3, 2, 9, 2}));

TEST(Claim7, InductionBaseTIsOne) {
  // t = 1: any IS weighs at most 4*ell + 2*alpha <= 3(t+1)l + 3at^3 = 6l+3a.
  const auto p = GadgetParams::from_l_alpha(3, 1, 4);
  const QuadraticConstruction c(p, 1);
  Rng rng(7);
  // Build a 1-player "instance" manually (t=1 bypasses the t >= 2 generator
  // requirement).
  comm::PromiseInstance inst;
  inst.k = c.string_length();
  inst.t = 1;
  inst.kind = comm::PromiseKind::kPairwiseDisjoint;
  inst.strings = {std::vector<std::uint8_t>(inst.k, 0)};
  for (auto& bit : inst.strings[0]) bit = rng.chance(0.5) ? 1 : 0;
  // A single string is trivially pairwise disjoint... but classify requires
  // 2 strings; instantiate validates, so duplicate-free path: construct via
  // fixed graph + manual edges instead.
  graph::Graph g = c.fixed_graph();
  for (std::size_t m1 = 0; m1 < p.k; ++m1) {
    for (std::size_t m2 = 0; m2 < p.k; ++m2) {
      if (!inst.strings[0][c.pair_index(m1, m2)]) {
        g.add_edge(c.a_node(0, 0, m1), c.a_node(0, 1, m2));
      }
    }
  }
  EXPECT_LE(maxis::solve_exact(g).weight, 4 * 3 + 2 * 1);
}

// --------------------------------------------------------------- Lemma 3 --

TEST(Lemma3, HardnessRatioApproachesThreeQuarters) {
  // Formula-level (the graphs at these parameters are astronomically
  // large): with alpha*t^3 << ell the ratio is 3(t+1)/(4t) -> 3/4.
  double prev = 10.0;
  for (std::size_t t : {12, 16, 24, 40}) {
    const double ratio = quadratic_hardness_ratio_formula(1 << 24, 1, t);
    EXPECT_LT(ratio, prev);
    EXPECT_GT(ratio, 0.75);
    prev = ratio;
  }
  EXPECT_LT(prev, 0.78);  // t = 40: 3*41/160 + tiny
  // Consistency with the constructed object at a buildable size.
  const auto p = GadgetParams::from_l_alpha(3, 1, 4);
  const QuadraticConstruction c(p, 2);
  EXPECT_DOUBLE_EQ(c.hardness_ratio(),
                   quadratic_hardness_ratio_formula(3, 1, 2));
}

TEST(Lemma3, PlayersForEpsilon) {
  EXPECT_EQ(quadratic_players_for_epsilon(0.2), 3u);   // ceil(3/0.8 - 1)
  EXPECT_EQ(quadratic_players_for_epsilon(0.1), 7u);   // ceil(7.5 - 1) = 7
  EXPECT_EQ(quadratic_players_for_epsilon(0.01), 74u);
  EXPECT_THROW(quadratic_players_for_epsilon(0.0), InvariantError);
  EXPECT_THROW(quadratic_players_for_epsilon(0.25), InvariantError);
}

TEST(Lemma3, MeasuredGapAtSmallScale) {
  // At benchable sizes the *loose* Claim-7 bound does not separate, but the
  // measured OPT gap is already real: NO-instances land strictly below the
  // YES weight.
  const auto p = GadgetParams::from_l_alpha(4, 1, 5);
  const QuadraticConstruction c(p, 2);
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    const auto yes =
        comm::make_uniquely_intersecting(c.string_length(), 2, rng, 0.3);
    const auto no = comm::make_pairwise_disjoint(c.string_length(), 2, rng, 0.3);
    const auto wy = maxis::solve_exact(c.instantiate(yes)).weight;
    const auto wn = maxis::solve_exact(c.instantiate(no)).weight;
    EXPECT_GE(wy, c.yes_weight());
    EXPECT_LT(wn, wy);
  }
}

}  // namespace
}  // namespace congestlb::lb
