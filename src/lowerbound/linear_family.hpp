// The linear-lower-bound family G_xbar of Section 4 (Theorem 1).
//
// The fixed construction G holds t copies H^1..H^t of the base gadget; for
// every pair of copies i != j and every position h, C^i_h and C^j_h are
// joined by "all edges except the natural perfect matching" (Figure 2) —
// the only inter-copy edges, and therefore the whole communication cut.
// Instantiating with a promise instance xbar sets w(v^i_m) = ell iff
// x^i_m = 1 (all other nodes weigh 1).
//
// Gap (Claims 1-3, 5): if the strings uniquely intersect, some
// {v^i_m} + Code^i_m across all copies is independent with weight
// t(2*ell+alpha); if they are pairwise disjoint, every IS weighs at most
// (t+1)*ell + alpha*t^2 (for t = 2: 3*ell + 2*alpha + 1).

#pragma once

#include <utility>
#include <vector>

#include "comm/instances.hpp"
#include "graph/graph.hpp"
#include "lowerbound/base_gadget.hpp"
#include "lowerbound/params.hpp"

namespace congestlb::lb {

class LinearConstruction {
 public:
  LinearConstruction(GadgetParams params, std::size_t t);

  /// Build with explicit construction options. A finite
  /// opts.implicit_threshold records the Figure 2 inter-copy anti-matchings
  /// as one kAntiMatchingGrid block per code position (covering all C(t,2)
  /// copy pairs arithmetically) and large cliques as clique blocks, so the
  /// fixed graph costs O(t * k * (ell+alpha) * p) explicit edges however
  /// large t grows. The t copies are tiled from one copy of H built with
  /// the same options (graph::Graph::tiled), so no per-copy edge list is
  /// built. With the default options this is edge-for-edge the same graph
  /// as the two-argument constructor.
  LinearConstruction(GadgetParams params, std::size_t t,
                     const BuildOptions& opts);

  /// Rehydrate from a cached fixed graph (the campaign subsystem's warm
  /// path, docs/CAMPAIGN.md): `cached_fixed` must be structurally identical
  /// to what the normal constructor builds for (params, t). Node and edge
  /// counts are verified; the edge structure itself is trusted — the cache
  /// is content-addressed, so a key match means the inputs were equal.
  /// Node labels are not restored (they are presentation-only).
  LinearConstruction(GadgetParams params, std::size_t t,
                     graph::Graph cached_fixed);

  const GadgetParams& params() const { return params_; }
  std::size_t num_players() const { return t_; }
  std::size_t num_nodes() const { return t_ * params_.nodes_per_copy(); }

  /// The fixed graph G (all weights 1).
  const graph::Graph& fixed_graph() const { return g_; }

  /// G_xbar: the fixed graph with input-dependent weights. Requires a
  /// validated instance with matching (k, t).
  graph::Graph instantiate(const comm::PromiseInstance& inst) const;

  /// Like instantiate, but accepts arbitrary 0/1 strings with NO promise
  /// (t strings of length k). Exists for the paper's "Challenge" analysis:
  /// on non-promise inputs the MaxIS value depends on the pattern of
  /// *pairwise* intersections, which is exactly why a reduction to plain
  /// multi-party set-disjointness is infeasible (Section 1).
  graph::Graph instantiate_raw(
      const std::vector<std::vector<std::uint8_t>>& strings) const;

  // --- node addressing -------------------------------------------------
  /// v^i_m.
  NodeId a_node(std::size_t i, std::size_t m) const;
  /// sigma^i_(h,r).
  NodeId code_node(std::size_t i, std::size_t h, std::size_t r) const;
  /// Code^i_m.
  std::vector<NodeId> codeword_nodes(std::size_t i, std::size_t m) const;
  /// The clique C^i_h.
  std::vector<NodeId> clique_nodes(std::size_t i, std::size_t h) const;

  // --- the player partition V = V^1 + ... + V^t (Definition 4) ----------
  /// V^i as a contiguous id range [first, last).
  std::pair<NodeId, NodeId> partition_range(std::size_t i) const;
  std::vector<NodeId> partition(std::size_t i) const;
  /// Which player owns node v.
  std::size_t owner(NodeId v) const;

  // --- the communication cut --------------------------------------------
  /// All edges crossing between different players' parts, sorted. Expands
  /// implicit blocks — small-t analysis only; use cut_size() at scale.
  std::vector<std::pair<NodeId, NodeId>> cut_edges() const;
  /// |cut| in closed form: C(t,2) * (ell+alpha) * p * (p-1).
  std::size_t cut_size() const;

  // --- gap predicate ------------------------------------------------------
  /// The Property-1 witness for index m:
  /// union_i {v^i_m} + Code^i_m (independent in every G_xbar).
  std::vector<NodeId> yes_witness(std::size_t m) const;
  /// beta = t(2*ell + alpha) — Claim 3's YES-side weight.
  graph::Weight yes_weight() const;
  /// Claim 5's NO-side bound (t+1)*ell + alpha*t^2; Claim 2's tighter
  /// 3*ell + 2*alpha + 1 when t = 2.
  graph::Weight no_bound() const;
  /// True iff yes_weight() > no_bound(), i.e. the gap predicate is
  /// well-defined at these parameters (requires ell > alpha*t roughly).
  bool separated() const { return yes_weight() > no_bound(); }
  /// The approximation factor this family rules out: no_bound / yes_weight
  /// (tends to 1/2 as t grows and ell/alpha -> infinity; Lemma 2).
  double hardness_ratio() const;

 private:
  GadgetParams params_;
  std::size_t t_;
  BaseGadget base_;  ///< H with the build options: the tile, and the geometry
  graph::Graph g_;   ///< the full fixed construction
};

/// t = ceil(2/eps): the player count Lemma 2 uses to rule out
/// (1/2 + eps)-approximation. Requires 0 < eps < 1/2.
std::size_t linear_players_for_epsilon(double eps);

/// Claim 3's YES-side weight t(2*ell + alpha) from the parameters alone.
/// Identical to LinearConstruction::yes_weight(), but usable without
/// building the graph — the campaign's claim checks compare cached solver
/// results against these bounds without paying for a construction.
graph::Weight linear_yes_weight_formula(const GadgetParams& p, std::size_t t);

/// Claim 5's NO-side bound (t+1)*ell + alpha*t^2 (Claim 2's tighter
/// 3*ell + 2*alpha + 1 at t = 2), from the parameters alone.
graph::Weight linear_no_bound_formula(const GadgetParams& p, std::size_t t);

/// no_bound/yes_weight from the formulas alone — usable at asymptotic
/// parameter values where actually building the graph is infeasible.
double linear_hardness_ratio_formula(std::size_t ell, std::size_t alpha,
                                     std::size_t t);

}  // namespace congestlb::lb
