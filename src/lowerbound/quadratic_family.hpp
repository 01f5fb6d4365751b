// The quadratic-lower-bound family F_xbar of Section 5 (Theorem 2).
//
// The fixed construction F is two copies G^1, G^2 of the Section-4 fixed
// graph (Figures 4-5). Player i owns V^i = V^(i,1) + V^(i,2) — its copy-i
// slice of *both* blocks. Every A-clique node has fixed weight ell; weights
// do not depend on the input. Instead, each player's k^2-bit string selects
// edges *inside its own part*: the edge {v^(i,1)_{m1}, v^(i,2)_{m2}} is
// present iff x^i_(m1,m2) = 0 (Figure 6). Since the strings have length
// k^2 = Theta(n^2), Corollary 1 yields the near-quadratic bound.
//
// Gap (Claims 6-7): uniquely intersecting at (m1,m2) -> an IS of weight
// t(4*ell + 2*alpha); pairwise disjoint -> every IS weighs at most
// 3(t+1)*ell + 3*alpha*t^3.

#pragma once

#include <utility>
#include <vector>

#include "comm/instances.hpp"
#include "graph/graph.hpp"
#include "lowerbound/base_gadget.hpp"
#include "lowerbound/params.hpp"

namespace congestlb::lb {

class QuadraticConstruction {
 public:
  /// t >= 1 (t = 1 has an empty cut but lets tests exercise Claim 7's
  /// induction base).
  QuadraticConstruction(GadgetParams params, std::size_t t);

  /// Build with explicit construction options — see
  /// LinearConstruction(params, t, opts); the 2t copies are tiled from one
  /// copy of H, and the anti-matchings become one grid block per (block b,
  /// position h) pair. Default options reproduce the two-argument
  /// constructor edge-for-edge.
  QuadraticConstruction(GadgetParams params, std::size_t t,
                        const BuildOptions& opts);

  const GadgetParams& params() const { return params_; }
  std::size_t num_players() const { return t_; }
  std::size_t num_nodes() const { return 2 * t_ * params_.nodes_per_copy(); }
  /// String length per player: k^2.
  std::size_t string_length() const { return params_.k * params_.k; }

  /// The fixed graph F = (V_F, E_F, w_F); A-nodes weigh ell.
  const graph::Graph& fixed_graph() const { return g_; }

  /// F_xbar: fixed graph plus input edges inside each player's part.
  /// Requires a validated instance with k = k^2 and t players.
  graph::Graph instantiate(const comm::PromiseInstance& inst) const;

  // --- node addressing: block b in {0, 1} = the paper's G^(b+1) ----------
  NodeId a_node(std::size_t i, std::size_t b, std::size_t m) const;
  NodeId code_node(std::size_t i, std::size_t b, std::size_t h,
                   std::size_t r) const;
  std::vector<NodeId> codeword_nodes(std::size_t i, std::size_t b,
                                     std::size_t m) const;

  /// Flattened string index of the pair (m1, m2).
  std::size_t pair_index(std::size_t m1, std::size_t m2) const;

  // --- player partition ---------------------------------------------------
  std::pair<NodeId, NodeId> partition_range(std::size_t i) const;
  std::vector<NodeId> partition(std::size_t i) const;
  std::size_t owner(NodeId v) const;

  // --- cut ----------------------------------------------------------------
  std::vector<std::pair<NodeId, NodeId>> cut_edges() const;
  /// 2 * C(t,2) * (ell+alpha) * p * (p-1).
  std::size_t cut_size() const;

  // --- gap predicate --------------------------------------------------------
  /// Claim 6's witness for the pair (m1, m2).
  std::vector<NodeId> yes_witness(std::size_t m1, std::size_t m2) const;
  /// beta = t(4*ell + 2*alpha).
  graph::Weight yes_weight() const;
  /// 3(t+1)*ell + 3*alpha*t^3 (Claim 7).
  graph::Weight no_bound() const;
  bool separated() const { return yes_weight() > no_bound(); }
  /// no_bound / yes_weight (tends to 3/4; Lemma 3).
  double hardness_ratio() const;

 private:
  GadgetParams params_;
  std::size_t t_;
  BaseGadget base_;
  graph::Graph g_;
};

/// t = ceil(3/(4*eps) - 1): the player count Lemma 3 uses to rule out
/// (3/4 + eps)-approximation. Requires 0 < eps < 1/4.
std::size_t quadratic_players_for_epsilon(double eps);

/// no_bound/yes_weight from the formulas alone — usable at asymptotic
/// parameter values where actually building the graph is infeasible.
double quadratic_hardness_ratio_formula(std::size_t ell, std::size_t alpha,
                                        std::size_t t);

}  // namespace congestlb::lb
