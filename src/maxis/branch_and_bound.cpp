#include "maxis/branch_and_bound.hpp"

#include <algorithm>
#include <numeric>

#include "maxis/bitset.hpp"
#include "support/expect.hpp"

namespace congestlb::maxis {

namespace {

/// Exact solver over a flat 64-bit-word arena (bitset.hpp's `words`
/// kernels). The adjacency matrix is n rows of nw words; the candidate set
/// of each search depth is one row of a preallocated (n+1)-row stack, and
/// the exclude branch is a loop over the current row rather than a
/// recursive call — the search itself performs zero allocations and zero
/// Bitset copies, visiting exactly the same tree as the reference
/// formulation (include-first, then exclude).
class BnBSolver {
 public:
  BnBSolver(const graph::Graph& g, const BnBOptions& opts)
      : g_(&g), opts_(opts), n_(g.num_nodes()), nw_(words::row_words(n_)) {
    // Order vertices by weight desc, then degree desc: heavy, constrained
    // vertices are decided first, which tightens the bound early.
    order_.resize(n_);
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(), [&](NodeId a, NodeId b) {
      if (g.weight(a) != g.weight(b)) return g.weight(a) > g.weight(b);
      if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
      return a < b;
    });
    pos_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) pos_[order_[i]] = i;

    weight_.resize(n_);
    adj_words_.assign(n_ * nw_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      const NodeId v = order_[i];
      weight_[i] = g.weight(v);
      CLB_EXPECT(weight_[i] >= 0, "branch-and-bound requires nonnegative weights");
      for (NodeId nb : g.neighbors(v)) words::set_bit(adj_row(i), pos_[nb]);
    }
    cand_stack_.assign((n_ + 1) * nw_, 0);
    cover_cand_.assign(nw_, 0);
    cover_common_.assign(nw_, 0);
  }

  BnBResult solve() {
    words::fill_prefix(cand_row(0), n_, nw_);
    chosen_.assign(n_, false);
    best_chosen_.assign(n_, false);
    recurse(0, 0);
    std::vector<NodeId> nodes;
    for (std::size_t i = 0; i < n_; ++i) {
      if (best_chosen_[i]) nodes.push_back(order_[i]);
    }
    BnBResult result;
    result.solution = checked(*g_, std::move(nodes));
    CLB_EXPECT(result.solution.weight == best_,
               "branch-and-bound: weight bookkeeping mismatch");
    result.search_nodes = search_nodes_;
    return result;
  }

 private:
  std::uint64_t* adj_row(std::size_t i) { return adj_words_.data() + i * nw_; }
  std::uint64_t* cand_row(std::size_t depth) {
    return cand_stack_.data() + depth * nw_;
  }

  /// Greedy clique cover of `cand`; sum over cliques of the max weight in
  /// the clique upper-bounds any IS weight within cand. Works in the two
  /// scratch rows (not reentrant; the search calls it sequentially).
  Weight clique_cover_bound(const std::uint64_t* cand) {
    std::uint64_t* c = cover_cand_.data();
    std::uint64_t* common = cover_common_.data();
    words::copy(c, cand, nw_);
    Weight bound = 0;
    while (true) {
      const std::size_t v = words::first_bit(c, nw_, n_);
      if (v == n_) break;
      Weight mx = weight_[v];
      words::clear_bit(c, v);
      words::and_rows(common, c, adj_row(v), nw_);
      while (true) {
        const std::size_t u = words::first_bit(common, nw_, n_);
        if (u == n_) break;
        mx = std::max(mx, weight_[u]);
        words::clear_bit(c, u);
        words::clear_bit(common, u);
        words::and_rows(common, common, adj_row(u), nw_);
      }
      bound += mx;
    }
    return bound;
  }

  /// One search node per loop iteration: the exclude branch continues the
  /// loop on the same candidate row, the include branch descends one row.
  void recurse(std::size_t depth, Weight acc) {
    std::uint64_t* cand = cand_row(depth);
    while (true) {
      ++search_nodes_;
      CLB_EXPECT(opts_.max_search_nodes == 0 ||
                     search_nodes_ <= opts_.max_search_nodes,
                 "branch-and-bound search-node budget exhausted");
      if (acc > best_) {
        best_ = acc;
        best_chosen_ = chosen_;
      }
      const std::size_t v = words::first_bit(cand, nw_, n_);
      if (v == n_) return;
      if (acc + clique_cover_bound(cand) <= best_) return;

      // Include v: candidates minus v and its neighbors, one row deeper.
      std::uint64_t* next = cand_row(depth + 1);
      words::and_not_rows(next, cand, adj_row(v), nw_);
      words::clear_bit(next, v);
      chosen_[v] = true;
      recurse(depth + 1, acc + weight_[v]);
      chosen_[v] = false;
      // Exclude v: drop it from this row and continue as the next node.
      words::clear_bit(cand, v);
    }
  }

  const graph::Graph* g_;
  BnBOptions opts_;
  std::size_t n_;
  std::size_t nw_;  ///< words per row
  std::vector<NodeId> order_;
  std::vector<std::size_t> pos_;
  std::vector<Weight> weight_;
  std::vector<std::uint64_t> adj_words_;   ///< n rows: adjacency matrix
  std::vector<std::uint64_t> cand_stack_;  ///< n+1 rows: per-depth candidates
  std::vector<std::uint64_t> cover_cand_;    ///< scratch row
  std::vector<std::uint64_t> cover_common_;  ///< scratch row
  std::vector<char> chosen_;
  std::vector<char> best_chosen_;
  Weight best_ = -1;  ///< -1 so the empty set (weight 0) is recorded
  std::uint64_t search_nodes_ = 0;
};

}  // namespace

BnBResult solve_branch_and_bound(const graph::Graph& g, BnBOptions opts) {
  if (g.num_nodes() == 0) {
    return BnBResult{IsSolution{}, 0};
  }
  return BnBSolver(g, opts).solve();
}

}  // namespace congestlb::maxis
