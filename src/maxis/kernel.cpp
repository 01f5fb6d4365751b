#include "maxis/kernel.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "maxis/bitset.hpp"
#include "support/deadline.hpp"
#include "support/expect.hpp"

namespace congestlb::maxis {

namespace {

/// Merged (explicit + implicit-block) neighbor list of v. On a block-free
/// graph this is the adjacency list itself (no copy); with blocks present
/// it fills and returns `scratch` via the shared neighbor cursor.
std::span<const NodeId> merged_neighbors(const graph::Graph& g, NodeId v,
                                         std::vector<NodeId>& scratch) {
  if (!g.has_implicit_blocks()) return g.neighbors(v);
  scratch.clear();
  g.for_each_neighbor(v, [&](NodeId u) { scratch.push_back(u); });
  return scratch;
}

/// Mutable word-matrix view of the shrinking instance. All rule predicates
/// are word operations on adjacency rows over the *original* vertex ids;
/// vertices disappear by clearing their bit everywhere, so row indices stay
/// stable for the journal.
class Reducer {
 public:
  explicit Reducer(const graph::Graph& g)
      : n_(g.num_nodes()), nw_(words::row_words(n_ == 0 ? 1 : n_)) {
    rows_.assign(n_ * nw_, 0);
    alive_.assign(nw_, 0);
    scratch_.assign(nw_, 0);
    weight_.resize(n_);
    deg_.resize(n_);
    for (NodeId v = 0; v < n_; ++v) {
      weight_[v] = g.weight(v);
      CLB_EXPECT(weight_[v] >= 0, "kernelize requires nonnegative weights");
      words::set_bit(alive_.data(), v);
      // Through the merged cursor, not the explicit list: block-covered
      // vertices have implicit neighbors the dense row must include.
      g.for_each_neighbor(v, [&](NodeId u) { words::set_bit(row(v), u); });
      // Seeded from the materialized row (not g.degree) so the cache is
      // exactly the row popcount it replaces, whatever the input held.
      deg_[v] = words::popcount(row(v), nw_);
    }
  }

  std::size_t n() const { return n_; }
  Weight weight(NodeId v) const { return weight_[v]; }
  bool alive(NodeId v) const { return words::test_bit(alive_.data(), v); }

  /// Cached degree, maintained incrementally by remove() — every rule pass
  /// probes degrees, so recomputing the row popcount per call would be the
  /// pipeline's largest cost on dense instances.
  std::size_t degree(NodeId v) const { return deg_[v]; }

  const std::uint64_t* row(NodeId v) const { return rows_.data() + v * nw_; }
  std::uint64_t* row(NodeId v) { return rows_.data() + v * nw_; }

  template <typename Fn>
  void for_each_neighbor(NodeId v, Fn&& fn) const {
    const std::uint64_t* r = row(v);
    for (std::size_t w = 0; w < nw_; ++w) {
      std::uint64_t bits = r[w];
      while (bits != 0) {
        const std::size_t b = static_cast<std::size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        fn(static_cast<NodeId>(w * 64 + b));
      }
    }
  }

  /// The single neighbor of a degree-1 vertex.
  NodeId only_neighbor(NodeId v) const {
    return static_cast<NodeId>(words::first_bit(row(v), nw_, n_));
  }

  void remove(NodeId x) {
    for_each_neighbor(x, [&](NodeId y) {
      words::clear_bit(row(y), x);
      --deg_[y];
    });
    std::uint64_t* r = row(x);
    for (std::size_t w = 0; w < nw_; ++w) r[w] = 0;
    deg_[x] = 0;
    words::clear_bit(alive_.data(), x);
  }

  void add_weight(NodeId v, Weight delta) { weight_[v] += delta; }

  /// True when every neighbor of v other than `except` is adjacent to u —
  /// i.e. N(v) \ {except} is contained in N(u). The workhorse predicate of
  /// the domination and simplicial rules.
  bool neighbors_within(NodeId v, NodeId u, NodeId except) {
    words::and_not_rows(scratch_.data(), row(v), row(u), nw_);
    words::clear_bit(scratch_.data(), except);
    words::clear_bit(scratch_.data(), u);
    return words::first_bit(scratch_.data(), nw_, n_) == n_;
  }

  /// FNV hash of v's adjacency row (twin bucketing).
  std::uint64_t row_hash(NodeId v) const {
    const std::uint64_t* r = row(v);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t w = 0; w < nw_; ++w) {
      h = (h ^ r[w]) * 1099511628211ULL;
    }
    return h;
  }

  bool rows_equal(NodeId a, NodeId b) const {
    const std::uint64_t* ra = row(a);
    const std::uint64_t* rb = row(b);
    for (std::size_t w = 0; w < nw_; ++w) {
      if (ra[w] != rb[w]) return false;
    }
    return true;
  }

 private:
  std::size_t n_;
  std::size_t nw_;
  std::vector<std::uint64_t> rows_;
  std::vector<std::uint64_t> alive_;
  std::vector<std::uint64_t> scratch_;
  std::vector<Weight> weight_;
  std::vector<std::size_t> deg_;  ///< live degree per vertex (see degree())
};

/// True when some reduction rule could fire on g, checked directly against
/// the CSR adjacency lists. A false return certifies the identity kernel
/// without ever materializing the Reducer's word matrix — on the paper's
/// instantiated gadgets (where nothing is reducible) this is the whole
/// kernelization cost, and it is O(m) plus O(cap^2 log cap) per low-degree
/// vertex instead of O(n^2/64) per pipeline pass. A spurious true is
/// harmless (the pipeline runs and decides nothing); the checks below are
/// exact mirrors of the rule predicates, so that does not happen in
/// practice.
bool any_rule_applicable(const graph::Graph& g, std::size_t cap,
                         unsigned rules) {
  const std::size_t n = g.num_nodes();

  // Isolated / degree-1 fire on degree alone.
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t d = g.degree(v);
    if ((d == 0 && (rules & kRuleIsolated) != 0) ||
        (d == 1 && (rules & kRuleDegree1) != 0)) {
      return true;
    }
  }

  // Twins: two vertices with identical (sorted) neighbor lists. Bucket by
  // a *sampled* signature — degree plus a few probe positions — so the
  // common case touches O(1) of each list instead of hashing all of it;
  // only vertices whose samples collide get the full comparison.
  if ((rules & kRuleTwin) != 0) {
    std::vector<NodeId> scratch_a, scratch_b;
    std::vector<std::pair<std::uint64_t, NodeId>> sig;
    sig.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      const auto nb = merged_neighbors(g, v, scratch_a);
      const std::size_t d = nb.size();
      // The pipeline's twin pass skips degree-0 vertices, so mirror that
      // (and keep nb[d-1] in range when the degree rules are masked off).
      if (d == 0) continue;
      std::uint64_t h = 1469598103934665603ULL;
      h = (h ^ d) * 1099511628211ULL;
      for (const std::size_t idx :
           {std::size_t{0}, d / 3, d / 2, (2 * d) / 3, d - 1}) {
        h = (h ^ (nb[idx] + 1)) * 1099511628211ULL;
      }
      sig.emplace_back(h, v);
    }
    std::sort(sig.begin(), sig.end());
    for (std::size_t lo = 0; lo < sig.size();) {
      std::size_t hi = lo + 1;
      while (hi < sig.size() && sig[hi].first == sig[lo].first) ++hi;
      // All pairs within the run: a sampled hash can collide for non-equal
      // lists, and a colliding non-twin between two twins must not mask
      // them.
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t j = i + 1; j < hi; ++j) {
          if (std::ranges::equal(
                  merged_neighbors(g, sig[i].second, scratch_a),
                  merged_neighbors(g, sig[j].second, scratch_b))) {
            return true;
          }
        }
      }
      lo = hi;
    }
  }

  // Domination and simplicial, restricted (like the pipeline) to vertices
  // with degree <= cap. `mark` holds N[u] for the subset tests.
  if ((rules & (kRuleDomination | kRuleSimplicial)) != 0) {
    std::vector<NodeId> scratch;
    std::vector<std::uint32_t> mark(n, 0);
    std::uint32_t stamp = 0;
    for (NodeId u = 0; u < n; ++u) {
      const auto nu = merged_neighbors(g, u, scratch);
      if (nu.empty() || nu.size() > cap) continue;
      ++stamp;
      mark[u] = stamp;
      for (const NodeId x : nu) mark[x] = stamp;

      // Domination drops u when some neighbor v has w(v) >= w(u) and
      // N(v) \ {u} <= N(u), i.e. N(v) inside the marked N[u].
      if ((rules & kRuleDomination) != 0) {
        for (const NodeId v : nu) {
          if (g.weight(v) < g.weight(u)) continue;
          if (g.degree(v) > nu.size() + 1) continue;  // too big for N[u]
          bool inside = true;
          g.for_each_neighbor(v, [&](NodeId x) {
            if (mark[x] != stamp) inside = false;
          });
          if (inside) return true;
        }
      }

      // Simplicial takes u when it is a heaviest vertex of N[u] and N(u)
      // is a clique (every pair of neighbors adjacent).
      if ((rules & kRuleSimplicial) != 0) {
        bool take = true;
        for (const NodeId x : nu) {
          if (g.weight(x) > g.weight(u)) {
            take = false;
            break;
          }
        }
        for (std::size_t i = 0; take && i + 1 < nu.size(); ++i) {
          for (std::size_t j = i + 1; j < nu.size(); ++j) {
            if (!g.has_edge(nu[i], nu[j])) {
              take = false;
              break;
            }
          }
        }
        if (take) return true;
      }
    }
  }
  return false;
}

}  // namespace

bool kernelizable(const graph::Graph& g, const KernelOptions& opts) {
  const std::size_t n = g.num_nodes();
  const std::size_t cap = opts.max_rule_degree == 0
                              ? n + 1
                              : opts.max_rule_degree;
  return n > 0 && any_rule_applicable(g, cap, opts.rules & kAllKernelRules);
}

Kernel::Kernel(const graph::Graph& g, const KernelOptions& opts)
    : original_n_(g.num_nodes()) {
  const std::size_t n = g.num_nodes();
  // Degree cap for the quadratic rules (kernel.hpp): 0 means uncapped.
  const std::size_t cap = opts.max_rule_degree == 0
                              ? n + 1
                              : opts.max_rule_degree;
  const unsigned rules = opts.rules & kAllKernelRules;

  // Identity fast path: certify on the CSR adjacency that no rule can
  // fire, skipping the word-matrix pipeline entirely.
  if (n == 0 || !any_rule_applicable(g, cap, rules)) {
    reduced_ = g;
    survivors_.resize(n);
    std::iota(survivors_.begin(), survivors_.end(), 0);
    return;
  }

  Reducer r(g);

  bool changed = n > 0;
  while (changed) {
    // Deadline check between passes only: a pass is O(n + m)-ish, coarse
    // enough that per-pass granularity bounds overrun without paying a
    // clock read inside the rule scans. Stopping here is sound — see
    // KernelOptions::deadline.
    if (opts.deadline != nullptr && opts.deadline->expired()) break;
    changed = false;
    ++stats_.passes;

    // Isolated + degree-1 (one scan; both look only at the degree).
    for (NodeId v = 0; v < n; ++v) {
      if (!r.alive(v)) continue;
      const std::size_t deg = r.degree(v);
      if (deg == 0 && (rules & kRuleIsolated) != 0) {
        journal_.push_back({Rule::kTake, v, 0});
        offset_ += r.weight(v);
        r.remove(v);
        ++stats_.isolated;
        changed = true;
      } else if (deg == 1 && (rules & kRuleDegree1) != 0) {
        const NodeId u = r.only_neighbor(v);
        if (r.weight(v) >= r.weight(u)) {
          // Taking v dominates taking u (v conflicts only with u).
          journal_.push_back({Rule::kTake, v, 0});
          offset_ += r.weight(v);
          r.remove(u);
          r.remove(v);
          ++stats_.degree1;
        } else {
          // Fold: v rides on u's fate. Bank w(v); u keeps the surplus.
          journal_.push_back({Rule::kFold, v, u});
          offset_ += r.weight(v);
          r.add_weight(u, -r.weight(v));
          r.remove(v);
          ++stats_.folded;
        }
        changed = true;
      }
    }

    // Domination: drop u when some neighbor v has N[v] <= N[u] and
    // w(v) >= w(u) — swapping u for v in any solution never loses. Applied
    // one vertex at a time against the live graph, so a mutual (twin-like)
    // pair loses exactly one member.
    for (NodeId u = 0; (rules & kRuleDomination) != 0 && u < n; ++u) {
      if (!r.alive(u) || r.degree(u) > cap) continue;
      bool dropped = false;
      r.for_each_neighbor(u, [&](NodeId v) {
        if (dropped || r.weight(v) < r.weight(u)) return;
        if (r.neighbors_within(v, u, u)) dropped = true;
      });
      if (dropped) {
        r.remove(u);  // excluded: no journal entry, u simply stays out
        ++stats_.dominated;
        changed = true;
      }
    }

    // Simplicial: if N(v) is a clique, any solution uses at most one vertex
    // of N[v]; when v is the heaviest it is always a best pick.
    for (NodeId v = 0; (rules & kRuleSimplicial) != 0 && v < n; ++v) {
      if (!r.alive(v)) continue;
      const std::size_t deg = r.degree(v);
      if (deg == 0 || deg > cap) continue;
      bool take = true;
      r.for_each_neighbor(v, [&](NodeId u) {
        if (!take || r.weight(u) > r.weight(v)) {
          take = false;
          return;
        }
        if (!r.neighbors_within(v, u, u)) take = false;
      });
      if (!take) continue;
      journal_.push_back({Rule::kTake, v, 0});
      offset_ += r.weight(v);
      std::vector<NodeId> closed;
      r.for_each_neighbor(v, [&](NodeId u) { closed.push_back(u); });
      for (const NodeId u : closed) r.remove(u);
      r.remove(v);
      ++stats_.simplicial;
      changed = true;
    }

    // Twins: non-adjacent vertices with identical neighborhoods are in or
    // out together — merge the weights and keep one representative.
    if ((rules & kRuleTwin) != 0) {
      std::unordered_map<std::uint64_t, std::vector<NodeId>> buckets;
      for (NodeId v = 0; v < n; ++v) {
        if (!r.alive(v) || r.degree(v) == 0) continue;
        auto& bucket = buckets[r.row_hash(v)];
        bool merged = false;
        for (const NodeId u : bucket) {
          if (!r.alive(u) || !r.rows_equal(u, v)) continue;
          // Equal rows imply u !~ v (a self-bit can't match a non-self bit).
          journal_.push_back({Rule::kTwin, v, u});
          r.add_weight(u, r.weight(v));
          r.remove(v);
          ++stats_.twins;
          changed = true;
          merged = true;
          break;
        }
        if (!merged) bucket.push_back(v);
      }
    }
  }

  // Identity kernel: nothing fired, so the input *is* the kernel — a plain
  // copy beats re-materializing (and re-sorting) the edge list.
  if (stats_.decisions() == 0) {
    reduced_ = g;
    survivors_.resize(n);
    std::iota(survivors_.begin(), survivors_.end(), 0);
    return;
  }

  // Materialize the kernel instance over the survivors, ascending.
  for (NodeId v = 0; v < n; ++v) {
    if (r.alive(v)) survivors_.push_back(v);
  }
  reduced_ = graph::Graph(survivors_.size());
  std::vector<std::size_t> pos(n, 0);
  for (std::size_t i = 0; i < survivors_.size(); ++i) {
    pos[survivors_[i]] = i;
    reduced_.set_weight(i, r.weight(survivors_[i]));
    reduced_.set_label(i, g.label(survivors_[i]));
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const NodeId v : survivors_) {
    r.for_each_neighbor(v, [&](NodeId u) {
      if (v < u) edges.emplace_back(pos[v], pos[u]);
    });
  }
  reduced_.add_edges(edges);
}

std::vector<NodeId> Kernel::unfold(
    std::span<const NodeId> kernel_solution) const {
  std::vector<char> in_sol(original_n_, 0);
  for (const NodeId i : kernel_solution) {
    CLB_EXPECT(i < survivors_.size(), "kernel unfold: id out of range");
    in_sol[survivors_[i]] = 1;
  }
  // Reverse replay: when an event (v, u) is processed, u's fate is already
  // final (u outlived v in the forward pass).
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    switch (it->rule) {
      case Rule::kTake:
        in_sol[it->v] = 1;
        break;
      case Rule::kFold:
        in_sol[it->v] = in_sol[it->u] ? 0 : 1;
        break;
      case Rule::kTwin:
        in_sol[it->v] = in_sol[it->u];
        break;
    }
  }
  std::vector<NodeId> out;
  for (NodeId v = 0; v < original_n_; ++v) {
    if (in_sol[v] != 0) out.push_back(v);
  }
  return out;
}

}  // namespace congestlb::maxis
