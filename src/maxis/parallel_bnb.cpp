#include "maxis/parallel_bnb.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "campaign/scheduler.hpp"
#include "graph/algorithms.hpp"
#include "maxis/bitset.hpp"
#include "maxis/branch_and_bound.hpp"
#include "maxis/local_search.hpp"
#include "obs/metrics.hpp"
#include "support/deadline.hpp"
#include "support/expect.hpp"

namespace congestlb::maxis {

namespace {

/// Read-only search context for one kernel component: the adjacency word
/// matrix and vertex order of the reference branch and bound (weight desc,
/// degree desc, id), plus a fixed root clique partition, shared by the
/// serial probe and every subtree job of the component.
class ComponentContext {
 public:
  explicit ComponentContext(const graph::Graph& g)
      : n_(g.num_nodes()), nw_(words::row_words(n_ == 0 ? 1 : n_)) {
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
    adj_.assign(n_ * nw_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      const NodeId v = order_[i];
      weight_[i] = g.weight(v);
      CLB_EXPECT(weight_[i] >= 0,
                 "solver engine requires nonnegative weights");
      g.for_each_neighbor(v, [&](NodeId nb) {
        words::set_bit(adj_.data() + i * nw_, pos_[nb]);
      });
    }
    build_clique_partition();
  }

  std::size_t n() const { return n_; }
  std::size_t nw() const { return nw_; }
  NodeId original(std::size_t i) const { return order_[i]; }
  Weight weight(std::size_t i) const { return weight_[i]; }
  const std::uint64_t* row(std::size_t i) const {
    return adj_.data() + i * nw_;
  }

  /// Clique c of the root partition, as order-positions ascending — which
  /// is weight descending, because order_ sorts by weight first.
  std::size_t num_cliques() const { return clique_off_.size() - 1; }
  const std::uint32_t* clique_begin(std::size_t c) const {
    return clique_members_.data() + clique_off_[c];
  }
  const std::uint32_t* clique_end(std::size_t c) const {
    return clique_members_.data() + clique_off_[c + 1];
  }

  /// Greedy IS in (weight desc, degree desc) order over the word arena —
  /// the engine's base incumbent before local search.
  std::vector<std::size_t> greedy_positions() const {
    std::vector<std::uint64_t> cand(nw_, 0);
    words::fill_prefix(cand.data(), n_, nw_);
    std::vector<std::size_t> chosen;
    while (true) {
      const std::size_t v = words::first_bit(cand.data(), nw_, n_);
      if (v == n_) break;
      chosen.push_back(v);
      words::and_not_rows(cand.data(), cand.data(), row(v), nw_);
      words::clear_bit(cand.data(), v);
    }
    return chosen;
  }

 private:
  /// The same greedy clique cover the tight bound uses, computed once over
  /// the full vertex set and kept as a *partition*. A partition of the root
  /// vertices stays a valid clique cover of every candidate subset, so the
  /// sum of max-weight-present per clique upper-bounds any IS below it —
  /// that is the cheap first-tier bound of SubtreeSearch.
  void build_clique_partition() {
    std::vector<std::uint64_t> c(nw_, 0), common(nw_, 0);
    words::fill_prefix(c.data(), n_, nw_);
    clique_off_.push_back(0);
    // Extraction is always the lowest live bit and bits only get cleared,
    // so the scan fronts (cw for the cover set, mw for the common set)
    // move monotonically right — word loops run on [front, nw) instead of
    // the full row, which is most of the cost of a cover at scale.
    std::size_t cw = 0;
    while (true) {
      while (cw < nw_ && c[cw] == 0) ++cw;
      if (cw == nw_) break;
      const std::size_t v =
          cw * 64 + static_cast<std::size_t>(__builtin_ctzll(c[cw]));
      clique_members_.push_back(static_cast<std::uint32_t>(v));
      c[cw] &= c[cw] - 1;
      const std::uint64_t* av = row(v);
      words::and_rows(common.data() + cw, c.data() + cw, av + cw, nw_ - cw);
      std::size_t mw = cw;
      while (true) {
        while (mw < nw_ && common[mw] == 0) ++mw;
        if (mw == nw_) break;
        const std::size_t u =
            mw * 64 + static_cast<std::size_t>(__builtin_ctzll(common[mw]));
        clique_members_.push_back(static_cast<std::uint32_t>(u));
        words::clear_bit(c.data(), u);
        common[mw] &= common[mw] - 1;
        const std::uint64_t* au = row(u);
        words::and_rows(common.data() + mw, common.data() + mw, au + mw,
                        nw_ - mw);
      }
      clique_off_.push_back(clique_members_.size());
    }
  }

  std::size_t n_;
  std::size_t nw_;
  std::vector<NodeId> order_;
  std::vector<std::size_t> pos_;
  std::vector<Weight> weight_;
  std::vector<std::uint64_t> adj_;
  std::vector<std::uint32_t> clique_members_;
  std::vector<std::size_t> clique_off_;
};

/// One structural subtree job: a candidate row plus the include decisions
/// that led to it. Pure data, derived from the component and the probe cap
/// alone — never from the thread count.
struct JobSpec {
  std::vector<std::uint64_t> cand;
  std::vector<std::size_t> chosen;  ///< order-positions already included
  Weight acc = 0;
};

struct JobOutcome {
  Weight best = 0;            ///< max(bound_in, best found in the subtree)
  bool improved = false;      ///< best > bound_in (chosen is then valid)
  bool cancelled = false;     ///< deadline token observed (subtree partial)
  std::vector<char> chosen;   ///< order-position membership of the best IS
  std::uint64_t nodes = 0;    ///< search nodes visited
  /// Probe mode, node cap hit: the unexplored rest of the DFS in serial
  /// order — the interrupted node, then each ancestor level's
  /// exclude-continuation from deepest to shallowest (empty ones dropped).
  /// Empty when the search finished or was cancelled.
  std::vector<JobSpec> remainder;
};

/// The include/exclude search of branch_and_bound.cpp, restarted from an
/// arbitrary subtree root, with all mutable state owned by the runner —
/// concurrent runners share only the immutable ComponentContext.
///
/// Bounding is two-tier with lazy refresh. Tier 1 evaluates the *active*
/// clique partition — initially the component's root partition, thereafter
/// the most recent ancestor refresh — in O(bit probes), no row-wide word
/// ops. Only when tier 1 fails to prune is the greedy clique cover
/// recomputed over the live candidates (the seed solver's bound, paid at
/// every node there); the recomputed cover is *kept* as the active
/// partition for the whole subtree below, so descendants get tight cheap
/// checks instead of the degraded root partition. Both tiers are pure
/// functions of the candidate set, so node counts stay deterministic.
class SubtreeSearch {
 public:
  /// stop_on_budget: exhausting max_nodes returns the best found so far
  /// plus the unexplored DFS remainder (outcome.remainder) — the probe
  /// mode, still deterministic because the traversal order and the cap are
  /// fixed. Otherwise exhaustion throws, matching the seed solver's budget
  /// contract.
  SubtreeSearch(const ComponentContext& cx, std::uint64_t max_nodes,
                bool stop_on_budget, const DeadlineToken* deadline = nullptr)
      : cx_(&cx), max_nodes_(max_nodes), stop_on_budget_(stop_on_budget),
        deadline_(deadline), n_(cx.n()), nw_(cx.nw()) {
    cand_stack_.assign((n_ + 1) * nw_, 0);
    cover_cand_.assign(nw_, 0);
    cover_common_.assign(nw_, 0);
    chosen_.assign(n_, 0);
    best_chosen_.assign(n_, 0);
    seen_.assign(n_ + 1, 0);
    // Partition slots: one position -> clique-id map per depth (slot 0 =
    // the root partition). Sized for the worst-case depth but allocated
    // untouched; only pages the search actually writes get committed.
    part_cid_ = std::make_unique_for_overwrite<std::uint32_t[]>(
        (n_ + 1) * (n_ == 0 ? 1 : n_));
    std::uint32_t* cid = part_cid_.get();
    for (std::size_t c = 0; c < cx.num_cliques(); ++c) {
      for (const std::uint32_t* m = cx.clique_begin(c); m != cx.clique_end(c);
           ++m) {
        cid[*m] = static_cast<std::uint32_t>(c);
      }
    }
  }

  JobOutcome run(const JobSpec& spec, Weight bound_in) {
    words::copy(cand_row(0), spec.cand.data(), nw_);
    std::fill(chosen_.begin(), chosen_.end(), 0);
    for (const std::size_t p : spec.chosen) chosen_[p] = 1;
    best_ = bound_in;
    improved_ = false;
    aborted_ = false;
    cancelled_ = false;
    nodes_ = 0;
    remainder_.clear();
    recurse(0, spec.acc, 0);
    JobOutcome out;
    out.best = best_;
    out.improved = improved_;
    out.cancelled = cancelled_;
    out.nodes = nodes_;
    out.remainder = std::move(remainder_);
    if (improved_) {
      out.chosen.assign(best_chosen_.begin(), best_chosen_.end());
    }
    return out;
  }

 private:
  const std::uint64_t* adj_row(std::size_t i) const { return cx_->row(i); }
  std::uint64_t* cand_row(std::size_t depth) {
    return cand_stack_.data() + depth * nw_;
  }

  /// Tier 1: evaluate partition slot `part` against cand by iterating the
  /// *live* candidates only — dead cliques cost nothing. Ascending position
  /// is descending weight, so the first live member seen of a clique is
  /// that clique's max; the epoch stamp dedupes cliques with no clearing.
  /// Returns early (with a partial sum > limit) as soon as the bound can
  /// no longer prune; callers only compare the result against limit.
  Weight partition_bound(const std::uint64_t* cand, std::size_t part,
                         Weight limit) {
    const std::uint32_t* cid = part_cid_.get() + part * n_;
    const std::uint64_t epoch = ++epoch_;
    Weight bound = 0;
    for (std::size_t w = 0; w < nw_; ++w) {
      std::uint64_t bits = cand[w];
      while (bits != 0) {
        const std::size_t v =
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        const std::uint32_t c = cid[v];
        if (seen_[c] != epoch) {
          seen_[c] = epoch;
          bound += cx_->weight(v);
          if (bound > limit) return bound;
        }
      }
    }
    return bound;
  }

  /// Tier 2: the greedy clique cover recomputed over the live candidates
  /// (the seed solver's bound), recorded into partition slot `part` as a
  /// position -> clique-id map for tier-1 reuse across the subtree below.
  /// Positions outside cand keep stale ids, which is safe: descendants only
  /// probe candidates, and those are subsets of this cand.
  Weight refresh_partition(const std::uint64_t* cand, std::size_t part) {
    std::uint64_t* c = cover_cand_.data();
    std::uint64_t* common = cover_common_.data();
    words::copy(c, cand, nw_);
    std::uint32_t* cid = part_cid_.get() + part * n_;
    std::uint32_t cnt = 0;
    Weight bound = 0;
    // Monotone scan fronts, as in build_clique_partition: extraction is
    // always the lowest live bit, so word loops shrink to [front, nw).
    std::size_t cw = 0;
    while (true) {
      while (cw < nw_ && c[cw] == 0) ++cw;
      if (cw == nw_) break;
      const std::size_t v =
          cw * 64 + static_cast<std::size_t>(__builtin_ctzll(c[cw]));
      cid[v] = cnt;
      Weight mx = cx_->weight(v);
      c[cw] &= c[cw] - 1;
      const std::uint64_t* av = adj_row(v);
      words::and_rows(common + cw, c + cw, av + cw, nw_ - cw);
      std::size_t mw = cw;
      while (true) {
        while (mw < nw_ && common[mw] == 0) ++mw;
        if (mw == nw_) break;
        const std::size_t u =
            mw * 64 + static_cast<std::size_t>(__builtin_ctzll(common[mw]));
        cid[u] = cnt;
        mx = std::max(mx, cx_->weight(u));
        words::clear_bit(c, u);
        common[mw] &= common[mw] - 1;
        const std::uint64_t* au = adj_row(u);
        words::and_rows(common + mw, common + mw, au + mw, nw_ - mw);
      }
      bound += mx;
      ++cnt;
    }
    return bound;
  }

  /// Appends (cand, the current include prefix, acc) to the remainder.
  void record_remainder(const std::uint64_t* cand, Weight acc) {
    JobSpec s;
    s.cand.assign(cand, cand + nw_);
    for (std::size_t p = 0; p < n_; ++p) {
      if (chosen_[p] != 0) s.chosen.push_back(p);
    }
    s.acc = acc;
    remainder_.push_back(std::move(s));
  }

  void recurse(std::size_t depth, Weight acc, std::size_t part) {
    std::uint64_t* cand = cand_row(depth);
    while (true) {
      if (aborted_) {
        // Unwinding from a child the cap interrupted: cand already excludes
        // the branch vertex and chosen_ is back at this level's prefix, so
        // (cand, acc) is this level's exclude-continuation.
        if (!cancelled_ && words::first_bit(cand, nw_, n_) != n_) {
          record_remainder(cand, acc);
        }
        return;
      }
      ++nodes_;
      // Cancellation outranks the budget contract: a cancelled search
      // never throws, even in stop_on_budget=false (fanout job) mode — it
      // unwinds with its incumbent and the caller flags the result
      // approximate.
      if (deadline_ != nullptr && deadline_->poll(nodes_)) {
        aborted_ = true;
        cancelled_ = true;
        return;
      }
      if (max_nodes_ != 0 && nodes_ > max_nodes_) {
        CLB_EXPECT(stop_on_budget_,
                   "solver engine: per-job search-node budget exhausted");
        // This node is left unvisited: it heads the remainder, and the job
        // that runs it counts it.
        --nodes_;
        aborted_ = true;
        record_remainder(cand, acc);
        return;
      }
      if (acc > best_) {
        best_ = acc;
        best_chosen_ = chosen_;
        improved_ = true;
      }
      const std::size_t v = words::first_bit(cand, nw_, n_);
      if (v == n_) return;
      const Weight limit = best_ - acc;  // prune iff bound <= limit
      if (partition_bound(cand, part, limit) <= limit) return;
      // Tier 1 failed: refresh into this depth's slot (slot 0 is the root
      // partition, so depth d owns slot d + 1) and re-check — at most once
      // per level; later iterations at this level reuse it via tier 1.
      if (part != depth + 1) {
        part = depth + 1;
        if (refresh_partition(cand, part) <= limit) return;
      }

      std::uint64_t* next = cand_row(depth + 1);
      words::and_not_rows(next, cand, adj_row(v), nw_);
      words::clear_bit(next, v);
      chosen_[v] = 1;
      recurse(depth + 1, acc + cx_->weight(v), part);
      chosen_[v] = 0;
      words::clear_bit(cand, v);
    }
  }

  const ComponentContext* cx_;
  std::uint64_t max_nodes_;
  bool stop_on_budget_;
  const DeadlineToken* deadline_;
  std::size_t n_;
  std::size_t nw_;
  std::vector<std::uint64_t> cand_stack_;
  std::vector<std::uint64_t> cover_cand_;
  std::vector<std::uint64_t> cover_common_;
  std::vector<char> chosen_;
  std::vector<char> best_chosen_;
  std::vector<std::uint64_t> seen_;  ///< clique-id epoch stamps (tier 1)
  std::unique_ptr<std::uint32_t[]> part_cid_;
  std::vector<JobSpec> remainder_;
  std::uint64_t epoch_ = 0;
  Weight best_ = 0;
  bool improved_ = false;
  bool aborted_ = false;  ///< node cap hit (probe mode only) or cancel
  bool cancelled_ = false;
  std::uint64_t nodes_ = 0;
};

JobSpec whole_component_spec(const ComponentContext& cx) {
  JobSpec s;
  s.cand.assign(cx.nw(), 0);
  words::fill_prefix(s.cand.data(), cx.n(), cx.nw());
  return s;
}

/// Split `spec` into at most `fanout` structural sub-jobs, appended to
/// `jobs` in serial order: sub-job i includes the i-th candidate in
/// position order after excluding the earlier ones (the first `fanout - 1`
/// include branches of the search at spec's root), and one residual job
/// excludes them all. The union is an exact partition of spec's subtree.
void split_job(const ComponentContext& cx, JobSpec spec, std::size_t fanout,
               std::vector<JobSpec>& jobs) {
  const std::size_t n = cx.n();
  const std::size_t nw = cx.nw();
  for (std::size_t i = 0; i + 1 < fanout; ++i) {
    const std::size_t v = words::first_bit(spec.cand.data(), nw, n);
    if (v == n) break;
    JobSpec s;
    s.cand.assign(nw, 0);
    words::and_not_rows(s.cand.data(), spec.cand.data(), cx.row(v), nw);
    words::clear_bit(s.cand.data(), v);
    s.chosen = spec.chosen;
    s.chosen.push_back(v);
    s.acc = spec.acc + cx.weight(v);
    jobs.push_back(std::move(s));
    words::clear_bit(spec.cand.data(), v);
  }
  jobs.push_back(std::move(spec));
}

struct ComponentPlan {
  std::vector<NodeId> nodes;   ///< search-graph ids, ascending
  graph::Graph owned;          ///< storage when an induced copy is needed
  const graph::Graph* sub = nullptr;  ///< the component graph
  std::optional<ComponentContext> cx;
  IsSolution warm;             ///< component-local ids
  JobOutcome probe;            ///< serial capped probe result
  Weight bound = 0;            ///< max(warm, probe best): fanout-job bound
  std::vector<JobSpec> jobs;   ///< empty when the probe finished or was
                               ///< cancelled
  std::size_t first_job = 0;   ///< index into the flat job array
};

}  // namespace

EngineResult solve_maxis(const graph::Graph& g, const EngineOptions& opts) {
  CLB_EXPECT(opts.threads >= 1, "solver engine: threads must be >= 1");
  CLB_EXPECT(opts.fanout >= 1, "solver engine: fanout must be >= 1");
  EngineResult res;

  // ---- Kernelize --------------------------------------------------------
  // kernelizable() certifies irreducible inputs (every instantiated paper
  // gadget) with a single CSR scan, so the common path never copies the
  // graph or builds reduction state. Only a reducible input pays for a
  // Kernel — and then earns it back in the search.
  std::optional<Kernel> kernel;
  const graph::Graph* search_graph = &g;
  if (opts.kernelize && kernelizable(g)) {
    KernelOptions kopts;
    kopts.deadline = opts.deadline;
    kernel.emplace(g, kopts);
    res.kernel = kernel->stats();
    // Identity kernel (nothing fired): search the input graph directly and
    // skip the unfold.
    if (res.kernel.decisions() > 0) search_graph = &kernel->reduced();
  }
  res.kernel_nodes = search_graph->num_nodes();

  // ---- Decompose into components ----------------------------------------
  const std::vector<std::size_t> comp_id =
      graph::connected_components(*search_graph);
  std::size_t num_comps = 0;
  for (const std::size_t c : comp_id) {
    num_comps = std::max(num_comps, c + 1);
  }
  std::vector<ComponentPlan> plans(num_comps);
  for (NodeId v = 0; v < search_graph->num_nodes(); ++v) {
    plans[comp_id[v]].nodes.push_back(v);
  }

  // ---- Per component: context, warm start, serial probe, fanout plan ----
  // The probe runs the canonical serial search — which chains its incumbent
  // across subtrees exactly like the seed solver — under a fixed node cap;
  // a component the probe finishes is solved outright. A cap-exhausted
  // probe hands over its unexplored DFS remainder: those continuations,
  // the shallowest one split into structural sub-jobs, are the component's
  // jobs, every one pruning against the deterministic max(warm,
  // probe-best) incumbent. Probe off, the whole component is the one
  // continuation.
  std::size_t total_jobs = 0;
  for (ComponentPlan& plan : plans) {
    if (num_comps == 1) {
      plan.sub = search_graph;  // plan.nodes is the identity map
    } else {
      plan.owned = search_graph->induced_subgraph(plan.nodes);
      plan.sub = &plan.owned;
    }
    plan.cx.emplace(*plan.sub);
    std::vector<NodeId> greedy;
    for (const std::size_t p : plan.cx->greedy_positions()) {
      greedy.push_back(plan.cx->original(p));
    }
    std::sort(greedy.begin(), greedy.end());
    plan.warm =
        improve_local_search(*plan.sub, std::move(greedy)).solution;

    const bool probe_on =
        opts.probe_search_nodes > 0 &&
        (opts.max_search_nodes == 0 ||
         opts.probe_search_nodes < opts.max_search_nodes);
    if (probe_on) {
      SubtreeSearch probe(*plan.cx, opts.probe_search_nodes, true,
                          opts.deadline);
      plan.probe =
          probe.run(whole_component_spec(*plan.cx), plan.warm.weight);
      if (plan.probe.cancelled) res.approximate = true;
      plan.jobs = std::move(plan.probe.remainder);
    } else {
      plan.jobs.push_back(whole_component_spec(*plan.cx));
    }
    plan.bound = std::max(plan.warm.weight, plan.probe.best);
    if (!plan.jobs.empty()) {
      const std::size_t fanout =
          plan.cx->n() >= opts.fanout_min_nodes ? opts.fanout : 1;
      JobSpec shallowest = std::move(plan.jobs.back());
      plan.jobs.pop_back();
      split_job(*plan.cx, std::move(shallowest), fanout, plan.jobs);
      plan.first_job = total_jobs;
      total_jobs += plan.jobs.size();
    }
    res.search_nodes += plan.probe.nodes;
  }

  // ---- Run the fanout jobs ----------------------------------------------
  // Each job prunes against the deterministic warm/probe incumbent plus its
  // own local best; the shared register below is a monotone max the final
  // selection reads. Outcomes land in per-job slots (disjoint writes).
  std::vector<JobOutcome> outcomes(total_jobs);
  std::vector<std::atomic<Weight>> incumbent(num_comps);
  for (std::size_t c = 0; c < num_comps; ++c) {
    incumbent[c].store(plans[c].bound, std::memory_order_relaxed);
  }
  const auto run_flat = [&](std::size_t c, std::size_t j) {
    const ComponentPlan& plan = plans[c];
    SubtreeSearch search(*plan.cx, opts.max_search_nodes, false,
                         opts.deadline);
    JobOutcome out = search.run(plan.jobs[j], plan.bound);
    // Publish to the shared incumbent: relaxed max-CAS. The final value is
    // the max over all jobs — independent of publish order.
    Weight cur = incumbent[c].load(std::memory_order_relaxed);
    while (out.best > cur &&
           !incumbent[c].compare_exchange_weak(cur, out.best,
                                               std::memory_order_relaxed)) {
    }
    outcomes[plan.first_job + j] = std::move(out);
  };

  if (opts.threads == 1 || total_jobs <= 1) {
    for (std::size_t c = 0; c < num_comps; ++c) {
      for (std::size_t j = 0; j < plans[c].jobs.size(); ++j) {
        run_flat(c, j);
      }
    }
  } else {
    campaign::WorkStealingScheduler sched(opts.threads);
    for (std::size_t c = 0; c < num_comps; ++c) {
      for (std::size_t j = 0; j < plans[c].jobs.size(); ++j) {
        sched.add_job([&run_flat, c, j](std::size_t) { run_flat(c, j); });
      }
    }
    const auto report = sched.run();
    res.steals = report.steals;
  }

  // ---- Select winners structurally and compose the solution -------------
  std::vector<NodeId> search_solution;
  Weight search_weight = 0;
  for (std::size_t c = 0; c < num_comps; ++c) {
    const ComponentPlan& plan = plans[c];
    const Weight best = incumbent[c].load(std::memory_order_relaxed);
    search_weight += best;
    const std::vector<NodeId>* comp_nodes = nullptr;
    std::vector<NodeId> from_chosen;
    const auto collect = [&](const std::vector<char>& chosen) {
      for (std::size_t p = 0; p < plan.cx->n(); ++p) {
        if (chosen[p] != 0) from_chosen.push_back(plan.cx->original(p));
      }
      comp_nodes = &from_chosen;
    };
    if (best > plan.bound) {
      // Structural tie-break: the lowest-index job holding the max wins,
      // regardless of which worker finished first.
      for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
        const JobOutcome& out = outcomes[plan.first_job + j];
        if (out.improved && out.best == best) {
          collect(out.chosen);
          break;
        }
      }
      CLB_EXPECT(comp_nodes != nullptr,
                 "solver engine: incumbent without a witnessing job");
    } else if (plan.probe.improved && plan.probe.best == best) {
      collect(plan.probe.chosen);
    } else {
      comp_nodes = &plan.warm.nodes;  // warm start was already optimal
    }
    for (const NodeId local : *comp_nodes) {
      search_solution.push_back(plan.nodes[local]);
    }
  }
  for (std::size_t k = 0; k < total_jobs; ++k) {
    res.search_nodes += outcomes[k].nodes;
    if (outcomes[k].cancelled) res.approximate = true;
  }
  res.components = num_comps;
  res.jobs = total_jobs;

  // ---- Unfold and certify on the original graph -------------------------
  const bool kernelized = kernel.has_value() && res.kernel.decisions() > 0;
  std::vector<NodeId> original_nodes =
      kernelized ? kernel->unfold(search_solution)
                 : std::move(search_solution);
  std::sort(original_nodes.begin(), original_nodes.end());
  const Weight expected =
      search_weight + (kernelized ? kernel->offset() : 0);
  res.solution = checked(g, std::move(original_nodes));
  CLB_EXPECT(res.solution.weight == expected,
             "solver engine: unfolded weight mismatch");

  if (opts.metrics != nullptr) {
    obs::MetricsRegistry& m = *opts.metrics;
    m.counter("maxis.kernel.isolated").add(res.kernel.isolated);
    m.counter("maxis.kernel.folded").add(res.kernel.folded);
    m.counter("maxis.kernel.degree1").add(res.kernel.degree1);
    m.counter("maxis.kernel.dominated").add(res.kernel.dominated);
    m.counter("maxis.kernel.simplicial").add(res.kernel.simplicial);
    m.counter("maxis.kernel.twins").add(res.kernel.twins);
    m.counter("maxis.engine.solves").inc();
    m.counter("maxis.engine.components").add(res.components);
    m.counter("maxis.engine.jobs").add(res.jobs);
    m.counter("maxis.engine.search_nodes").add(res.search_nodes);
    m.counter("maxis.engine.steals").add(res.steals);
    if (res.approximate) m.counter("maxis.engine.cancelled").inc();
  }
  return res;
}

IsSolution solve_exact(const graph::Graph& g) {
  return solve_maxis(g).solution;
}

}  // namespace congestlb::maxis
