// The exact MaxIS solver engine: kernelize, decompose, warm-start, then
// branch and bound — optionally fanned out over the campaign work-stealing
// pool (docs/SOLVER.md).
//
// Pipeline per solve:
//   1. kernelization (maxis/kernel.hpp) to a fixpoint; the search runs on
//      the reduced instance and the solution is unfolded and re-verified on
//      the original graph (an identity kernel searches the input directly);
//   2. connected-component decomposition of the kernel — components solve
//      independently and their solutions concatenate (a single component
//      skips the induced-subgraph copy);
//   3. an incumbent warm start per component (word-arena greedy + 2-swap
//      local search), so the bound prunes from the first search node;
//   4. a serial *probe*: the canonical single-tree search under a node cap,
//      which chains its incumbent across subtrees exactly like the seed
//      solver. Components the probe finishes are solved outright. A
//      cap-exhausted probe hands its unexplored DFS remainder to the
//      fanout: the interrupted node and each ancestor's exclude-branch
//      become jobs on a campaign::WorkStealingScheduler (the shallowest one
//      split into its top include branches), each pruning against the
//      deterministic max(warm, probe-best) incumbent. No node the probe
//      visited is searched again.
//
// Bounding is two-tier: a fixed clique partition computed once per
// component gives an O(#cliques) bit-probe bound (near-exact on the
// paper's union-of-cliques gadgets, and ~10x cheaper than the seed
// solver's per-node cover rebuild); only when it fails to prune is the
// greedy clique cover recomputed over the live candidate set.
//
// Determinism contract (pinned by parallel_bnb_test across threads 1/2/8):
// the returned solution, its weight, and search_nodes are bit-identical for
// every thread count. The probe is serial and capped by a constant, the job
// set is a pure function of the graph and that cap (fanout never depends on
// `threads`), each job prunes only against the deterministic warm/probe
// incumbent plus its own local best, and the shared incumbent is a monotone
// max register combined with a structural (lowest-job-index) tie-break — so
// neither execution order nor steal pattern can leak into any output.
// Report.steals is the one deliberately volatile observable.

#pragma once

#include <cstdint>
#include <string_view>

#include "maxis/kernel.hpp"
#include "maxis/verify.hpp"

namespace congestlb::obs {
class MetricsRegistry;
}

namespace congestlb::maxis {

/// Version tag for downstream content-addressed caches (campaign solve
/// jobs hash it into their cache keys). Any change to the engine's search
/// semantics must bump this, so OPTs recorded by one solver generation are
/// never replayed as another's — old cache slots simply stop being
/// addressed instead of going stale.
inline constexpr std::string_view kSolverVersion = "kernel-bnb-v2";

struct EngineOptions {
  /// Run the reduction pipeline before searching. Off = search the input
  /// graph directly (the `clb solve --kernel=off` ablation path).
  bool kernelize = true;
  /// Worker threads for the subtree jobs. 1 runs the same jobs inline in
  /// structural order; results are bit-identical either way.
  std::size_t threads = 1;
  /// Per-job search budget (throws InvariantError when exhausted; 0 =
  /// unlimited). Deliberately per-job, not global: a shared countdown would
  /// make the abort point depend on scheduling.
  std::uint64_t max_search_nodes = 200'000'000;
  /// Serial probe budget per component: the whole-tree search runs inline
  /// up to this many nodes and, if it finishes, the component never fans
  /// out. If it does not, the probe's unexplored DFS remainder becomes the
  /// component's jobs, so the nodes it visited are never searched again;
  /// the jobs lose only the incumbent chaining between them. The default
  /// covers the linear-family gadget searches of the paper campaign
  /// (hundreds to a few thousand nodes) but not F_x̄ at ℓ = 6, t = 4
  /// (n = 448), where about 40% of solves run past it (up to ~55k nodes).
  /// 0 disables the probe (the whole component is the one continuation —
  /// the path the fanout determinism tests exercise). When
  /// max_search_nodes is smaller than this, the probe is skipped so the
  /// budget-exhaustion contract stays with the throwing job search.
  std::uint64_t probe_search_nodes = 20'000;
  /// Upper bound on the structural sub-jobs the shallowest continuation of
  /// a cap-exhausted component (the whole component, probe off) splits
  /// into: its first `fanout - 1` include branches plus a residual. The
  /// deeper continuations run as one job each. Structural: never derived
  /// from `threads`, so the job set (and with it search_nodes) is
  /// identical for every worker count.
  std::size_t fanout = 16;
  /// Cap-exhausted components smaller than this run their continuations
  /// unsplit (probe off: as one job) — fanout bookkeeping costs more than
  /// the search there.
  std::size_t fanout_min_nodes = 48;
  /// Optional sink for maxis.kernel.* rule hit-counts and maxis.engine.*
  /// job/steal counters (serial update after the pool drains).
  obs::MetricsRegistry* metrics = nullptr;
  /// Cooperative cancellation (support/deadline.hpp). The kernelization
  /// checks it between passes and every search polls it per node (a relaxed
  /// atomic load; the clock only every DeadlineToken::kClockStride nodes).
  /// A cancelled solve stops promptly and returns its best incumbent so far
  /// — still a *certified* independent set of the original graph, flagged
  /// EngineResult::approximate because it may not be maximum. Cancellation
  /// timing is inherently scheduling-dependent, so a cancelled solve is
  /// outside the bit-identity determinism contract (an uncancelled solve
  /// with a deadline that never fires is not).
  const DeadlineToken* deadline = nullptr;
};

struct EngineResult {
  IsSolution solution;             ///< verified on the *original* graph
  std::uint64_t search_nodes = 0;  ///< probe + jobs; thread-invariant
  std::size_t components = 0;      ///< kernel components searched
  std::size_t jobs = 0;            ///< fanout jobs executed (0 = probe
                                   ///< finished or was cancelled)
  std::uint64_t steals = 0;        ///< pool steals (volatile; see header)
  KernelStats kernel;              ///< rule hit counts (zero if kernelize off)
  std::size_t kernel_nodes = 0;    ///< vertices surviving into the search
  /// True when EngineOptions::deadline cancelled any search: `solution` is
  /// a certified independent set (checked() on the original graph) but its
  /// weight is a lower bound on OPT, not necessarily OPT itself.
  bool approximate = false;
};

/// Exact maximum-weight independent set via the full engine. Requires
/// nonnegative weights.
EngineResult solve_maxis(const graph::Graph& g, const EngineOptions& opts = {});

}  // namespace congestlb::maxis
