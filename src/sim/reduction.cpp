#include "sim/reduction.hpp"

#include "obs/trace.hpp"
#include "support/expect.hpp"

namespace congestlb::sim {

namespace {

// Driver phase ids carried by kPhase marks (value field); see
// docs/OBSERVABILITY.md.
constexpr std::uint64_t kPhaseSimulate = 1;  ///< network rounds running
constexpr std::uint64_t kPhaseDecide = 2;    ///< gap predicate evaluated

void phase_mark(obs::Tracer* tracer, std::uint64_t phase,
                std::uint32_t round) {
  if (tracer != nullptr && tracer->enabled()) {
    tracer->emit({phase, round, obs::TraceEvent::kNone, obs::TraceEvent::kNone,
                  obs::EventKind::kPhase});
  }
}

/// Shared implementation: `owner(v)` maps nodes to players, the thresholds
/// come from the construction's gap predicate.
template <typename OwnerFn>
ReductionReport run_reduction(
    const graph::Graph& gx, const comm::PromiseInstance& inst,
    const congest::ProgramFactory& factory, comm::Blackboard& board,
    congest::NetworkConfig cfg, OwnerFn owner,
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& cut,
    graph::Weight yes_weight, graph::Weight no_bound) {
  CLB_EXPECT(!cfg.on_message,
             "reduction driver installs its own message observer");
  CLB_EXPECT(board.num_players() == inst.t,
             "blackboard player count must match the instance");

  ReductionReport rep;
  rep.n = gx.num_nodes();
  rep.t = inst.t;
  rep.cut_edges = cut.size();
  rep.yes_weight = yes_weight;
  rep.no_bound = no_bound;
  rep.ground_truth_disjoint = inst.answer_is_disjoint();

  // Owners are looked up once per node here, not twice per delivery.
  std::vector<std::size_t> owner_of(gx.num_nodes());
  for (graph::NodeId v = 0; v < owner_of.size(); ++v) owner_of[v] = owner(v);

  // The simulation argument: cut-crossing messages go on the blackboard,
  // charged to the owner of the sending node. The observer fires per
  // delivery, which is every message sent.
  std::uint64_t observed_cut_bits = 0;
  cfg.on_message = [&board, &rep, &observed_cut_bits, &owner_of](
                       std::size_t round, graph::NodeId from,
                       graph::NodeId to, const congest::Message& msg) {
    const std::size_t po = owner_of[from];
    const std::size_t pd = owner_of[to];
    if (po == pd) return;  // internal to one player: simulated for free
    board.post_cut_message(po, {msg.data.data(), msg.data.size()}, msg.bits,
                           from, to);
    observed_cut_bits += msg.bits;
    if (rep.cut_bits_per_round.size() <= round) {
      rep.cut_bits_per_round.resize(round + 1, 0);
    }
    rep.cut_bits_per_round[round] += msg.bits;
  };

  // Mirror cut charges into the trace/metrics the caller configured on the
  // network, so a single trace shows rounds, deliveries, and board posts on
  // one timeline.
  board.attach_observability(cfg.tracer, cfg.metrics);

  congest::Network net(gx, factory, cfg);
  phase_mark(cfg.tracer, kPhaseSimulate, 0);
  const congest::RunStats stats = net.run();
  phase_mark(cfg.tracer, kPhaseDecide,
             static_cast<std::uint32_t>(stats.rounds));

  rep.rounds = stats.rounds;
  rep.bits_per_edge = net.bits_per_edge();
  rep.total_bits = stats.bits_sent;
  rep.algorithm_finished = stats.all_finished;
  rep.net_stats = stats;
  rep.blackboard_bits = board.total_bits();
  rep.blackboard_entries = board.transcript().size();
  // Each undirected cut edge carries up to one message per *direction* per
  // round, so the per-round budget is 2 * |cut| * B — the factor the
  // paper's O(log n) absorbs.
  rep.theorem5_budget = static_cast<std::uint64_t>(rep.rounds) * 2 *
                        rep.cut_edges * rep.bits_per_edge;
  rep.accounting_ok = rep.blackboard_bits <= rep.theorem5_budget;
  // Exactness: what the observer posted must equal what the network
  // charged to the cut edges.
  std::uint64_t charged_cut_bits = 0;
  for (auto [u, v] : cut) charged_cut_bits += net.bits_on_edge(u, v);
  rep.cut_accounting_exact = observed_cut_bits == charged_cut_bits;

  // Read off the answer via the gap predicate: the strings intersect iff
  // the graph has an IS of weight >= yes_weight (Definition 6). Only a run
  // that actually completed gets to answer — a run in which some node
  // failed() or that hit max_rounds reports itself through
  // algorithm_finished / net_stats.any_failed instead of pretending its
  // half-computed output means something.
  if (stats.all_finished && !stats.any_failed) {
    const auto selected = net.selected_nodes();
    CLB_EXPECT(gx.is_independent_set(selected),
               "reduction: algorithm output is not an independent set");
    rep.computed_weight = gx.weight_of(selected);
    rep.decided_disjoint = rep.computed_weight < yes_weight;
    rep.correct = rep.decided_disjoint == rep.ground_truth_disjoint;
  }
  return rep;
}

}  // namespace

ReductionReport run_linear_reduction(const lb::LinearConstruction& c,
                                     const comm::PromiseInstance& inst,
                                     const congest::ProgramFactory& factory,
                                     comm::Blackboard& board,
                                     congest::NetworkConfig cfg) {
  const graph::Graph gx = c.instantiate(inst);
  return run_reduction(
      gx, inst, factory, board, std::move(cfg),
      [&c](graph::NodeId v) { return c.owner(v); }, c.cut_edges(),
      c.yes_weight(), c.no_bound());
}

ReductionReport run_quadratic_reduction(const lb::QuadraticConstruction& c,
                                        const comm::PromiseInstance& inst,
                                        const congest::ProgramFactory& factory,
                                        comm::Blackboard& board,
                                        congest::NetworkConfig cfg) {
  const graph::Graph fx = c.instantiate(inst);
  return run_reduction(
      fx, inst, factory, board, std::move(cfg),
      [&c](graph::NodeId v) { return c.owner(v); }, c.cut_edges(),
      c.yes_weight(), c.no_bound());
}

}  // namespace congestlb::sim
