#include "congest/network.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/expect.hpp"

namespace congestlb::congest {

namespace {

/// Trace events carry 32-bit node ids; simulated networks stay far below.
inline std::uint32_t tid(NodeId v) { return static_cast<std::uint32_t>(v); }
inline std::uint32_t trnd(std::size_t round) {
  return static_cast<std::uint32_t>(round);
}

}  // namespace

// ------------------------------------------------------------------ Outbox --

void Outbox::send_all(const Message& msg) {
  if (fanout_ == 0) return;
  CLB_EXPECT(msg.bits > 0, "Outbox: refusing to send an empty message");
  // The model constraint is checked at send time, so the error surfaces
  // inside the offending program's round() rather than at delivery.
  CLB_EXPECT(msg.bits <= cap_bits_,
             "CONGEST bandwidth exceeded: message of " +
                 std::to_string(msg.bits) + " bits on a " +
                 std::to_string(cap_bits_) + "-bit edge");
  CLB_EXPECT(*sent_ == 0, "Outbox: one send_all per node per round");
  *msg_ = msg;  // copy-assign reuses the arena slot's capacity
  *sent_ = 1;
}

// ----------------------------------------------------------------- Network --

std::vector<std::pair<NodeId, NodeId>> edge_tiled_shards(
    const graph::Graph& g, std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  const std::size_t n = g.num_nodes();
  // Prefix cost of the first v nodes: directed slots (explicit + implicit,
  // the latter in closed form per block) + one unit per node. Strictly
  // increasing in v, so each boundary is a binary search for the first
  // prefix at or past the shard's proportional target.
  const auto cost = [&g](NodeId v) { return g.degree_prefix(v) + v; };
  const std::uint64_t total = cost(n);
  std::vector<std::pair<NodeId, NodeId>> ranges(num_shards);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::size_t end = n;
    if (s + 1 < num_shards) {
      const std::uint64_t target = total * (s + 1) / num_shards;
      std::size_t lo = begin;
      std::size_t hi = n;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (cost(mid) < target) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      end = lo;
    }
    ranges[s] = {static_cast<NodeId>(begin), static_cast<NodeId>(end)};
    begin = end;
  }
  return ranges;
}

Network::Network(const graph::Graph& g, const ProgramFactory& factory,
                 NetworkConfig config)
    : csr_(g.shared_csr()),
      blocks_(g.implicit_blocks()),
      config_(std::move(config)),
      pool_(config_.num_threads == 0 ? 1 : config_.num_threads) {
  const std::size_t n = g.num_nodes();
  CLB_EXPECT(n > 0, "Network: empty graph");
  bits_per_edge_ = config_.bits_per_edge != 0 ? config_.bits_per_edge
                                              : congest_bandwidth_bits(n);
  CLB_EXPECT(bits_per_edge_ >= 1, "Network: bandwidth must be positive");
  if (!blocks_.empty()) {
    // Per-edge trace events and per-delivery metric observations are
    // O(total degree) — the very cost implicit blocks exist to avoid.
    CLB_EXPECT(config_.tracer == nullptr || !config_.tracer->enabled(),
               "tracing requires a materialized topology");
    CLB_EXPECT(config_.metrics == nullptr,
               "engine metrics require a materialized topology");
  }

  // One out-slot per node: with 10^9+ block-implied edges, per-round memory
  // stays O(n).
  for (Arena& a : arena_) {
    a.sent.assign(n, 0);
    a.msgs.resize(n);
  }
  dbits_.assign(n, 0);
  CLB_EXPECT(config_.owner.empty() || config_.owner.size() == n,
             "Network: owner table must have one entry per node");

  Rng seeder(config_.seed);
  infos_.reserve(n);
  programs_.reserve(n);
  node_rng_.reserve(n);
  const graph::Csr& csr = *csr_;
  const std::span<const graph::ImplicitBlock> blocks = blocks_;
  for (NodeId v = 0; v < n; ++v) {
    NodeInfo info;
    info.id = v;
    info.n = n;
    info.weight = g.weight(v);
    info.neighbors = NeighborsView(csr, blocks, v);
    info.bits_per_edge = bits_per_edge_;
    infos_.push_back(info);
    node_rng_.push_back(seeder.fork());
  }
  if (config_.on_message) {
    // The observed deliveries: (u, v) whose ends have different owners.
    // Without an owner table every node is its own owner, so every delivery
    // is listed.
    const std::span<const std::size_t> owner = config_.owner;
    for (NodeId u = 0; u < n; ++u) {
      for (const NodeId v : infos_[u].neighbors) {
        if (owner.empty() || owner[u] != owner[v]) {
          cut_edges_.push_back({u, v});
        }
      }
    }
  }
  config_.owner = {};  // read only here; the caller's table may go away
  for (NodeId v = 0; v < n; ++v) {
    programs_.push_back(factory(v, infos_[v]));
    CLB_EXPECT(programs_.back() != nullptr, "Network: factory returned null");
  }

  // Planned last, so the shard vectors are the network's last (and
  // smallest) allocations and among the first it frees. Measured with
  // glibc, this keeps back-to-back networks from trimming and re-faulting
  // the heap under the per-node arrays each time (docs/PERFORMANCE.md,
  // "One neighbour view").
  num_shards_ = pool_.num_threads();
  shard_range_ = edge_tiled_shards(g, num_shards_);
  shard_.resize(num_shards_);
  shard_error_.resize(num_shards_);

  if (config_.tracer && config_.tracer->enabled()) {
    tracer_ = config_.tracer;
    trace_sends_ = tracer_->config().record_sends;
    // Stage capacity: the most events one shard can emit in one phase of
    // one round — one send per (sender, neighbor), one delivery per
    // (receiver, neighbor).
    std::size_t max_stage = 0;
    for (std::size_t s = 0; s < num_shards_; ++s) {
      const auto [begin, end] = shard_range_[s];
      max_stage =
          std::max(max_stage, csr_->offsets[end] - csr_->offsets[begin]);
    }
    tracer_->bind(num_shards_, max_stage);
  }
  if (config_.metrics) {
    obs::MetricsRegistry& reg = *config_.metrics;
    reg.ensure_shards(num_shards_);
    em_.rounds = &reg.counter("engine.rounds");
    em_.messages_delivered = &reg.counter("engine.messages_delivered");
    em_.bits_delivered = &reg.counter("engine.bits_delivered");
    em_.inflight = &reg.gauge("engine.inflight_messages");
    em_.message_bits =
        &reg.histogram("engine.message_bits", {8, 16, 32, 64, 128, 256});
  }
}

Inbox Network::inbox(NodeId v, const Arena& arena) const {
  return Inbox(infos_[v].neighbors, arena.sent.data(), arena.msgs.data());
}

void Network::compute_shard(std::size_t shard) {
  try {
    const auto [begin, end] = shard_range_[shard];
    Arena& out = arena_[cur_];
    const Arena& in = arena_[cur_ ^ 1];
    std::fill(out.sent.begin() + begin, out.sent.begin() + end, 0);

    const std::size_t round = stats_.rounds;
    ShardCounters& sc = shard_[shard];
    for (NodeId v = begin; v < end; ++v) {
      const NodeInfo& info = infos_[v];
      const std::size_t fan = info.neighbors.size();
      Outbox outbox(&out.sent[v], &out.msgs[v], fan, bits_per_edge_);
      programs_[v]->round(info, inbox(v, in), outbox, node_rng_[v]);
      if (!outbox.has()) continue;
      // One message, stored once, reaches all `fan` neighbors.
      const std::uint64_t bits = outbox.message().bits;
      sc.delivered += fan;
      sc.bits_delivered += bits * fan;
      dbits_[v] += bits;
      if (trace_round_ && trace_sends_) {
        for (const NodeId w : info.neighbors) {
          tracer_->emit_shard(0, shard,
                              {bits, trnd(round), tid(v), tid(w),
                               obs::EventKind::kSend});
        }
      }
    }
  } catch (...) {
    shard_error_[shard] = std::current_exception();
  }
}

void Network::observe_shard(std::size_t shard) {
  try {
    const auto [begin, end] = shard_range_[shard];
    const std::size_t round = stats_.rounds;
    for (NodeId v = begin; v < end; ++v) {
      auto u = infos_[v].neighbors.begin();
      for (const Inbox::Slot m : inbox(v, arena_[cur_])) {
        const NodeId from = *u;
        ++u;
        if (!m) continue;
        const std::size_t bits = m->bits;
        if (trace_round_) {
          tracer_->emit_shard(1, shard,
                              {bits, trnd(round), tid(from), tid(v),
                               obs::EventKind::kDeliver});
        }
        if (em_.messages_delivered) {
          em_.messages_delivered->add(1, shard);
          em_.bits_delivered->add(bits, shard);
          em_.message_bits->observe(bits, shard);
        }
      }
    }
  } catch (...) {
    shard_error_[shard] = std::current_exception();
  }
}

void Network::notify_observer() {
  // Canonical order, independent of num_threads: cut_edges_ is listed in
  // (sender, neighbor-ascending) order.
  const std::size_t round = stats_.rounds;
  const Arena& out = arena_[cur_];
  for (const CutEdge& c : cut_edges_) {
    if (out.sent[c.from] == 0) continue;
    config_.on_message(round, c.from, c.to, out.msgs[c.from]);
  }
}

void Network::rethrow_shard_error() {
  for (std::size_t s = 0; s < num_shards_; ++s) {
    if (shard_error_[s]) {
      std::exception_ptr err = shard_error_[s];
      shard_error_[s] = nullptr;
      std::rethrow_exception(err);
    }
  }
}

bool Network::step() {
  const bool any_inbound = inflight_count_ > 0;
  for (auto& sc : shard_) sc.reset();
  trace_round_ = tracer_ != nullptr && tracer_->sampled(stats_.rounds);
  if (trace_round_) {
    tracer_->emit({infos_.size(), trnd(stats_.rounds), obs::TraceEvent::kNone,
                   obs::TraceEvent::kNone, obs::EventKind::kRoundBegin});
  }

  // The round: one sharded phase. Each shard writes only its own out-slots
  // in the current arena and reads only the previous one — race-free and
  // schedule-independent, hence bit-identical across thread counts.
  pool_.run(num_shards_,
            [this](std::size_t shard) { compute_shard(shard); });
  rethrow_shard_error();
  if (trace_round_ || em_.messages_delivered) {
    pool_.run(num_shards_,
              [this](std::size_t shard) { observe_shard(shard); });
    rethrow_shard_error();
  }

  // Merge per-shard counters in shard order (integer sums, so the totals
  // are independent of the shard partition).
  std::uint64_t delivered = 0;
  for (const ShardCounters& sc : shard_) {
    delivered += sc.delivered;
    stats_.messages_sent += sc.delivered;
    stats_.bits_sent += sc.bits_delivered;
  }
  inflight_count_ = delivered;
  // Seal before the observer runs so the staged phase events precede any
  // kBlackboardPost the observer emits; kRoundEnd closes the round after.
  if (trace_round_) tracer_->seal_round();
  if (config_.on_message) notify_observer();
  if (trace_round_) {
    tracer_->emit({delivered, trnd(stats_.rounds), obs::TraceEvent::kNone,
                   obs::TraceEvent::kNone, obs::EventKind::kRoundEnd});
  }
  if (em_.rounds) {
    em_.rounds->add(1);
    em_.inflight->set(static_cast<std::int64_t>(delivered));
  }
  cur_ ^= 1;  // this round's sends become next round's inboxes
  stats_.rounds += 1;
  return delivered > 0 || any_inbound;
}

bool Network::node_terminal(NodeId v) const {
  return programs_[v]->finished() || programs_[v]->failed();
}

RunStats Network::run() {
  while (stats_.rounds < config_.max_rounds) {
    bool all_done = true;
    for (NodeId v = 0; v < programs_.size(); ++v) {
      if (!node_terminal(v)) {
        all_done = false;
        break;
      }
    }
    if (all_done && inflight_count_ == 0) break;
    step();
  }
  stats_.all_finished =
      std::all_of(programs_.begin(), programs_.end(),
                  [](const auto& p) { return p->finished(); });
  stats_.any_failed =
      std::any_of(programs_.begin(), programs_.end(),
                  [](const auto& p) { return p->failed(); });
  return stats_;
}

RunStats Network::run_rounds(std::size_t rounds) {
  for (std::size_t r = 0; r < rounds && stats_.rounds < config_.max_rounds;
       ++r) {
    step();
  }
  stats_.all_finished =
      std::all_of(programs_.begin(), programs_.end(),
                  [](const auto& p) { return p->finished(); });
  stats_.any_failed =
      std::any_of(programs_.begin(), programs_.end(),
                  [](const auto& p) { return p->failed(); });
  return stats_;
}

const NodeProgram& Network::program(NodeId v) const {
  CLB_EXPECT(v < programs_.size(), "Network: node id out of range");
  return *programs_[v];
}

const NodeInfo& Network::info(NodeId v) const {
  CLB_EXPECT(v < infos_.size(), "Network: node id out of range");
  return infos_[v];
}

std::uint64_t Network::bits_on_edge(NodeId u, NodeId v) const {
  CLB_EXPECT(u < infos_.size() && v < infos_.size(),
             "bits_on_edge: node id out of range");
  CLB_EXPECT(infos_[u].neighbors.contains(v), "bits_on_edge: no such edge");
  // Every bit a node sent reached every neighbor, so each direction's bits
  // are its sender's counter.
  return dbits_[u] + dbits_[v];
}

std::vector<std::int64_t> Network::outputs() const {
  std::vector<std::int64_t> out;
  out.reserve(programs_.size());
  for (const auto& p : programs_) out.push_back(p->output());
  return out;
}

std::vector<NodeId> Network::selected_nodes() const {
  std::vector<NodeId> sel;
  for (NodeId v = 0; v < programs_.size(); ++v) {
    if (programs_[v]->output() != 0) sel.push_back(v);
  }
  return sel;
}

}  // namespace congestlb::congest
