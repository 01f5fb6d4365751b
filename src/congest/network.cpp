#include "congest/network.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/expect.hpp"
#include "support/simd.hpp"

namespace congestlb::congest {

namespace {

/// Trace events carry 32-bit node ids; simulated networks stay far below.
inline std::uint32_t tid(NodeId v) { return static_cast<std::uint32_t>(v); }
inline std::uint32_t trnd(std::size_t round) {
  return static_cast<std::uint32_t>(round);
}

}  // namespace

// ------------------------------------------------------------------ Outbox --

Outbox::Outbox(std::size_t num_neighbors, std::size_t cap_bits)
    : own_kind_(num_neighbors, 0),
      own_msgs_(num_neighbors),
      kind_(own_kind_.data()),
      msgs_(own_msgs_.data()),
      count_(num_neighbors),
      cap_bits_(cap_bits) {}

void Outbox::send(std::size_t slot, const Message& msg) {
  CLB_EXPECT(slot < count_, "Outbox: neighbor slot out of range");
  CLB_EXPECT(msg.bits > 0, "Outbox: refusing to send an empty message");
  // The model constraint is checked at send time, so the error surfaces
  // inside the offending program's round() rather than at delivery.
  CLB_EXPECT(msg.bits <= cap_bits_,
             "CONGEST bandwidth exceeded: message of " +
                 std::to_string(msg.bits) + " bits on a " +
                 std::to_string(cap_bits_) + "-bit edge");
  if (bcast_) {
    // Broadcast (hybrid) mode: one slot backs all neighbors; every send in
    // a round must agree byte-for-byte.
    if (kind_[0] != 0) {
      CLB_EXPECT(msgs_[0].bits == msg.bits && msgs_[0].data == msg.data,
                 "implicit-block topology requires identical messages to "
                 "all neighbors in a round");
    } else {
      msgs_[0] = msg;
      kind_[0] = 1;
    }
    ++sent_count_;
    return;
  }
  CLB_EXPECT(kind_[slot] == 0, "Outbox: one message per neighbor per round");
  msgs_[slot] = msg;  // copy-assign reuses the arena slot's capacity
  kind_[slot] = 1;
}

void Outbox::send_all(const Message& msg) {
  if (bcast_) {
    if (count_ == 0) return;
    send(0, msg);
    sent_count_ = count_;
    return;
  }
  for (std::size_t i = 0; i < count_; ++i) send(i, msg);
}

// ----------------------------------------------------------------- Network --

Network::Network(const graph::Graph& g, const ProgramFactory& factory,
                 NetworkConfig config)
    : topo_(Topology::build(g)),
      hybrid_(topo_->has_implicit()),
      config_(std::move(config)),
      pool_(config_.num_threads == 0 ? 1 : config_.num_threads) {
  CLB_EXPECT(topo_->n > 0, "Network: empty graph");
  bits_per_edge_ = config_.bits_per_edge != 0
                       ? config_.bits_per_edge
                       : congest_bandwidth_bits(topo_->n);
  CLB_EXPECT(bits_per_edge_ >= 1, "Network: bandwidth must be positive");
  if (hybrid_) {
    // Per-edge trace events and per-delivery metric observations are
    // O(total degree) — the very cost implicit blocks exist to avoid.
    CLB_EXPECT(config_.tracer == nullptr || !config_.tracer->enabled(),
               "tracing requires a materialized topology");
    CLB_EXPECT(config_.metrics == nullptr,
               "engine metrics require a materialized topology");
  }

  const std::size_t n = topo_->n;
  if (hybrid_) {
    // Broadcast arenas: one slot per *node*. The per-directed-slot arenas
    // stay empty — with 10^9+ block-implied slots they must never exist.
    bc_out_kind_.assign(n, 0);
    bc_out_msgs_.resize(n);
    bc_in_kind_.assign(n, 0);
    bc_in_msgs_.resize(n);
    dbits_node_.assign(n, 0);
    total_degree_.resize(n);
    for (NodeId v = 0; v < n; ++v) total_degree_[v] = topo_->total_degree(v);
  } else {
    const std::size_t slots = topo_->neighbors.size();  // 2m directed slots
    in_kind_.assign(slots, 0);
    in_msgs_.resize(slots);
    out_kind_.assign(slots, 0);
    out_msgs_.resize(slots);
    dbits_.assign(slots, 0);
    in_bits_.assign(slots, 0);
  }

  num_shards_ = pool_.num_threads();
  shard_range_ = edge_tiled_shards(*topo_, num_shards_);
  shard_.resize(num_shards_);
  shard_error_.resize(num_shards_);

  Rng seeder(config_.seed);
  infos_.reserve(n);
  programs_.reserve(n);
  node_rng_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    NodeInfo info;
    info.id = v;
    info.n = n;
    info.weight = topo_->weights[v];
    info.neighbors =
        hybrid_ ? NeighborsView(topo_.get(), v, total_degree_[v])
                : NeighborsView(topo_->neighbors.data() + topo_->offsets[v],
                                topo_->degree(v));
    info.bits_per_edge = bits_per_edge_;
    infos_.push_back(info);
    node_rng_.push_back(seeder.fork());
  }
  for (NodeId v = 0; v < n; ++v) {
    programs_.push_back(factory(v, infos_[v]));
    CLB_EXPECT(programs_.back() != nullptr, "Network: factory returned null");
  }

  if (config_.tracer && config_.tracer->enabled()) {
    tracer_ = config_.tracer;
    trace_sends_ = tracer_->config().record_sends;
    // Stage capacity: the most events one shard can emit in one phase of
    // one round — compute emits at most one send per out slot, deliver at
    // most one delivery per inbound slot.
    std::size_t max_stage = 0;
    for (std::size_t s = 0; s < num_shards_; ++s) {
      const auto [begin, end] = shard_range_[s];
      max_stage = std::max(max_stage,
                           topo_->offsets[end] - topo_->offsets[begin]);
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

void Network::compute_shard(std::size_t shard) {
  try {
    const auto [begin, end] = shard_range_[shard];
    const std::size_t round = stats_.rounds;
    for (NodeId v = begin; v < end; ++v) {
      if (hybrid_) {
        const std::size_t fan = total_degree_[v];
        Inbox inbox(topo_.get(), v, bc_in_kind_.data(), bc_in_msgs_.data(),
                    fan);
        Outbox outbox = Outbox::broadcast_view(
            &bc_out_kind_[v], &bc_out_msgs_[v], fan, bits_per_edge_);
        programs_[v]->round(infos_[v], inbox, outbox, node_rng_[v]);
        const std::size_t sends = outbox.broadcast_sends();
        CLB_EXPECT(sends == 0 || sends == fan,
                   "implicit-block topology requires all-or-none fan-out "
                   "(partial sends need per-edge slots)");
        continue;
      }
      const std::size_t off = topo_->offsets[v];
      const std::size_t deg = topo_->degree(v);
      Inbox inbox(in_kind_.data() + off, in_msgs_.data() + off, deg);
      Outbox outbox(out_kind_.data() + off, out_msgs_.data() + off, deg,
                    bits_per_edge_);
      programs_[v]->round(infos_[v], inbox, outbox, node_rng_[v]);
      if (trace_round_ && trace_sends_) {
        for (std::size_t s = 0; s < deg; ++s) {
          if (!out_kind_[off + s]) continue;
          tracer_->emit_shard(0, shard,
                              {out_msgs_[off + s].bits, trnd(round), tid(v),
                               tid(topo_->neighbors[off + s]),
                               obs::EventKind::kSend});
        }
      }
      if (config_.broadcast_only) {
        // All non-empty slots must carry identical payloads.
        const Message* first = nullptr;
        for (std::size_t s = 0; s < deg; ++s) {
          if (!out_kind_[off + s]) continue;
          const Message& m = out_msgs_[off + s];
          if (!first) {
            first = &m;
          } else {
            CLB_EXPECT(first->bits == m.bits && first->data == m.data,
                       "CONGEST-Broadcast: different messages to different "
                       "neighbors in one round");
          }
        }
      }
    }
  } catch (...) {
    shard_error_[shard] = std::current_exception();
  }
}

void Network::deliver_shard_hybrid(std::size_t shard) {
  try {
    const auto [begin, end] = shard_range_[shard];
    ShardCounters& sc = shard_[shard];
    for (NodeId u = begin; u < end; ++u) {
      if (bc_out_kind_[u] == 0) continue;
      const std::uint64_t fan = total_degree_[u];
      const std::uint64_t bits = bc_out_msgs_[u].bits;
      sc.delivered += fan;
      sc.bits_delivered += bits * fan;
      dbits_node_[u] += bits;
    }
  } catch (...) {
    shard_error_[shard] = std::current_exception();
  }
}

void Network::deliver_shard(std::size_t shard) {
  try {
    const auto [begin, end] = shard_range_[shard];
    ShardCounters& sc = shard_[shard];
    const std::size_t round = stats_.rounds;
    const std::size_t* off = topo_->offsets.data();
    const NodeId* nbrs = topo_->neighbors.data();
    const std::uint32_t* rev = topo_->reverse_slot.data();
    if (!trace_round_ && em_.messages_delivered == nullptr) {
      // Unobserved fast path: the copy loop only moves payloads and records
      // per-slot presence/bits; all counter and dbits_ accounting happens
      // afterwards as bulk SIMD passes over this shard's contiguous slot
      // range.
      const std::size_t lo = off[begin];
      const std::size_t hi = off[end];
      for (std::size_t e = lo; e < hi; ++e) {
        const std::size_t o = off[nbrs[e]] + rev[e];
        if (out_kind_[o]) {
          out_kind_[o] = 0;  // consume; only this slot's owner reads it
          in_msgs_[e] = out_msgs_[o];
          in_kind_[e] = 1;
          // Message bits are bounded by bits_per_edge (O(log n)) — far
          // below 32 bits of count.
          in_bits_[e] = static_cast<std::uint32_t>(in_msgs_[e].bits);
        } else {
          in_kind_[e] = 0;
          in_bits_[e] = 0;
        }
      }
      const simd::Kernels& k = simd::kernels();
      sc.delivered += k.count_nonzero_u8(in_kind_.data() + lo, hi - lo);
      sc.bits_delivered += k.sum_u32(in_bits_.data() + lo, hi - lo);
      k.accumulate_u32_to_u64(dbits_.data() + lo, in_bits_.data() + lo,
                              hi - lo);
      return;
    }
    // Traced/metered path: same deliveries, plus per-slot hooks.
    for (NodeId v = begin; v < end; ++v) {
      for (std::size_t e = off[v]; e < off[v + 1]; ++e) {
        const std::size_t o = off[nbrs[e]] + rev[e];
        if (!out_kind_[o]) {
          in_kind_[e] = 0;
          continue;
        }
        out_kind_[o] = 0;  // consume; only this slot's owner reads it
        in_msgs_[e] = out_msgs_[o];
        in_kind_[e] = 1;
        const std::size_t bits = in_msgs_[e].bits;
        sc.delivered += 1;
        sc.bits_delivered += bits;
        dbits_[e] += bits;
        if (trace_round_) {
          tracer_->emit_shard(1, shard,
                              {bits, trnd(round), tid(nbrs[e]), tid(v),
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
  // Canonical order, independent of num_threads: every delivery in
  // (sender, out-slot) order — exactly the order the serial engine
  // produced.
  const std::size_t round = stats_.rounds;
  if (hybrid_) {
    // Expand each sender's broadcast over its merged neighbor cursor —
    // identical (sender, neighbor-ascending) order to the materialized
    // path. O(total degree): observers are a small-n contract tool.
    for (NodeId u = 0; u < topo_->n; ++u) {
      if (bc_in_kind_[u] == 0) continue;
      for (NodeId v = topo_->neighbor_after(u, graph::kNoNode);
           v != graph::kNoNode; v = topo_->neighbor_after(u, v)) {
        config_.on_message(round, u, v, bc_in_msgs_[u]);
      }
    }
    return;
  }
  const std::size_t* off = topo_->offsets.data();
  const NodeId* nbrs = topo_->neighbors.data();
  const std::uint32_t* rev = topo_->reverse_slot.data();
  for (NodeId u = 0; u < topo_->n; ++u) {
    for (std::size_t d = off[u]; d < off[u + 1]; ++d) {
      const NodeId v = nbrs[d];
      const std::size_t e = off[v] + rev[d];
      if (in_kind_[e]) config_.on_message(round, u, v, in_msgs_[e]);
    }
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
    tracer_->emit({topo_->n, trnd(stats_.rounds), obs::TraceEvent::kNone,
                   obs::TraceEvent::kNone, obs::EventKind::kRoundBegin});
  }

  // Phase 1: programs run (sharded by sender), filling the send arena.
  pool_.run(num_shards_,
            [this](std::size_t shard) { compute_shard(shard); });
  rethrow_shard_error();
  // Phase 2: pull-based delivery (sharded by receiver). Each thread writes
  // only its own receivers' inbound slots — race-free and schedule-
  // independent, hence bit-identical across thread counts.
  if (hybrid_) {
    pool_.run(num_shards_,
              [this](std::size_t shard) { deliver_shard_hybrid(shard); });
    rethrow_shard_error();
    // Publish this round's broadcasts: swap arenas (messages move by
    // pointer — payload capacity is retained, the steady state stays
    // allocation-free) and clear the new out arena's presence bytes.
    std::swap(bc_in_kind_, bc_out_kind_);
    std::swap(bc_in_msgs_, bc_out_msgs_);
    std::fill(bc_out_kind_.begin(), bc_out_kind_.end(), 0);
  } else {
    pool_.run(num_shards_,
              [this](std::size_t shard) { deliver_shard(shard); });
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
  CLB_EXPECT(u < topo_->n && v < topo_->n,
             "bits_on_edge: node id out of range");
  if (hybrid_) {
    CLB_EXPECT(topo_->has_edge(u, v), "bits_on_edge: no such edge");
    // Broadcast delivery: every bit u ever sent was delivered to v (and
    // vice versa), so the per-sender accumulators are exactly the per-edge
    // totals of the materialized engine.
    return dbits_node_[u] + dbits_node_[v];
  }
  const std::size_t su = topo_->slot_of(v, u);  // u's position in v's list
  CLB_EXPECT(su != Topology::kNoSlot, "bits_on_edge: no such edge");
  const std::size_t sv = topo_->slot_of(u, v);
  return dbits_[topo_->offsets[v] + su] + dbits_[topo_->offsets[u] + sv];
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
