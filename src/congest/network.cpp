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
    // One slot backs all neighbors: sends must visit the slots in
    // ascending order, each once, and agree byte for byte.
    CLB_EXPECT(slot == sent_count_,
               "broadcast network: sends must cover neighbor slots once "
               "each, in ascending order");
    if (kind_[0] != kSlotEmpty) {
      CLB_EXPECT(msgs_[0].bits == msg.bits && msgs_[0].data == msg.data,
                 "broadcast network requires identical messages to all "
                 "neighbors in a round");
    } else {
      msgs_[0] = msg;
      kind_[0] = kSlotOwn;
    }
    ++sent_count_;
    return;
  }
  CLB_EXPECT(kind_[slot] == kSlotEmpty,
             "Outbox: one message per neighbor per round");
  msgs_[slot] = msg;  // copy-assign reuses the arena slot's capacity
  kind_[slot] = kSlotOwn;
}

void Outbox::send_all(const Message& msg) {
  if (count_ == 0) return;
  send(0, msg);
  if (!bcast_) {
    // The message is stored once, in slot 0; the other slots refer to it.
    for (std::size_t i = 1; i < count_; ++i) {
      CLB_EXPECT(kind_[i] == kSlotEmpty,
                 "Outbox: one message per neighbor per round");
      kind_[i] = kSlotAsFirst;
    }
  }
  sent_count_ = count_;
}

// ----------------------------------------------------------------- Network --

std::vector<std::uint32_t> reverse_slots(const graph::Csr& csr) {
  // Iterating senders u in ascending order visits, for each receiver v, the
  // entries "u appears in v's sorted row" in ascending u — so u's position
  // in v's row is exactly how many earlier senders were adjacent to v.
  const std::size_t n = csr.offsets.size() - 1;
  std::vector<std::uint32_t> reverse(csr.targets.size());
  std::vector<std::uint32_t> cursor(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t d = csr.offsets[u]; d < csr.offsets[u + 1]; ++d) {
      reverse[d] = cursor[csr.targets[d]]++;
    }
  }
  return reverse;
}

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
  const bool hybrid = !blocks_.empty();
  if (hybrid) {
    // Per-edge trace events and per-delivery metric observations are
    // O(total degree) — the very cost implicit blocks exist to avoid.
    CLB_EXPECT(config_.tracer == nullptr || !config_.tracer->enabled(),
               "tracing requires a materialized topology");
    CLB_EXPECT(config_.metrics == nullptr,
               "engine metrics require a materialized topology");
  }

  // Out-slots: one per node on a broadcast network, one per directed slot
  // (2m) otherwise. With 10^9+ block-implied edges only the former exists.
  bcast_ = hybrid || config_.broadcast_only;
  const std::size_t slots = bcast_ ? n : csr_->targets.size();
  for (Arena& a : arena_) {
    a.sent.assign(slots, 0);
    a.msgs.resize(slots);
  }
  dbits_.assign(slots, 0);
  if (!bcast_) reverse_slot_ = reverse_slots(*csr_);
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
    // The observed deliveries: out-slots (u, v) whose ends have different
    // owners. Without an owner table every node is its own owner, so every
    // delivery is listed.
    const std::span<const std::size_t> owner = config_.owner;
    for (NodeId u = 0; u < n; ++u) {
      std::size_t slot = first_slot(u);
      for (const NodeId v : infos_[u].neighbors) {
        if (owner.empty() || owner[u] != owner[v]) {
          cut_slots_.push_back({slot, u, v});
        }
        if (!bcast_) ++slot;
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
  const std::uint32_t* reverse =
      bcast_ ? nullptr : reverse_slot_.data() + csr_->offsets[v];
  return Inbox(infos_[v].neighbors, csr_->offsets.data(), reverse,
               arena.sent.data(), arena.msgs.data());
}

void Network::compute_shard(std::size_t shard) {
  try {
    const auto [begin, end] = shard_range_[shard];
    const std::size_t lo = first_slot(begin);
    const std::size_t hi = first_slot(end);
    Arena& out = arena_[cur_];
    const Arena& in = arena_[cur_ ^ 1];
    std::fill(out.sent.begin() + lo, out.sent.begin() + hi, 0);

    const std::size_t round = stats_.rounds;
    ShardCounters& sc = shard_[shard];
    for (NodeId v = begin; v < end; ++v) {
      const NodeInfo& info = infos_[v];
      const std::size_t fan = info.neighbors.size();
      std::uint8_t* sent = out.sent.data() + first_slot(v);
      Message* msgs = out.msgs.data() + first_slot(v);
      Outbox outbox = bcast_ ? Outbox::broadcast_view(sent, msgs, fan,
                                                      bits_per_edge_)
                             : Outbox(sent, msgs, fan, bits_per_edge_);
      programs_[v]->round(info, inbox(v, in), outbox, node_rng_[v]);
      if (outbox.broadcast_sends() != 0) {
        CLB_EXPECT(outbox.broadcast_sends() == fan,
                   "broadcast network requires all-or-none fan-out "
                   "(partial sends need per-edge slots)");
        // One message, stored once, reaches all `fan` neighbors. A
        // broadcast network's one out-slot counts its bits once; a unicast
        // sender's out-slots (kSlotAsFirst past the first) each count them.
        const std::uint64_t bits = msgs->bits;
        sc.delivered += fan;
        sc.bits_delivered += bits * fan;
        if (bcast_) {
          dbits_[v] += bits;
        } else {
          std::uint64_t* db = dbits_.data() + first_slot(v);
          for (std::size_t i = 0; i < fan; ++i) db[i] += bits;
        }
      } else if (!bcast_) {
        // Per-slot sends (no kSlotAsFirst slot): one branch-free pass over
        // v's out-slots, an empty slot's stale bits masked to 0, summed
        // into locals that the stores to dbits_ cannot alias.
        std::uint64_t delivered = 0;
        std::uint64_t bits_delivered = 0;
        std::uint64_t* db = dbits_.data() + first_slot(v);
        for (std::size_t i = 0; i < fan; ++i) {
          const std::uint64_t present = sent[i] != kSlotEmpty;
          const std::uint64_t bits = msgs[i].bits & (0 - present);
          delivered += present;
          bits_delivered += bits;
          db[i] += bits;
        }
        sc.delivered += delivered;
        sc.bits_delivered += bits_delivered;
      }
      if (trace_round_ && trace_sends_) {
        std::size_t s = 0;
        for (const NodeId w : info.neighbors) {
          if (outbox.has(s)) {
            tracer_->emit_shard(0, shard,
                                {outbox.message(s).bits, trnd(round), tid(v),
                                 tid(w), obs::EventKind::kSend});
          }
          ++s;
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
  // Canonical order, independent of num_threads: cut_slots_ is listed in
  // (sender, neighbor-ascending) order.
  const std::size_t round = stats_.rounds;
  const Arena& out = arena_[cur_];
  for (const CutSlot& c : cut_slots_) {
    const std::uint8_t state = out.sent[c.slot];
    if (state == kSlotEmpty) continue;
    const std::size_t o = state == kSlotAsFirst ? first_slot(c.from) : c.slot;
    config_.on_message(round, c.from, c.to, out.msgs[o]);
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
  // Each direction's bits sit in its sender's out-slot counter: the slot of
  // the receiver in the sender's row (unicast) or the sender's one slot
  // (broadcast: every bit it sent reached every neighbor).
  const auto slot = [this](NodeId from, NodeId to) {
    if (bcast_) return from;
    const auto row = csr_->row(from);
    return csr_->offsets[from] +
           static_cast<std::size_t>(std::ranges::lower_bound(row, to) -
                                    row.begin());
  };
  return dbits_[slot(u, v)] + dbits_[slot(v, u)];
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
