// Synchronous CONGEST-model simulator.
//
// A Network runs one NodeProgram instance per node of a weighted graph in
// synchronized rounds. In every round each node reads the messages its
// neighbors sent in the previous round and may send a (possibly different)
// message to each neighbor, of at most `bits_per_edge` bits — the O(log n)
// bandwidth of the CONGEST model, *enforced at send time*: oversending
// throws from Outbox::send. The simulator records per-edge traffic so the
// reduction driver (Theorem 5) can charge exactly the cut-crossing bits to a
// communication blackboard.
//
// A CONGEST-Broadcast restriction (the model of [11], discussed in the
// paper's introduction) is available via Config::broadcast_only: a node must
// send the same message to all neighbors in a round, or to none.
//
// The model is fault-free, as in Theorem 5's simulation argument: every
// message sent in round r is delivered, unmodified, at the start of round
// r+1. Edge traffic, RunStats bit counters, and the on_message observer
// therefore all see the same traffic, so blackboard charging is exact.
// The observer has one path: the network lists the observed out-slots once,
// at construction, and visits only them each round. Given a per-node owner
// table (NetworkConfig::owner, the reduction driver's player partition)
// those are exactly the deliveries that cross between two owners; without
// one every node is its own owner and every delivery is listed. The list
// walks each node's merged neighbors, so it works on implicit-block
// topologies too, but it costs O(observed deliveries) memory: an observer
// is a small-n tool, and an unobserved network builds no list at all.
//
// Engine layout (the hot path is allocation-free after warm-up):
//  - the network borrows the graph's immutable CSR (holding its shared_ptr,
//    so the graph may change or die afterwards) and copies its small
//    implicit-block table. Every node's NodeInfo::neighbors is the graph
//    layer's merged NeighborsView over those two — the same view
//    Graph::neighbors returns;
//  - every node owns a contiguous run of *out-slots* in a double-buffered
//    send arena (a presence byte + a small-buffer Message per slot). A
//    unicast network gives node v one out-slot per explicit neighbor, at
//    offsets[v]; a broadcast network — a graph with implicit blocks, or
//    broadcast_only — gives it a single out-slot at v that every neighbor
//    reads, so per-round memory is O(n) however many edges blocks imply;
//  - a presence byte is kSlotEmpty, kSlotOwn (the slot holds its message),
//    or — unicast send_all only — kSlotAsFirst: the message is the one in
//    the sender's first out-slot. A broadcast on a unicast network thus
//    stores its message once, not once per neighbor; every reader of the
//    arena (Inbox, the accounting, the observer, the tracer) resolves it;
//  - a unicast receiver finds its message in O(1) through a reverse-slot
//    map built at construction: for directed slot d = offsets[v] + i with
//    u = targets[d], reverse_slot[d] is v's position in u's sorted row, so
//    the message u -> v sits at out-slot offsets[u] + reverse_slot[d]. A
//    broadcast network needs no map (the sender's slot is u) and builds
//    none;
//  - a round is one phase. Each shard (a contiguous node range) clears its
//    own out-slots in the current arena, runs its programs — an Inbox
//    reads the *previous* arena in place at the sender's out-slot, an
//    Outbox writes the current one — and accounts its own out-slots. The
//    arenas swap at round end; no message is ever copied to a receiver;
//  - NetworkConfig::num_threads > 1 runs the shards in parallel. Writes go
//    only to a shard's own out-slots and reads come only from the previous
//    arena, so there is nothing to race on; per-shard counters merge in
//    shard order. Results — program outputs, RunStats, per-edge traffic,
//    observer transcripts, traces — are bit-for-bit identical to the
//    serial engine for every thread count.

#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace congestlb::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class Tracer;
}  // namespace congestlb::obs

namespace congestlb::congest {

using graph::NeighborsView;
using graph::NodeId;

/// Presence states of a send-arena out-slot (see the file comment).
inline constexpr std::uint8_t kSlotEmpty = 0;
inline constexpr std::uint8_t kSlotOwn = 1;
/// Unicast send_all: the message sits in the sender's first out-slot.
inline constexpr std::uint8_t kSlotAsFirst = 2;

/// What a node statically knows about itself and its surroundings — its own
/// id, weight, the ids of its neighbors, and n (standard KT1-style knowledge
/// plus n, as assumed by the paper's constructions where nodes know the
/// fixed topology template). `neighbors` views the CSR and block table the
/// Network holds; it stays valid for the Network's lifetime.
struct NodeInfo {
  NodeId id = 0;
  std::size_t n = 0;                  ///< number of nodes in the network
  graph::Weight weight = 1;           ///< this node's weight
  /// Sorted neighbor ids, explicit and block-implied (graph.hpp).
  NeighborsView neighbors;
  std::size_t bits_per_edge = 0;      ///< per-round per-edge bandwidth
};

/// Messages received this round: slot i corresponds to
/// NodeInfo::neighbors[i]. A view that reads the previous round's send
/// arena in place — nothing is copied to the receiver — walking the
/// receiver's NeighborsView and mapping each neighbor u to the out-slot u
/// wrote: `offsets[u] + reverse[i]` on a unicast network (or `offsets[u]`,
/// u's first out-slot, when that slot is kSlotAsFirst), `u` itself on a
/// broadcast network (reverse == nullptr). Elements behave like
/// std::optional<Message> (contextual bool, has_value(), *, ->) so
/// algorithm code reads naturally.
class Inbox {
 public:
  /// One received-message slot; empty when the neighbor sent nothing.
  class Slot {
   public:
    Slot(const Message* msg, bool present) : msg_(msg), present_(present) {}

    explicit operator bool() const { return present_; }
    bool has_value() const { return present_; }
    const Message& operator*() const { return *msg_; }
    const Message* operator->() const { return msg_; }

   private:
    const Message* msg_;
    bool present_;
  };

  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Slot;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Slot;

    const_iterator(const Inbox* box, NeighborsView::const_iterator nb,
                   std::size_t idx)
        : box_(box), nb_(nb), idx_(idx) {}
    Slot operator*() const { return box_->slot(*nb_, idx_); }
    const_iterator& operator++() {
      ++nb_;
      ++idx_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    const Inbox* box_;
    NeighborsView::const_iterator nb_;
    std::size_t idx_;
  };

  Inbox(NeighborsView neighbors, const std::size_t* offsets,
        const std::uint32_t* reverse, const std::uint8_t* sent,
        const Message* msgs)
      : neighbors_(neighbors),
        offsets_(offsets),
        reverse_(reverse),
        sent_(sent),
        msgs_(msgs) {}

  std::size_t size() const { return neighbors_.size(); }
  bool empty() const { return neighbors_.empty(); }

  /// Throws InvariantError when i >= size().
  Slot operator[](std::size_t i) const { return slot(neighbors_[i], i); }

  const_iterator begin() const {
    return const_iterator(this, neighbors_.begin(), 0);
  }
  const_iterator end() const {
    return const_iterator(this, neighbors_.end(), size());
  }

 private:
  Slot slot(NodeId u, std::size_t i) const {
    if (reverse_ == nullptr) return Slot(msgs_ + u, sent_[u] != kSlotEmpty);
    const std::size_t first = offsets_[u];
    const std::size_t o = first + reverse_[i];
    const std::uint8_t state = sent_[o];
    return Slot(msgs_ + (state == kSlotAsFirst ? first : o),
                state != kSlotEmpty);
  }

  NeighborsView neighbors_;
  const std::size_t* offsets_;
  const std::uint32_t* reverse_;  ///< receiver's reverse_slot row, or null
  const std::uint8_t* sent_;      ///< previous round's presence bytes
  const Message* msgs_;           ///< previous round's messages
};

/// Messages to send this round, same slot convention as Inbox. Inside the
/// engine an Outbox is a view over the per-round send arena; the
/// `Outbox(num_neighbors)` constructor makes a self-contained one for tests.
/// The CONGEST bandwidth budget is enforced here, at send time, so an
/// oversending program fails at the offending send.
class Outbox {
 public:
  static constexpr std::size_t kUnlimitedBits = ~static_cast<std::size_t>(0);

  /// Self-contained outbox (owns its slots); used by unit tests.
  explicit Outbox(std::size_t num_neighbors,
                  std::size_t cap_bits = kUnlimitedBits);

  /// Arena view: `kind`/`msgs` are the engine's presence bytes and message
  /// slots for one sender, already cleared for this round.
  Outbox(std::uint8_t* kind, Message* msgs, std::size_t count,
         std::size_t cap_bits)
      : kind_(kind), msgs_(msgs), count_(count), cap_bits_(cap_bits) {}

  /// Broadcast view (broadcast networks: implicit blocks or
  /// NetworkConfig::broadcast_only): one presence byte + one message slot
  /// backs all `fanout` neighbor slots, since receivers read the sender's
  /// one slot. Sends must cover the slots in ascending order, each once,
  /// with identical payloads (CONGEST-Broadcast semantics), and the engine
  /// requires all-or-none fan-out after the program runs.
  static Outbox broadcast_view(std::uint8_t* kind, Message* msg,
                               std::size_t fanout, std::size_t cap_bits) {
    Outbox ob(kind, msg, fanout, cap_bits);
    ob.bcast_ = true;
    return ob;
  }

  /// Queue a message for neighbor slot `i` (at most one per round per edge,
  /// at most cap_bits bits).
  void send(std::size_t slot, const Message& msg);

  /// Queue the same message to every neighbor (broadcast). The message is
  /// stored once, in slot 0; on a unicast view the other slots are marked
  /// kSlotAsFirst. Mixing send and send_all in one round throws (one
  /// message per neighbor per round); with no neighbors this is a no-op.
  void send_all(const Message& msg);

  std::size_t size() const { return count_; }
  bool has(std::size_t slot) const {
    return kind_[bcast_ ? 0 : slot] != kSlotEmpty;
  }
  const Message& message(std::size_t slot) const {
    return msgs_[bcast_ || kind_[slot] == kSlotAsFirst ? 0 : slot];
  }

  /// How many neighbor slots this round's broadcast covers: in broadcast
  /// mode the sends issued, on a unicast view size() after a send_all and 0
  /// otherwise. The engine requires 0 or size() — one out-slot per node
  /// cannot represent partial fan-out — and accounts a nonzero count as
  /// one message reaching every neighbor.
  std::size_t broadcast_sends() const { return sent_count_; }

 private:
  std::vector<std::uint8_t> own_kind_;  ///< engaged only in owning mode
  std::vector<Message> own_msgs_;       ///< engaged only in owning mode
  std::uint8_t* kind_ = nullptr;
  Message* msgs_ = nullptr;
  std::size_t count_ = 0;
  std::size_t cap_bits_ = kUnlimitedBits;
  bool bcast_ = false;  ///< broadcast view
  /// Broadcast view: sends issued. Unicast view: count_ once send_all ran,
  /// else 0 (per-slot sends are not counted).
  std::size_t sent_count_ = 0;
};

/// A per-node distributed program. The simulator calls round() once per
/// synchronous round until every program reports finished() (or the round
/// limit is hit). Programs keep their own state across rounds.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// One synchronous round: consume last round's inbox, fill this round's
  /// outbox. `rng` is this node's private randomness (deterministic per
  /// network seed + node id).
  virtual void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
                     Rng& rng) = 0;

  /// True when this node's output is final. A finished node still receives
  /// rounds (it may need to keep echoing) but the network halts when all
  /// nodes are finished and no message is in flight.
  virtual bool finished() const = 0;

  /// True when this node has given up (e.g. approx_mis hit its round
  /// deadline without converging). A failed node is terminal for halting
  /// purposes, like finished() — the network does not spin to max_rounds
  /// waiting for it — but its output() is not to be trusted.
  virtual bool failed() const { return false; }

  /// The node's output value; meaning is program-specific (e.g. 1 = "I am in
  /// the independent set").
  virtual std::int64_t output() const { return 0; }
};

using ProgramFactory =
    std::function<std::unique_ptr<NodeProgram>(NodeId, const NodeInfo&)>;

struct NetworkConfig {
  /// Per-edge per-round bandwidth in bits; 0 means "auto": congest_bandwidth_bits(n).
  std::size_t bits_per_edge = 0;
  std::size_t max_rounds = 1'000'000;
  std::uint64_t seed = 0xC0D1F1EDULL;
  bool broadcast_only = false;  ///< CONGEST-Broadcast restriction
  /// Threads of parallelism for the round executor; 0/1 = serial. Every
  /// observable result is bit-identical across all values (the parallel
  /// engine is deterministic by construction), so this is purely a speed
  /// knob. Programs of distinct nodes run concurrently and must not share
  /// mutable state behind the simulator's back.
  std::size_t num_threads = 1;
  /// Observer invoked at delivery time (round, from, to, msg) for every
  /// message that crosses between two owners (see `owner`; with no owner
  /// table, every message). Invoked serially in the canonical (sender,
  /// neighbor-ascending) order regardless of num_threads. The constructor
  /// lists the observed out-slots once, so an observer costs O(observed
  /// deliveries) memory on any topology — a small-n tool.
  std::function<void(std::size_t, NodeId, NodeId, const Message&)> on_message;
  /// Optional per-node owner table (owner[v] for every node), used by
  /// sim's reduction driver to charge cut-crossing messages to the
  /// communication blackboard (Theorem 5's simulation): on_message observes
  /// only the deliveries (u, v) with owner[u] != owner[v]. Empty means
  /// every node is its own owner. Read only by the constructor, on
  /// materialized and implicit-block topologies alike.
  std::span<const std::size_t> owner;
  /// Round-level tracer (obs/trace.hpp); null = no tracing. Not owned; must
  /// outlive the Network. The engine binds per-shard staging buffers at
  /// construction and records round begin/end, sends, and deliveries —
  /// bit-identical across num_threads and allocation-free in the steady
  /// state. A tracer whose enabled() is false (zero capacity, or
  /// CONGESTLB_TRACE=0 builds) behaves exactly like null.
  obs::Tracer* tracer = nullptr;
  /// Metrics registry (obs/metrics.hpp); null = no metrics. Not owned; must
  /// outlive the Network. The engine registers engine.* counters, gauges,
  /// and the engine.message_bits histogram, updating per-shard cells from
  /// worker threads; merged values equal RunStats for every thread count.
  obs::MetricsRegistry* metrics = nullptr;
};

struct RunStats {
  std::size_t rounds = 0;
  std::uint64_t messages_sent = 0;  ///< messages actually delivered
  std::uint64_t bits_sent = 0;      ///< bits actually delivered
  bool all_finished = false;
  bool any_failed = false;  ///< some program reported failed()

  /// Field-wise equality — the determinism suite asserts parallel == serial.
  friend bool operator==(const RunStats&, const RunStats&) = default;
};

/// The default CONGEST bandwidth for an n-node network: c * ceil(log2 n)
/// bits with c = 4 (room for a node id plus a small header in one message;
/// any constant is fine for O(log n) accounting and benches report B
/// explicitly). constexpr: budgets embedded in program tables can be
/// computed at compile time.
constexpr std::size_t congest_bandwidth_bits(std::size_t n) {
  const std::size_t clamped = n < 2 ? 2 : n;
  return 4 * static_cast<std::size_t>(ceil_log2(clamped));
}

class Network {
 public:
  /// The graph must be non-empty. One program per node is created eagerly.
  /// The network borrows the graph's CSR and copies its block table and
  /// weights; the graph need not outlive the Network.
  Network(const graph::Graph& g, const ProgramFactory& factory,
          NetworkConfig config = {});

  /// Run until every node is terminal — finished() or failed() — and the
  /// network is quiet, or until max_rounds. Can be called repeatedly to
  /// continue a paused run: in-flight messages are preserved across calls.
  RunStats run();

  /// Execute up to `rounds` additional rounds (for lockstep simulation by
  /// the reduction driver). max_rounds is enforced across repeated calls:
  /// the network never executes more than config.max_rounds rounds total.
  RunStats run_rounds(std::size_t rounds);

  const NodeProgram& program(NodeId v) const;
  const NodeInfo& info(NodeId v) const;
  std::size_t bits_per_edge() const { return bits_per_edge_; }
  std::size_t rounds_executed() const { return stats_.rounds; }
  const RunStats& stats() const { return stats_; }

  /// Total bits sent over edge {u,v} in both directions so far.
  std::uint64_t bits_on_edge(NodeId u, NodeId v) const;

  /// Outputs of all programs, indexed by node.
  std::vector<std::int64_t> outputs() const;

  /// All node ids whose program output() is nonzero (e.g. an IS indicator).
  std::vector<NodeId> selected_nodes() const;

 private:
  /// Per-shard round counters, merged (in shard order) into RunStats at
  /// round end. Cache-line padded so shards never false-share.
  struct alignas(64) ShardCounters {
    std::uint64_t delivered = 0;
    std::uint64_t bits_delivered = 0;

    void reset() { *this = ShardCounters{}; }
  };

  /// Cached handles into NetworkConfig::metrics (all null when no registry
  /// is bound). Looked up once at construction so hot-path updates are a
  /// pointer deref plus a per-shard cell increment.
  struct EngineMetrics {
    obs::Counter* rounds = nullptr;
    obs::Counter* messages_delivered = nullptr;
    obs::Counter* bits_delivered = nullptr;
    obs::Gauge* inflight = nullptr;
    obs::Histogram* message_bits = nullptr;
  };

  /// One round's sends: a presence byte and a message per out-slot. All
  /// payload capacity is retained across rounds — after warm-up the round
  /// loop performs no allocations.
  struct Arena {
    std::vector<std::uint8_t> sent;
    std::vector<Message> msgs;
  };

  bool step();  ///< one round; returns true if any message was delivered/sent

  /// The round, for one contiguous node shard: clear the shard's out-slots
  /// in the current arena, run its programs, account its out-slots.
  void compute_shard(std::size_t shard);

  /// Traced or metered rounds only, for one shard of *receivers*: emit the
  /// deliver events and metric observations in receiver order.
  void observe_shard(std::size_t shard);

  /// Invoke config_.on_message for this round's deliveries on cut_slots_,
  /// in the canonical (sender, neighbor-ascending) order — identical for
  /// every num_threads.
  void notify_observer();

  /// Rethrow the first (by shard index) exception captured during a phase.
  void rethrow_shard_error();

  /// Node v is terminal: finished or failed.
  bool node_terminal(NodeId v) const;

  /// First out-slot of node v; v's out-slots end where v+1's begin.
  std::size_t first_slot(NodeId v) const {
    return bcast_ ? v : csr_->offsets[v];
  }

  /// Node v's view of the messages in `arena`.
  Inbox inbox(NodeId v, const Arena& arena) const;

  std::shared_ptr<const graph::Csr> csr_;  ///< the graph's, borrowed
  std::vector<graph::ImplicitBlock> blocks_;
  /// Unicast only (empty on a broadcast network); see the file comment.
  std::vector<std::uint32_t> reverse_slot_;
  std::size_t bits_per_edge_;
  NetworkConfig config_;
  bool bcast_ = false;  ///< broadcast layout: one out-slot per node
  std::vector<NodeInfo> infos_;
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<Rng> node_rng_;

  /// arena_[cur_] is written this round; the other holds the previous
  /// round's sends, which this round's inboxes read.
  Arena arena_[2];
  std::size_t cur_ = 0;
  std::vector<std::uint64_t> dbits_;  ///< delivered bits per out-slot

  /// An observed out-slot: its deliveries cross between two owners.
  struct CutSlot {
    std::size_t slot;  ///< the out-slot (u on a broadcast network)
    NodeId from;
    NodeId to;
  };
  /// Built from NetworkConfig::owner when an observer is installed (empty
  /// otherwise), in canonical (sender, neighbor-ascending) order.
  std::vector<CutSlot> cut_slots_;

  ThreadPool pool_;
  std::size_t num_shards_ = 1;
  /// Contiguous [begin, end) node ranges from edge_tiled_shards:
  /// boundaries balance directed-slot counts, not node counts, so
  /// high-degree gadget vertices don't skew shard load. A pure function of
  /// the graph — determinism across thread counts holds regardless of the
  /// partition.
  std::vector<std::pair<NodeId, NodeId>> shard_range_;
  std::vector<ShardCounters> shard_;
  std::vector<std::exception_ptr> shard_error_;

  std::size_t inflight_count_ = 0;  ///< messages sent last round
  RunStats stats_;

  obs::Tracer* tracer_ = nullptr;  ///< non-null iff tracing is live
  bool trace_round_ = false;       ///< current round sampled by the tracer?
  bool trace_sends_ = false;       ///< tracer_->config().record_sends, cached
  EngineMetrics em_;               ///< all-null when no registry is bound
};

/// The unicast reverse-slot map of `csr` (see the file comment): for every
/// directed slot, the receiver's position in the sender's sorted row. O(n +
/// m) with one counting pass; what a unicast Network builds at
/// construction.
std::vector<std::uint32_t> reverse_slots(const graph::Csr& csr);

/// Edge-tiled shard partition: `num_shards` contiguous [begin, end) node
/// ranges whose boundaries balance per-shard cost, where node v costs
/// degree(v) + 1 — directed message slots dominate a round, the +1 keeps
/// degree-0 nodes from all landing in one shard. Unlike an equal-node
/// split, a high-degree gadget hub (the clique/biclique blocks of the
/// paper's F_x̄/G_x̄ constructions) gets a shard of its own instead of
/// skewing whichever shard its id falls into. Implicit-block degrees count
/// arithmetically (Graph::degree_prefix), so the 10^10-edge scaled families
/// still balance on edges without touching them.
///
/// A pure function of (graph, num_shards) — never of thread scheduling —
/// so the parallel round executor built on it stays bit-identical to serial
/// for every thread count. Shards may be empty; ranges cover [0, n) in
/// order.
std::vector<std::pair<NodeId, NodeId>> edge_tiled_shards(
    const graph::Graph& g, std::size_t num_shards);

}  // namespace congestlb::congest
