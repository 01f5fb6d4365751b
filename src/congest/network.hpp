// Synchronous CONGEST-Broadcast simulator.
//
// A Network runs one NodeProgram instance per node of a weighted graph in
// synchronized rounds. In every round each node reads the messages its
// neighbors sent in the previous round and may send one message of at most
// `bits_per_edge` bits to all its neighbors — the CONGEST-Broadcast model
// of the paper's introduction, with the O(log n) bandwidth of the CONGEST
// model *enforced at send time*: oversending throws from Outbox::send_all.
// Every program in this repository broadcasts, and a broadcast crosses each
// of the sender's edges, so per-edge traffic — what the reduction driver
// (Theorem 5) charges to a communication blackboard for the cut edges — is
// exactly the CONGEST accounting.
//
// The model is fault-free, as in Theorem 5's simulation argument: every
// message sent in round r is delivered, unmodified, at the start of round
// r+1. Edge traffic, RunStats bit counters, and the on_message observer
// therefore all see the same traffic, so blackboard charging is exact.
// The observer has one path: the network lists the observed deliveries
// once, at construction, and visits only them each round. Given a per-node
// owner table (NetworkConfig::owner, the reduction driver's player
// partition) those are exactly the deliveries that cross between two
// owners; without one every node is its own owner and every delivery is
// listed. The list walks each node's merged neighbors, so it works on
// implicit-block topologies too, but it costs O(observed deliveries)
// memory: an observer is a small-n tool, and an unobserved network builds
// no list at all.
//
// Engine layout (the hot path is allocation-free after warm-up):
//  - the network borrows the graph's immutable CSR (holding its shared_ptr,
//    so the graph may change or die afterwards) and copies its small
//    implicit-block table. Every node's NodeInfo::neighbors is the graph
//    layer's merged NeighborsView over those two — the same view
//    Graph::neighbors returns;
//  - node v owns one *out-slot*, at index v, in a double-buffered send
//    arena: a presence byte and a small-buffer Message. Every neighbor of v
//    reads that one slot, so per-round memory is O(n) however many edges
//    the graph or its blocks imply, and per-edge bits are the sum of the
//    two endpoints' per-node counters;
//  - a round is one phase. Each shard (a contiguous node range) clears its
//    own out-slots in the current arena, runs its programs — an Inbox
//    reads the *previous* arena in place at each neighbor's out-slot, an
//    Outbox writes the sender's slot in the current one — and accounts its
//    own out-slots. The arenas swap at round end; no message is ever
//    copied to a receiver;
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
/// receiver's NeighborsView and reading each neighbor u's out-slot, u.
/// Elements behave like std::optional<Message> (contextual bool,
/// has_value(), *, ->) so algorithm code reads naturally.
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
    Slot operator*() const { return box_->slot(*nb_); }
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

  Inbox(NeighborsView neighbors, const std::uint8_t* sent,
        const Message* msgs)
      : neighbors_(neighbors), sent_(sent), msgs_(msgs) {}

  std::size_t size() const { return neighbors_.size(); }
  bool empty() const { return neighbors_.empty(); }

  /// Throws InvariantError when i >= size().
  Slot operator[](std::size_t i) const { return slot(neighbors_[i]); }

  const_iterator begin() const {
    return const_iterator(this, neighbors_.begin(), 0);
  }
  const_iterator end() const {
    return const_iterator(this, neighbors_.end(), size());
  }

 private:
  Slot slot(NodeId u) const { return Slot(msgs_ + u, sent_[u] != 0); }

  NeighborsView neighbors_;
  const std::uint8_t* sent_;  ///< previous round's presence bytes
  const Message* msgs_;       ///< previous round's messages
};

/// This round's message of one sender: a view over the sender's out-slot
/// in the send arena — one presence byte and one Message, read by every
/// neighbor. The CONGEST bandwidth budget is enforced here, at send time,
/// so an oversending program fails at the offending send.
class Outbox {
 public:
  static constexpr std::size_t kUnlimitedBits = ~static_cast<std::size_t>(0);

  /// `sent`/`msg` are the sender's presence byte and message slot, already
  /// cleared for this round; `fanout` is its number of neighbors.
  Outbox(std::uint8_t* sent, Message* msg, std::size_t fanout,
         std::size_t cap_bits = kUnlimitedBits)
      : sent_(sent), msg_(msg), fanout_(fanout), cap_bits_(cap_bits) {}

  /// Send `msg` (at most cap_bits bits) to every neighbor. One call per
  /// round: a second throws. With no neighbors this is a no-op.
  void send_all(const Message& msg);

  /// True once this round's message is stored.
  bool has() const { return *sent_ != 0; }
  const Message& message() const { return *msg_; }

 private:
  std::uint8_t* sent_;
  Message* msg_;
  std::size_t fanout_;
  std::size_t cap_bits_;
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
  /// Inert: every Network is a broadcast network, and no code reads this.
  /// Kept only for source compatibility with callers that still set it.
  bool broadcast_only = false;
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
  /// lists the observed deliveries once, so an observer costs O(observed
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

  /// Invoke config_.on_message for this round's deliveries on cut_edges_,
  /// in the canonical (sender, neighbor-ascending) order — identical for
  /// every num_threads.
  void notify_observer();

  /// Rethrow the first (by shard index) exception captured during a phase.
  void rethrow_shard_error();

  /// Node v is terminal: finished or failed.
  bool node_terminal(NodeId v) const;

  /// Node v's view of the messages in `arena`.
  Inbox inbox(NodeId v, const Arena& arena) const;

  std::shared_ptr<const graph::Csr> csr_;  ///< the graph's, borrowed
  std::vector<graph::ImplicitBlock> blocks_;
  std::size_t bits_per_edge_;
  NetworkConfig config_;
  std::vector<NodeInfo> infos_;
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<Rng> node_rng_;

  /// arena_[cur_] is written this round; the other holds the previous
  /// round's sends, which this round's inboxes read.
  Arena arena_[2];
  std::size_t cur_ = 0;
  /// Bits node v sent so far; each reached every neighbor of v.
  std::vector<std::uint64_t> dbits_;

  /// An observed delivery: it crosses between two owners. Its message sits
  /// in the sender's out-slot, `from`.
  struct CutEdge {
    NodeId from;
    NodeId to;
  };
  /// Built from NetworkConfig::owner when an observer is installed (empty
  /// otherwise), in canonical (sender, neighbor-ascending) order.
  std::vector<CutEdge> cut_edges_;

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
