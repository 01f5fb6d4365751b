// Round-level structured tracing for the CONGEST engine.
//
// The paper's lower bounds are statements about exact per-round, per-edge
// communication (Lemmas 1-3 charge cut-crossing bits round by round;
// Theorem 5 sums them), so the engine needs telemetry at exactly that
// granularity: which message crossed which directed edge in which round.
// A Tracer records fixed-size POD
// TraceEvents into a preallocated ring buffer; exporters (obs/export.hpp)
// turn the ring into Chrome trace_event JSON or a canonical text form, and
// the property suite replays it against RunStats and the cut-bit
// accounting.
//
// Determinism contract: a traced run produces a bit-identical event
// sequence for every NetworkConfig::num_threads. The engine stages events
// from parallel phases into per-(phase, shard) buffers and seals each round
// by draining phase 0's shards in shard order, then phase 1's — since
// shards are contiguous ascending node ranges and each shard emits in
// ascending node order, the sealed order is the global ascending node order
// regardless of the shard count.
//
// Cost contract: the zero-allocation steady state of the engine survives
// tracing. All buffers are sized when the engine binds the tracer
// (Tracer::bind); emit/seal never allocate — a full staging buffer or ring
// drops events (counted in dropped()) instead of growing. Compiling with
// CONGESTLB_TRACE=0 (cmake -DCONGESTLB_TRACE=OFF) turns every emit path
// into a no-op that the optimizer deletes; at runtime, a null
// NetworkConfig::tracer or a zero-capacity ring disables recording, and a
// sample_period > 1 traces only every k-th round.

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#ifndef CONGESTLB_TRACE
#define CONGESTLB_TRACE 1
#endif

namespace congestlb::obs {

/// True when the tracer is compiled into this build (the CONGESTLB_TRACE
/// kill switch); tests skip trace assertions when it is off.
constexpr bool trace_compiled_in() { return CONGESTLB_TRACE != 0; }

/// What one TraceEvent describes. Event counts reconcile exactly with
/// RunStats: messages_sent = #kDeliver, bits_sent = sum of kDeliver values.
enum class EventKind : std::uint8_t {
  kRoundBegin = 0,  ///< value = number of nodes; round starts
  kRoundEnd,        ///< value = messages delivered this round
  kSend,            ///< a -> b, value = bits queued on the edge
  kDeliver,         ///< a -> b delivered, value = bits
  kPhase,           ///< algorithm/driver phase mark, value = phase id
  kBlackboardPost,  ///< player a posts value bits; round = entry index
};

/// Stable name for an event kind ("deliver", "send", ...).
const char* to_string(EventKind kind);

/// One structured trace record. 24-byte POD: fits a cache line pair per
/// ring slot and copies with memcpy semantics.
struct TraceEvent {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::uint64_t value = 0;        ///< bits / count / phase id (see kind)
  std::uint32_t round = 0;
  std::uint32_t a = kNone;        ///< node / sender / player
  std::uint32_t b = kNone;        ///< receiver (kNone when unary)
  EventKind kind = EventKind::kRoundBegin;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

struct TraceConfig {
  /// Ring capacity in events. 0 disables the tracer entirely. When the
  /// ring is full the oldest events are overwritten (dropped() counts
  /// them), so a bounded ring always holds the newest window.
  std::size_t capacity = std::size_t{1} << 16;
  /// Trace round r iff r % sample_period == 0. Must be >= 1. Reconciliation
  /// against RunStats requires 1 (every round) and dropped() == 0.
  std::size_t sample_period = 1;
  /// Record kSend events (compute phase). Delivery events alone suffice for
  /// bit accounting; sends roughly double the event volume.
  bool record_sends = true;
};

class Tracer {
 public:
  explicit Tracer(TraceConfig config = {});

  /// Recording is possible: compiled in and nonzero ring capacity.
  bool enabled() const { return trace_compiled_in() && config_.capacity > 0; }

  /// Should round `round` be traced?
  bool sampled(std::size_t round) const {
    return enabled() && round % config_.sample_period == 0;
  }

  const TraceConfig& config() const { return config_; }

  /// Engine binding: preallocate 2 * num_shards staging buffers (phase 0 =
  /// sends, phase 1 = the receiver-order deliver pass) of per_shard_capacity
  /// events each, plus
  /// the ring. Serial context only; the one place the tracer allocates.
  void bind(std::size_t num_shards, std::size_t per_shard_capacity);

  /// Record from phase `phase` (0 or 1) of shard `shard`. Safe to call
  /// concurrently for distinct (phase, shard); never allocates — a full
  /// staging buffer counts the event as dropped at seal time.
  void emit_shard(std::size_t phase, std::size_t shard, const TraceEvent& ev) {
    if constexpr (!trace_compiled_in()) {
      (void)phase, (void)shard, (void)ev;
      return;
    } else {
      Stage& st = stage_[phase * num_shards_ + shard];
      if (st.len < st.buf.size()) {
        st.buf[st.len++] = ev;
      } else {
        ++st.overflow;
      }
    }
  }

  /// Drain staging buffers into the ring in the canonical order (phase 0
  /// shards ascending, then phase 1 shards ascending). Serial context.
  void seal_round();

  /// Append directly to the ring (serial contexts: round begin/end, phase
  /// marks, blackboard posts).
  void emit(const TraceEvent& ev) {
    if constexpr (!trace_compiled_in()) {
      (void)ev;
      return;
    } else {
      push(ev);
    }
  }

  /// Events currently held, oldest first (allocates; not for hot paths).
  std::vector<TraceEvent> events() const;

  /// Tail the ring as a feed: every event whose global sequence number is
  /// >= `since`, oldest first, where event seq numbers run 0,1,2,... in
  /// recording order (recorded() is the next seq to be assigned). Events
  /// the ring has already overwritten are simply gone — a consumer that
  /// falls more than `capacity` events behind observes a gap, detectable
  /// as *next > since + result.size(). Sets *next to the seq to pass as
  /// `since` on the next call (never null). Serial context, like events().
  std::vector<TraceEvent> events_since(std::uint64_t since,
                                       std::uint64_t* next) const;

  /// Events currently in the ring.
  std::size_t size() const { return count_; }
  /// Events ever recorded into the ring (including later overwritten).
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost: overwritten by ring wrap-around plus staging overflow.
  std::uint64_t dropped() const { return dropped_; }

  /// Empty the ring and reset counters; bindings and capacity survive.
  void clear();

 private:
  struct Stage {
    std::vector<TraceEvent> buf;
    std::size_t len = 0;
    std::uint64_t overflow = 0;
  };

  void push(const TraceEvent& ev);

  TraceConfig config_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;   ///< index of the oldest event
  std::size_t count_ = 0;  ///< events in the ring
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Stage> stage_;  ///< 2 * num_shards_ entries, phase-major
  std::size_t num_shards_ = 0;
};

/// Canonical text form, one event per line: "<round> <kind> <a> <b>
/// <value>" with kNone printed as '-'. Byte-stable across platforms and
/// thread counts — the format the golden-trace test diffs.
void write_canonical(std::ostream& os, std::span<const TraceEvent> events);

}  // namespace congestlb::obs
