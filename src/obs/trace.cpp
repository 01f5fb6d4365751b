#include "obs/trace.hpp"

#include <ostream>

#include "support/expect.hpp"

namespace congestlb::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kRoundBegin: return "round_begin";
    case EventKind::kRoundEnd: return "round_end";
    case EventKind::kSend: return "send";
    case EventKind::kDeliver: return "deliver";
    case EventKind::kPhase: return "phase";
    case EventKind::kBlackboardPost: return "blackboard_post";
  }
  return "unknown";
}

Tracer::Tracer(TraceConfig config) : config_(config) {
  CLB_EXPECT(config_.sample_period >= 1,
             "TraceConfig: sample_period must be >= 1");
  if (enabled()) ring_.resize(config_.capacity);
}

void Tracer::bind(std::size_t num_shards, std::size_t per_shard_capacity) {
  if (!enabled()) return;
  CLB_EXPECT(num_shards >= 1, "Tracer::bind: need at least one shard");
  num_shards_ = num_shards;
  stage_.assign(2 * num_shards, Stage{});
  for (Stage& st : stage_) st.buf.resize(per_shard_capacity);
}

void Tracer::push(const TraceEvent& ev) {
  if (!enabled()) return;
  const std::size_t cap = ring_.size();
  if (count_ < cap) {
    ring_[(head_ + count_) % cap] = ev;
    ++count_;
  } else {
    ring_[head_] = ev;  // overwrite the oldest
    head_ = (head_ + 1) % cap;
    ++dropped_;
  }
  ++recorded_;
}

void Tracer::seal_round() {
  if (!enabled()) return;
  for (std::size_t phase = 0; phase < 2; ++phase) {
    for (std::size_t shard = 0; shard < num_shards_; ++shard) {
      Stage& st = stage_[phase * num_shards_ + shard];
      for (std::size_t i = 0; i < st.len; ++i) push(st.buf[i]);
      dropped_ += st.overflow;
      st.len = 0;
      st.overflow = 0;
    }
  }
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  const std::size_t cap = ring_.size();
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(head_ + i) % cap]);
  }
  return out;
}

std::vector<TraceEvent> Tracer::events_since(std::uint64_t since,
                                             std::uint64_t* next) const {
  CLB_EXPECT(next != nullptr, "Tracer::events_since: next must not be null");
  *next = recorded_;
  std::vector<TraceEvent> out;
  const std::uint64_t oldest = recorded_ - count_;  // seq of ring_[head_]
  if (since >= recorded_) return out;
  const std::uint64_t from = since < oldest ? oldest : since;
  const std::size_t cap = ring_.size();
  out.reserve(static_cast<std::size_t>(recorded_ - from));
  for (std::uint64_t s = from; s < recorded_; ++s) {
    out.push_back(ring_[(head_ + static_cast<std::size_t>(s - oldest)) % cap]);
  }
  return out;
}

void Tracer::clear() {
  head_ = 0;
  count_ = 0;
  recorded_ = 0;
  dropped_ = 0;
  for (Stage& st : stage_) {
    st.len = 0;
    st.overflow = 0;
  }
}

void write_canonical(std::ostream& os, std::span<const TraceEvent> events) {
  for (const TraceEvent& ev : events) {
    os << ev.round << ' ' << to_string(ev.kind) << ' ';
    if (ev.a == TraceEvent::kNone) {
      os << '-';
    } else {
      os << ev.a;
    }
    os << ' ';
    if (ev.b == TraceEvent::kNone) {
      os << '-';
    } else {
      os << ev.b;
    }
    os << ' ' << ev.value << '\n';
  }
}

}  // namespace congestlb::obs
