#include "comm/blackboard.hpp"

#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/expect.hpp"

namespace congestlb::comm {

namespace {
constexpr std::size_t kMax32 = std::numeric_limits<std::uint32_t>::max();
}

Blackboard::Blackboard(std::size_t num_players)
    : bits_by_player_(num_players, 0) {
  CLB_EXPECT(num_players >= 2, "a blackboard needs at least two players");
  CLB_EXPECT(num_players < (1ULL << 31), "blackboard: too many players");
}

void Blackboard::append(std::size_t player, std::span<const std::byte> data,
                        std::size_t bits, std::uint32_t sender,
                        std::size_t multiplicity) {
  CLB_EXPECT(player < num_players(), "blackboard: player index out of range");
  CLB_EXPECT(bits <= 8 * data.size(), "blackboard: declared bits exceed payload");
  CLB_EXPECT(bits > 0, "blackboard: empty writes are not charged, don't post them");
  CLB_EXPECT(bits <= kMax32, "blackboard: a post is limited to 2^32 - 1 bits");
  const std::size_t charged = bits * multiplicity;
  bits_by_player_[player] += charged;
  total_bits_ += charged;
  written_bits_ += bits;
  if (tracer_) {
    // One event per charged delivery, numbered among the charged posts.
    for (std::size_t i = 0; i < multiplicity; ++i) {
      tracer_->emit({bits, static_cast<std::uint32_t>(charged_posts_ + i),
                     static_cast<std::uint32_t>(player),
                     obs::TraceEvent::kNone, obs::EventKind::kBlackboardPost});
    }
  }
  if (posts_metric_) {
    posts_metric_->add(multiplicity);
    bits_metric_->add(charged);
  }
  charged_posts_ += multiplicity;
  if (num_records_ % kChunkRecords == 0) {
    chunks_.push_back(std::make_unique_for_overwrite<Record[]>(kChunkRecords));
  }
  chunks_.back()[num_records_ % kChunkRecords] =
      Record{payload_.size(), static_cast<std::uint32_t>(player),
             static_cast<std::uint32_t>(bits), sender,
             static_cast<std::uint32_t>(multiplicity)};
  payload_.insert(payload_.end(), data.begin(), data.end());
  ++num_records_;
}

void Blackboard::post_broadcast(std::size_t player,
                                std::span<const std::byte> data,
                                std::size_t bits, std::size_t sender,
                                std::size_t multiplicity) {
  CLB_EXPECT(sender < kNoSender32 && multiplicity >= 1 &&
                 multiplicity <= kMax32,
             "blackboard: a broadcast needs a sender id and a multiplicity "
             "in [1, 2^32 - 1)");
  append(player, data, bits, static_cast<std::uint32_t>(sender), multiplicity);
}

BoardEntry Blackboard::entry(std::size_t i) const {
  CLB_EXPECT(i < num_records_, "blackboard: transcript index out of range");
  const Record& rec = record(i);
  const std::size_t end =
      i + 1 < num_records_ ? record(i + 1).offset : payload_.size();
  BoardEntry e;
  e.player = rec.player;
  e.data = std::span<const std::byte>(payload_).subspan(rec.offset,
                                                        end - rec.offset);
  e.bits = rec.bits;
  if (rec.sender != kNoSender32) e.sender = rec.sender;
  e.multiplicity = rec.multiplicity;
  return e;
}

void Blackboard::attach_observability(obs::Tracer* tracer,
                                      obs::MetricsRegistry* metrics) {
  tracer_ = (tracer != nullptr && tracer->enabled()) ? tracer : nullptr;
  if (metrics != nullptr) {
    posts_metric_ = &metrics->counter("blackboard.posts");
    bits_metric_ = &metrics->counter("blackboard.bits");
  } else {
    posts_metric_ = nullptr;
    bits_metric_ = nullptr;
  }
}

void Blackboard::post_uint(std::size_t player, std::uint64_t value,
                           std::size_t bits) {
  CLB_EXPECT(bits >= 1 && bits <= 64, "post_uint: bits must be in [1,64]");
  if (bits < 64) {
    CLB_EXPECT(value < (1ULL << bits), "post_uint: value does not fit in bits");
  }
  std::vector<std::byte> data((bits + 7) / 8);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  }
  append(player, data, bits, kNoSender32, 1);
}

void Blackboard::post_bits(std::size_t player,
                           const std::vector<std::uint8_t>& bits01) {
  CLB_EXPECT(!bits01.empty(), "post_bits: empty bit vector");
  std::vector<std::byte> data((bits01.size() + 7) / 8);
  for (std::size_t i = 0; i < bits01.size(); ++i) {
    CLB_EXPECT(bits01[i] <= 1, "post_bits: entries must be 0 or 1");
    if (bits01[i]) {
      data[i / 8] |= static_cast<std::byte>(1u << (i % 8));
    }
  }
  append(player, data, bits01.size(), kNoSender32, 1);
}

std::uint64_t Blackboard::read_uint(const BoardEntry& entry) {
  CLB_EXPECT(entry.bits <= 64, "read_uint: entry wider than 64 bits");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < entry.data.size() && i < 8; ++i) {
    value |= static_cast<std::uint64_t>(entry.data[i]) << (8 * i);
  }
  if (entry.bits < 64) value &= (1ULL << entry.bits) - 1;
  return value;
}

std::vector<std::uint8_t> Blackboard::read_bits(const BoardEntry& entry) {
  std::vector<std::uint8_t> bits01(entry.bits);
  for (std::size_t i = 0; i < entry.bits; ++i) {
    bits01[i] = (static_cast<unsigned>(entry.data[i / 8]) >> (i % 8)) & 1u;
  }
  return bits01;
}

std::size_t Blackboard::bits_by(std::size_t player) const {
  CLB_EXPECT(player < num_players(), "blackboard: player index out of range");
  return bits_by_player_[player];
}

}  // namespace congestlb::comm
