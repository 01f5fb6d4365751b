// CONGEST messages.
//
// In the CONGEST model each node may send a (possibly different) message of
// O(log n) bits to each neighbor per round. A Message carries an explicit
// bit count; congest::Network enforces the per-edge budget and sim::
// ReductionDriver charges exactly these bits to the blackboard for cut
// edges. Helpers pack/unpack small integer fields so algorithm code never
// hand-rolls bit twiddling.
//
// Payloads live in a PayloadBytes small-buffer container: anything up to
// kInlineCapacity bytes (192 bits — beyond any O(log n) budget the benches
// use) is stored inline, so constructing, copying, and moving typical
// CONGEST messages never touches the heap. This is what lets the simulator's
// double-buffered message arenas run allocation-free after warm-up.

#pragma once

#include <cstddef>
#include <cstdint>

namespace congestlb::congest {

/// A byte buffer with small-buffer optimization and capacity-reusing copy
/// assignment (an assignment into a buffer that is already big enough never
/// allocates — the property the engine's message arenas rely on).
class PayloadBytes {
 public:
  static constexpr std::size_t kInlineCapacity = 24;

  /// Slack bytes allocated past every buffer's capacity (inline and heap),
  /// never part of size(): the SIMD bit packers (support/simd.hpp,
  /// Kernels::pack_bits) read-modify-write whole 8-byte windows plus a
  /// spill byte, so MessageWriter/MessageReader need
  /// simd::kPackSlackBytes addressable bytes beyond the payload. The
  /// window stores bytes beyond the payload back unchanged, so slack
  /// contents are never observable.
  static constexpr std::size_t kSlackBytes = 8;

  PayloadBytes() = default;
  PayloadBytes(const PayloadBytes& other) { assign(other.data(), other.size_); }
  PayloadBytes(PayloadBytes&& other) noexcept { swap(other); }
  ~PayloadBytes() { delete[] heap_; }

  PayloadBytes& operator=(const PayloadBytes& other) {
    if (this != &other) assign(other.data(), other.size_);
    return *this;
  }
  PayloadBytes& operator=(PayloadBytes&& other) noexcept {
    if (this != &other) swap(other);
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::byte* data() { return heap_ ? heap_ : inline_; }
  const std::byte* data() const { return heap_ ? heap_ : inline_; }

  std::byte& operator[](std::size_t i) { return data()[i]; }
  const std::byte& operator[](std::size_t i) const { return data()[i]; }

  const std::byte* begin() const { return data(); }
  const std::byte* end() const { return data() + size_; }

  /// Drop contents; capacity is retained.
  void clear() { size_ = 0; }

  /// Grow (zero-filling new bytes) or shrink; capacity never shrinks.
  void resize(std::size_t n);

  void push_back(std::byte b);

  /// Replace contents with [src, src+n); reuses capacity when possible.
  void assign(const std::byte* src, std::size_t n);

  void swap(PayloadBytes& other) noexcept;

  friend bool operator==(const PayloadBytes& a, const PayloadBytes& b) {
    if (a.size_ != b.size_) return false;
    const std::byte* pa = a.data();
    const std::byte* pb = b.data();
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (pa[i] != pb[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const PayloadBytes& a, const PayloadBytes& b) {
    return !(a == b);
  }

 private:
  void ensure_capacity(std::size_t n);

  std::byte inline_[kInlineCapacity + kSlackBytes] = {};
  std::byte* heap_ = nullptr;  ///< engaged once capacity spills past inline
  std::size_t size_ = 0;
  std::size_t capacity_ = kInlineCapacity;
};

struct Message {
  PayloadBytes data;
  std::size_t bits = 0;

  bool empty() const { return bits == 0; }

  /// Reset to the empty message, retaining payload capacity (arena reuse).
  void clear() {
    data.clear();
    bits = 0;
  }
};

/// Append-only bit writer producing a Message.
class MessageWriter {
 public:
  /// Append the low `width` bits of value (width in [1,64]).
  MessageWriter& put(std::uint64_t value, std::size_t width);

  Message finish() &&;

  std::size_t bits() const { return bits_; }

 private:
  PayloadBytes data_;
  std::size_t bits_ = 0;
};

/// A `width`-bit integrity checksum of `value` (width in [1,16]): the low
/// bits of a 64-bit mix of the value. approx_mis appends it to its status
/// frames and knowledge tokens and drops any that fail the check. The
/// engine delivers every message intact, so the check always passes; the
/// field stays because it is part of approx_mis's message layout, and
/// removing it would change every message size and with it the recorded
/// round and bit counts (tests/golden/bench_approx_rows.json). A width-w
/// checksum misses a given corruption with probability 2^-w.
std::uint64_t fold_checksum(std::uint64_t value, std::size_t width);

/// Sequential bit reader over a Message.
class MessageReader {
 public:
  explicit MessageReader(const Message& msg) : msg_(&msg) {}

  /// Read `width` bits (width in [1,64]); throws if past the end.
  std::uint64_t get(std::size_t width);

  std::size_t remaining() const { return msg_->bits - pos_; }

 private:
  const Message* msg_;
  std::size_t pos_ = 0;
};

}  // namespace congestlb::congest
