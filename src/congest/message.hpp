// CONGEST messages.
//
// In the CONGEST model each node may send a (possibly different) message of
// O(log n) bits to each neighbor per round. A Message carries an explicit
// bit count; congest::Network enforces the per-edge budget and sim::
// ReductionDriver charges exactly these bits to the blackboard for cut
// edges. MessageWriter/MessageReader pack and unpack small integer fields so
// algorithm code never hand-rolls bit twiddling.
//
// A payload is a run of 64-bit words, LSB-first: field bits fill each word
// from bit 0 up and spill into the next. The writer and reader are inline
// shift/or over those words. On the little-endian hosts this library
// targets the words *are* the LSB-first byte layout, so the byte view
// (data(), operator[], begin()/end()) needs no conversion. Up to
// kInlineWords words (192 bits, beyond any O(log n) budget the benches use)
// live inline in the Message, so constructing, copying and moving typical
// CONGEST messages never touches the heap; that is what lets the engine's
// double-buffered message arenas run allocation-free after warm-up. Longer
// frames (approx-MIS's LOCAL frames) move to a heap buffer whose capacity
// later assignments reuse.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "support/expect.hpp"

namespace congestlb::congest {

static_assert(std::endian::native == std::endian::little,
              "the payload byte view reads the words' in-memory bytes");

class MessageWriter;

/// A word-backed byte buffer with inline storage and capacity-reusing copy
/// assignment (an assignment into a buffer that is already big enough never
/// allocates — the property the engine's message arenas rely on). Every bit
/// past the message's bit count, up to the end of its last word, is zero.
class PayloadBytes {
 public:
  static constexpr std::size_t kInlineWords = 3;
  static constexpr std::size_t kInlineCapacity = 8 * kInlineWords;  ///< bytes

  PayloadBytes() = default;
  PayloadBytes(const PayloadBytes& other) { *this = other; }
  PayloadBytes(PayloadBytes&& other) noexcept
      : heap_(other.heap_), size_(other.size_), cap_words_(other.cap_words_) {
    std::copy_n(other.inline_, kInlineWords, inline_);
    other.heap_ = nullptr;
    other.size_ = 0;
    other.cap_words_ = kInlineWords;
  }
  ~PayloadBytes() { delete[] heap_; }

  PayloadBytes& operator=(const PayloadBytes& other) {
    if (this != &other) {
      const std::size_t nw = other.num_words();
      if (nw > cap_words_) grow(nw, 0);
      std::copy_n(other.words(), nw, words());
      size_ = other.size_;
    }
    return *this;
  }
  PayloadBytes& operator=(PayloadBytes&& other) noexcept {
    swap(other);
    return *this;
  }

  std::size_t size() const { return size_; }

  const std::byte* data() const {
    return reinterpret_cast<const std::byte*>(words());
  }
  const std::byte& operator[](std::size_t i) const { return data()[i]; }
  const std::byte* begin() const { return data(); }
  const std::byte* end() const { return data() + size_; }

  /// The payload's ceil(size() / 8) words.
  const std::uint64_t* words() const { return heap_ ? heap_ : inline_; }
  std::size_t num_words() const { return (size_ + 7) / 8; }

  /// Drop contents; capacity is retained.
  void clear() { size_ = 0; }

  friend bool operator==(const PayloadBytes& a, const PayloadBytes& b) {
    return a.size_ == b.size_ && std::memcmp(a.data(), b.data(), a.size_) == 0;
  }

 private:
  friend class MessageWriter;

  std::uint64_t* words() { return heap_ ? heap_ : inline_; }

  /// Move to a zero-filled heap buffer of >= nw words, keeping the first
  /// `keep` words.
  void grow(std::size_t nw, std::size_t keep);

  void swap(PayloadBytes& other) noexcept {
    std::swap(inline_, other.inline_);
    std::swap(heap_, other.heap_);
    std::swap(size_, other.size_);
    std::swap(cap_words_, other.cap_words_);
  }

  std::uint64_t inline_[kInlineWords] = {};
  std::uint64_t* heap_ = nullptr;  ///< engaged once capacity spills past inline
  std::uint32_t size_ = 0;         ///< bytes
  std::uint32_t cap_words_ = kInlineWords;
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

// The engine keeps two arenas of one Message per directed slot.
static_assert(sizeof(Message) <= 48);

/// Append-only bit writer producing a Message.
class MessageWriter {
 public:
  /// Append the low `width` bits of value (width in [1,64]).
  MessageWriter& put(std::uint64_t value, std::size_t width) {
    CLB_EXPECT(width >= 1 && width <= 64, "MessageWriter: width in [1,64]");
    CLB_EXPECT(width == 64 || value < (1ULL << width),
               "MessageWriter: value does not fit in declared width");
    if (bits_ + width > 64 * data_.cap_words_) {
      data_.grow((bits_ + width + 63) / 64, (bits_ + 63) / 64);
    }
    // The words past bits_ are zero (fresh inline words, zero-filled growth),
    // so a field is one OR plus, when it straddles a word, one store.
    std::uint64_t* w = data_.words() + bits_ / 64;
    const std::size_t shift = bits_ % 64;
    w[0] |= value << shift;
    if (shift + width > 64) w[1] = value >> (64 - shift);
    bits_ += width;
    return *this;
  }

  Message finish() && {
    data_.size_ = static_cast<std::uint32_t>((bits_ + 7) / 8);
    return Message{std::move(data_), bits_};
  }

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

/// Sequential bit reader over a Message, which must outlive it.
class MessageReader {
 public:
  explicit MessageReader(const Message& msg) : msg_(&msg) {}
  MessageReader(const Message&&) = delete;  ///< would read a dead temporary

  /// Read `width` bits (width in [1,64]); throws if past the end.
  std::uint64_t get(std::size_t width) {
    CLB_EXPECT(width >= 1 && width <= 64, "MessageReader: width in [1,64]");
    CLB_EXPECT(pos_ + width <= msg_->bits, "MessageReader: read past end");
    const std::uint64_t* w = msg_->data.words() + pos_ / 64;
    const std::size_t shift = pos_ % 64;
    std::uint64_t value = w[0] >> shift;
    if (shift + width > 64) value |= w[1] << (64 - shift);
    pos_ += width;
    return width == 64 ? value : value & ((1ULL << width) - 1);
  }

  std::size_t remaining() const { return msg_->bits - pos_; }

 private:
  const Message* msg_;
  std::size_t pos_ = 0;
};

}  // namespace congestlb::congest
