// A fixed-capacity dynamic bitset tuned for the branch-and-bound solver:
// word-parallel and/andnot, first-set-bit scan, popcount. Kept header-only
// and minimal on purpose (no bounds resizing; capacity fixed at
// construction).
//
// The `words` namespace below exposes the same operations on raw
// 64-bit-word rows. The branch-and-bound solver keeps its adjacency matrix
// and per-depth candidate sets as rows of one flat word arena and drives
// the search entirely through these kernels — no per-node Bitset copies,
// no allocations inside the search.

#pragma once

#include <cstdint>
#include <vector>

#include "support/expect.hpp"

namespace congestlb::maxis {

/// Word-row kernels: every function operates on rows of `nw` 64-bit words
/// representing a fixed-capacity bitset of n <= 64*nw bits. Callers
/// guarantee bounds; these are the hot inner loops of the exact solver.
/// The loops are plain word arithmetic; the build enables the hardware
/// popcount instruction where the target has one (src/CMakeLists.txt).
namespace words {

/// Words needed for an n-bit row.
inline std::size_t row_words(std::size_t n) { return (n + 63) / 64; }

inline void set_bit(std::uint64_t* row, std::size_t i) {
  row[i >> 6] |= 1ULL << (i & 63);
}

inline void clear_bit(std::uint64_t* row, std::size_t i) {
  row[i >> 6] &= ~(1ULL << (i & 63));
}

inline bool test_bit(const std::uint64_t* row, std::size_t i) {
  return (row[i >> 6] >> (i & 63)) & 1ULL;
}

inline void copy(std::uint64_t* dst, const std::uint64_t* src,
                 std::size_t nw) {
  for (std::size_t w = 0; w < nw; ++w) dst[w] = src[w];
}

inline void fill_prefix(std::uint64_t* row, std::size_t n, std::size_t nw) {
  for (std::size_t w = 0; w < nw; ++w) row[w] = ~0ULL;
  if (n & 63) row[nw - 1] = (1ULL << (n & 63)) - 1;
}

/// dst = a & b (dst may alias a or b).
inline void and_rows(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t nw) {
  for (std::size_t w = 0; w < nw; ++w) dst[w] = a[w] & b[w];
}

/// dst = a & ~b (dst may alias a or b).
inline void and_not_rows(std::uint64_t* dst, const std::uint64_t* a,
                         const std::uint64_t* b, std::size_t nw) {
  for (std::size_t w = 0; w < nw; ++w) dst[w] = a[w] & ~b[w];
}

/// Index of the lowest set bit; `none` if the row is empty.
inline std::size_t first_bit(const std::uint64_t* row, std::size_t nw,
                             std::size_t none) {
  for (std::size_t w = 0; w < nw; ++w) {
    if (row[w]) {
      return w * 64 + static_cast<std::size_t>(__builtin_ctzll(row[w]));
    }
  }
  return none;
}

inline std::size_t popcount(const std::uint64_t* row, std::size_t nw) {
  std::size_t c = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    c += static_cast<std::size_t>(__builtin_popcountll(row[w]));
  }
  return c;
}

}  // namespace words

class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  std::size_t capacity() const { return n_; }

  void set(std::size_t i) {
    CLB_EXPECT(i < n_, "Bitset::set out of range");
    words_[i >> 6] |= 1ULL << (i & 63);
  }
  void reset(std::size_t i) {
    CLB_EXPECT(i < n_, "Bitset::reset out of range");
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }
  bool test(std::size_t i) const {
    CLB_EXPECT(i < n_, "Bitset::test out of range");
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  bool any() const {
    for (std::uint64_t w : words_) {
      if (w) return true;
    }
    return false;
  }

  std::size_t count() const {
    std::size_t c = 0;
    for (std::uint64_t w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  /// Index of the lowest set bit; capacity() if none.
  std::size_t first() const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      if (words_[wi]) return wi * 64 + static_cast<std::size_t>(__builtin_ctzll(words_[wi]));
    }
    return n_;
  }

  Bitset& operator&=(const Bitset& other) {
    CLB_EXPECT(n_ == other.n_, "Bitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }

  /// *this &= ~other
  Bitset& and_not(const Bitset& other) {
    CLB_EXPECT(n_ == other.n_, "Bitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
    return *this;
  }

  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace congestlb::maxis
