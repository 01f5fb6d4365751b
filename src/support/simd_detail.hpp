// Internal to simd_scalar.cpp (and the SIMD property tests, which compare
// vector kernels against these references): the portable scalar kernel
// implementations.

#pragma once

#include <cstddef>
#include <cstdint>

#include "support/simd.hpp"

namespace congestlb::simd::detail {

inline void scalar_and_rows(std::uint64_t* dst, const std::uint64_t* a,
                            const std::uint64_t* b, std::size_t nw) {
  for (std::size_t w = 0; w < nw; ++w) dst[w] = a[w] & b[w];
}

inline void scalar_and_not_rows(std::uint64_t* dst, const std::uint64_t* a,
                                const std::uint64_t* b, std::size_t nw) {
  for (std::size_t w = 0; w < nw; ++w) dst[w] = a[w] & ~b[w];
}

inline std::size_t scalar_popcount(const std::uint64_t* row, std::size_t nw) {
  std::size_t c = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    c += static_cast<std::size_t>(__builtin_popcountll(row[w]));
  }
  return c;
}

inline std::size_t scalar_and_popcount(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       std::size_t nw) {
  std::size_t c = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    c += static_cast<std::size_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return c;
}

inline std::size_t scalar_first_bit(const std::uint64_t* row, std::size_t nw,
                                    std::size_t none) {
  for (std::size_t w = 0; w < nw; ++w) {
    if (row[w]) {
      return w * 64 + static_cast<std::size_t>(__builtin_ctzll(row[w]));
    }
  }
  return none;
}

inline std::size_t scalar_count_nonzero_u8(const std::uint8_t* p,
                                           std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += p[i] != 0;
  return c;
}

inline std::uint64_t scalar_sum_u32(const std::uint32_t* p, std::size_t n) {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < n; ++i) s += p[i];
  return s;
}

inline void scalar_accumulate_u32_to_u64(std::uint64_t* acc,
                                         const std::uint32_t* p,
                                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += p[i];
}

}  // namespace congestlb::simd::detail
