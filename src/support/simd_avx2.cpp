// AVX2 dispatch table. Compiled with -mavx2 (see src/CMakeLists.txt); the
// accessor below returns null when the translation unit was built without
// it (non-x86), and simd.cpp additionally gates on CPUID at runtime before
// ever calling through the table.

#include "support/simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace congestlb::simd::detail {

namespace {

void avx2_and_rows(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t nw) {
  std::size_t w = 0;
  for (; w + 4 <= nw; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_and_si256(va, vb));
  }
  for (; w < nw; ++w) dst[w] = a[w] & b[w];
}

void avx2_and_not_rows(std::uint64_t* dst, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t nw) {
  std::size_t w = 0;
  for (; w + 4 <= nw; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    // andnot computes ~first & second, so b goes first.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_andnot_si256(vb, va));
  }
  for (; w < nw; ++w) dst[w] = a[w] & ~b[w];
}

/// Per-byte popcount via the nibble lookup table (Mula), summed into four
/// u64 lanes by SAD against zero.
inline __m256i popcount_bytes(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline std::size_t horizontal_sum_epi64(__m256i acc) {
  std::uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
}

std::size_t avx2_popcount(const std::uint64_t* row, std::size_t nw) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= nw; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + w));
    acc = _mm256_add_epi64(acc, popcount_bytes(v));
  }
  std::size_t c = horizontal_sum_epi64(acc);
  for (; w < nw; ++w) {
    c += static_cast<std::size_t>(__builtin_popcountll(row[w]));
  }
  return c;
}

std::size_t avx2_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t nw) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= nw; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    acc = _mm256_add_epi64(acc, popcount_bytes(_mm256_and_si256(va, vb)));
  }
  std::size_t c = horizontal_sum_epi64(acc);
  for (; w < nw; ++w) {
    c += static_cast<std::size_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return c;
}

std::size_t avx2_first_bit(const std::uint64_t* row, std::size_t nw,
                           std::size_t none) {
  // The vector loop only skips all-zero 4-word blocks; the first nonzero
  // block falls through to the exact scalar scan.
  std::size_t w = 0;
  for (; w + 4 <= nw; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + w));
    if (!_mm256_testz_si256(v, v)) break;
  }
  for (; w < nw; ++w) {
    if (row[w]) {
      return w * 64 + static_cast<std::size_t>(__builtin_ctzll(row[w]));
    }
  }
  return none;
}

std::size_t avx2_count_nonzero_u8(const std::uint8_t* p, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t zeros = 0;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
    zeros += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  for (; i < n; ++i) zeros += p[i] == 0;
  return n - zeros;
}

std::uint64_t avx2_sum_u32(const std::uint32_t* p, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    acc = _mm256_add_epi64(acc,
                           _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v)));
    acc = _mm256_add_epi64(acc,
                           _mm256_cvtepu32_epi64(_mm256_extracti128_si256(v, 1)));
  }
  std::uint64_t s = horizontal_sum_epi64(acc);
  for (; i < n; ++i) s += p[i];
  return s;
}

void avx2_accumulate_u32_to_u64(std::uint64_t* acc, const std::uint32_t* p,
                                std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const __m256i v64 = _mm256_cvtepu32_epi64(v32);
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_add_epi64(a, v64));
  }
  for (; i < n; ++i) acc[i] += p[i];
}

const Kernels kTable = {
    Level::kAvx2,
    avx2_and_rows,
    avx2_and_not_rows,
    avx2_popcount,
    avx2_and_popcount,
    avx2_first_bit,
    avx2_count_nonzero_u8,
    avx2_sum_u32,
    avx2_accumulate_u32_to_u64,
};

}  // namespace

const Kernels* avx2_table() { return &kTable; }

}  // namespace congestlb::simd::detail

#else  // !__AVX2__

namespace congestlb::simd::detail {

const Kernels* avx2_table() { return nullptr; }

}  // namespace congestlb::simd::detail

#endif
