// AVX-512 dispatch table (F+BW+DQ+VL plus VPOPCNTDQ for vpopcntq). Compiled
// with the matching -m flags (src/CMakeLists.txt); simd.cpp gates on CPUID
// at runtime, so a build carrying this table still falls back to AVX2 or
// scalar on older CPUs.

#include "support/simd.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

namespace congestlb::simd::detail {

namespace {

inline __mmask8 tail_mask8(std::size_t rem) {
  return static_cast<__mmask8>((1u << rem) - 1);
}

void avx512_and_rows(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t nw) {
  std::size_t w = 0;
  for (; w + 8 <= nw; w += 8) {
    const __m512i va = _mm512_loadu_si512(a + w);
    const __m512i vb = _mm512_loadu_si512(b + w);
    _mm512_storeu_si512(dst + w, _mm512_and_epi64(va, vb));
  }
  if (w < nw) {
    const __mmask8 k = tail_mask8(nw - w);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + w);
    const __m512i vb = _mm512_maskz_loadu_epi64(k, b + w);
    _mm512_mask_storeu_epi64(dst + w, k, _mm512_and_epi64(va, vb));
  }
}

void avx512_and_not_rows(std::uint64_t* dst, const std::uint64_t* a,
                         const std::uint64_t* b, std::size_t nw) {
  std::size_t w = 0;
  for (; w + 8 <= nw; w += 8) {
    const __m512i va = _mm512_loadu_si512(a + w);
    const __m512i vb = _mm512_loadu_si512(b + w);
    // andnot computes ~first & second, so b goes first.
    _mm512_storeu_si512(dst + w, _mm512_andnot_epi64(vb, va));
  }
  if (w < nw) {
    const __mmask8 k = tail_mask8(nw - w);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + w);
    const __m512i vb = _mm512_maskz_loadu_epi64(k, b + w);
    _mm512_mask_storeu_epi64(dst + w, k, _mm512_andnot_epi64(vb, va));
  }
}

std::size_t avx512_popcount(const std::uint64_t* row, std::size_t nw) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= nw; w += 8) {
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_loadu_si512(row + w)));
  }
  if (w < nw) {
    const __mmask8 k = tail_mask8(nw - w);
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(_mm512_maskz_loadu_epi64(k, row + w)));
  }
  return static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
}

std::size_t avx512_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t nw) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= nw; w += 8) {
    const __m512i v =
        _mm512_and_epi64(_mm512_loadu_si512(a + w), _mm512_loadu_si512(b + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  if (w < nw) {
    const __mmask8 k = tail_mask8(nw - w);
    const __m512i v = _mm512_and_epi64(_mm512_maskz_loadu_epi64(k, a + w),
                                       _mm512_maskz_loadu_epi64(k, b + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  return static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
}

std::size_t avx512_first_bit(const std::uint64_t* row, std::size_t nw,
                             std::size_t none) {
  std::size_t w = 0;
  for (; w + 8 <= nw; w += 8) {
    const __m512i v = _mm512_loadu_si512(row + w);
    const __mmask8 nz = _mm512_test_epi64_mask(v, v);
    if (nz) {
      const std::size_t j =
          static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(nz)));
      return (w + j) * 64 +
             static_cast<std::size_t>(__builtin_ctzll(row[w + j]));
    }
  }
  for (; w < nw; ++w) {
    if (row[w]) {
      return w * 64 + static_cast<std::size_t>(__builtin_ctzll(row[w]));
    }
  }
  return none;
}

std::size_t avx512_count_nonzero_u8(const std::uint8_t* p, std::size_t n) {
  std::size_t c = 0;
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i v = _mm512_loadu_si512(p + i);
    c += static_cast<std::size_t>(
        __builtin_popcountll(_mm512_test_epi8_mask(v, v)));
  }
  for (; i < n; ++i) c += p[i] != 0;
  return c;
}

std::uint64_t avx512_sum_u32(const std::uint32_t* p, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    acc = _mm512_add_epi64(acc, _mm512_cvtepu32_epi64(v));
  }
  std::uint64_t s = static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) s += p[i];
  return s;
}

void avx512_accumulate_u32_to_u64(std::uint64_t* acc, const std::uint32_t* p,
                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m512i v64 = _mm512_cvtepu32_epi64(v32);
    _mm512_storeu_si512(acc + i,
                        _mm512_add_epi64(_mm512_loadu_si512(acc + i), v64));
  }
  for (; i < n; ++i) acc[i] += p[i];
}

const Kernels kTable = {
    Level::kAvx512,
    avx512_and_rows,
    avx512_and_not_rows,
    avx512_popcount,
    avx512_and_popcount,
    avx512_first_bit,
    avx512_count_nonzero_u8,
    avx512_sum_u32,
    avx512_accumulate_u32_to_u64,
};

}  // namespace

const Kernels* avx512_table() { return &kTable; }

}  // namespace congestlb::simd::detail

#else  // AVX-512 feature set not compiled in

namespace congestlb::simd::detail {

const Kernels* avx512_table() { return nullptr; }

}  // namespace congestlb::simd::detail

#endif
