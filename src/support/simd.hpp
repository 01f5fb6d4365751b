// Runtime-dispatched SIMD kernels for the engine and solver hot paths.
//
// Three implementation levels — scalar, AVX2, AVX-512 — are compiled into
// every build (each in its own translation unit with the matching -m flags;
// non-x86 builds get the scalar table only). The active table is picked once
// at first use from CPUID, overridable with the CLB_SIMD environment
// variable:
//
//   CLB_SIMD=auto     highest level this build + CPU supports (default)
//   CLB_SIMD=scalar   portable reference kernels
//   CLB_SIMD=avx2     require AVX2 (InvariantError if unavailable)
//   CLB_SIMD=avx512   require AVX-512 (F+BW+DQ+VL+VPOPCNTDQ)
//
// Every kernel is an exact bitwise/integer operation, so results are
// bit-identical across levels by construction; the property suite
// (tests/simd_test.cpp) enforces this against the scalar reference, and the
// engine/solver determinism tests enforce it end to end.
//
// The per-call indirection costs a few cycles, so callers with tiny inputs
// (maxis word rows below kSimdDispatchWords in bitset.hpp) keep their inline
// scalar loops and only route larger inputs here.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace congestlb::simd {

enum class Level : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr std::size_t kNumLevels = 3;

/// One dispatch table: the maxis word-row kernels and the engine's unicast
/// delivery accounting. Message bit packing is not here: a field is one or
/// two words of inline shift/or in congest/message.hpp, cheaper than any
/// call through this table. All row kernels operate on `nw` 64-bit words;
/// dst may alias a or b (elementwise ops).
struct Kernels {
  Level level;

  // --- maxis word-row kernels (bitset.hpp) --------------------------------
  void (*and_rows)(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t nw);
  void (*and_not_rows)(std::uint64_t* dst, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t nw);
  std::size_t (*popcount)(const std::uint64_t* row, std::size_t nw);
  /// popcount(a & b) without materializing the intersection.
  std::size_t (*and_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t nw);
  std::size_t (*first_bit)(const std::uint64_t* row, std::size_t nw,
                           std::size_t none);

  // --- congest bulk delivery accounting (network.cpp) ---------------------
  std::size_t (*count_nonzero_u8)(const std::uint8_t* p, std::size_t n);
  std::uint64_t (*sum_u32)(const std::uint32_t* p, std::size_t n);
  /// acc[i] += p[i] (widening), for per-slot delivered-bits accumulation.
  void (*accumulate_u32_to_u64)(std::uint64_t* acc, const std::uint32_t* p,
                                std::size_t n);
};

/// "scalar" / "avx2" / "avx512".
const char* level_name(Level level);

/// Was this level's translation unit built with its ISA enabled?
bool level_compiled(Level level);

/// level_compiled and the running CPU has the ISA (CPUID).
bool level_supported(Level level);

/// Highest supported level on this build + CPU.
Level best_level();

/// The level of the active dispatch table (resolves CLB_SIMD on first use).
Level active_level();

/// Table for an explicit level; null when !level_supported(level).
const Kernels* kernels_for(Level level);

namespace detail {

// Per-level table accessors, defined one per translation unit. A level
// compiled without its ISA (non-x86, or a toolchain lacking the -m flags)
// returns null.
const Kernels* scalar_table();
const Kernels* avx2_table();
const Kernels* avx512_table();

extern std::atomic<const Kernels*> g_active;
const Kernels& resolve_active();

}  // namespace detail

/// The active dispatch table. First call resolves CLB_SIMD (throwing
/// InvariantError on an unknown value or an explicitly requested level this
/// build/CPU cannot run); later calls are a relaxed atomic load.
inline const Kernels& kernels() {
  const Kernels* k = detail::g_active.load(std::memory_order_relaxed);
  return k != nullptr ? *k : detail::resolve_active();
}

/// Force a specific level for the lifetime of the object (tests and benches
/// comparing levels in-process). Not safe to overlap with concurrent kernel
/// users on other threads; construct/destroy only around single-threaded or
/// externally synchronized sections.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  const Kernels* saved_;
};

}  // namespace congestlb::simd
