// Stateless deterministic hashing for schedule-independent decisions.
//
// Seeded choices that must not depend on iteration order — blackboard_mis's
// per-phase lottery keys, the traffic workloads' per-node draws, the
// campaign supervisor's backoff jitter and chaos verdicts, message
// checksums (congest/message.hpp) — are derived by hashing their
// coordinates rather than by advancing a shared generator, so a refactor of
// the loop that asks cannot silently change them and break seed-based
// repros. These helpers turn a tuple of integers into a high-quality 64-bit
// hash (a chain of splitmix64 finalizers) and into a uniform double in
// [0,1), with no generator state involved: hash_mix(seed, a, b, c) is a
// pure function.

#pragma once

#include <cstdint>
#include <string_view>

namespace congestlb {

/// One splitmix64 finalizer round (no state advance — pure mixing).
inline std::uint64_t hash_mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Fold `v` into an accumulated hash (order-sensitive, as a tuple hash
/// should be: hash_combine(h, a, b) != hash_combine(h, b, a) in general).
inline std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  return hash_mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

/// Hash an arbitrary tuple of integers: hash_mix(seed, a, b, ...).
template <typename... Rest>
inline std::uint64_t hash_mix(std::uint64_t first, Rest... rest) {
  std::uint64_t h = hash_mix64(first);
  ((h = hash_combine(h, static_cast<std::uint64_t>(rest))), ...);
  return h;
}

/// Map a hash to a uniform double in [0,1) (53 mantissa bits).
inline double hash_to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// FNV-1a over a byte string. The campaign cache (campaign/cache.hpp) keys
/// every stored artifact by the FNV-1a digest of a *canonical* textual
/// description of its inputs, so equal inputs hash equally across runs,
/// platforms, and worker counts — a content address, not a randomized hash.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace congestlb
