// Content-addressed artifact cache for campaign runs (docs/CAMPAIGN.md).
//
// Every expensive campaign artifact — a built gadget graph, an exact-solver
// OPT value, a claim verdict — is stored under the FNV-1a digest of a
// canonical textual description of its inputs (support/hash.hpp). Equal
// inputs therefore address equal payloads across runs, processes, and
// worker counts; a key collision with different inputs is treated as
// impossible at campaign scale (2^-64 per pair) and the payload is trusted
// on a key match.
//
// Two tiers: an in-process map (hits are free) backed by an optional
// on-disk store under a cache directory (default `.clb-cache/`). Disk slots
// are one file per artifact, `<dir>/<kind>/<hex16>.clbc`, written to
// `<hex16>.clbc.tmp` and renamed into place, and prefixed with a header
// line that is verified on load — a corrupt or foreign file demotes to a
// miss instead of poisoning the run. The header carries the payload's byte
// count and FNV-1a digest, so *any* torn slot (truncated payload, bit rot)
// is detected — without the digest, a truncated integer payload like
// "123" -> "12" would round-trip as a valid but wrong artifact.
//
// A killed campaign needs no repair step (docs/ROBUSTNESS.md): a torn slot
// loads as a miss and is rewritten, and a tmp stranded by the kill carries
// its key's name, so the resumed run's store of that key truncates it and
// renames it into place.
//
// The cache is shared by concurrent scheduler workers; all operations take
// one internal mutex. That is deliberate cheapness: campaign jobs are
// milliseconds-to-seconds of solver work, so the cache is nowhere near the
// hot path.

#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace congestlb::campaign {

struct CacheStats {
  std::uint64_t mem_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;
  std::uint64_t invalid = 0;  ///< disk slots rejected (bad header/torn file)

  std::uint64_t hits() const { return mem_hits + disk_hits; }
};

class ContentCache {
 public:
  /// `dir` empty = in-memory only. Otherwise the directory (plus per-kind
  /// subdirectories) is created lazily on first store.
  explicit ContentCache(std::string dir = {});

  ContentCache(const ContentCache&) = delete;
  ContentCache& operator=(const ContentCache&) = delete;

  /// Look up the payload stored for (kind, key). `kind` must be a short
  /// path-safe slug ([a-z0-9_-]); keys are canonical-input digests.
  /// Memory tier first, then disk; a disk hit is promoted to memory.
  std::optional<std::string> load(std::string_view kind, std::uint64_t key);

  /// Store a payload under (kind, key) in both tiers. Overwrites silently
  /// (content addressing makes overwrites idempotent).
  void store(std::string_view kind, std::uint64_t key,
             std::string_view payload);

  CacheStats stats() const;
  const std::string& dir() const { return dir_; }
  bool disk_backed() const { return !dir_.empty(); }

  /// "<hex16>" — the slot name for a key, also used in manifests.
  static std::string hex_key(std::uint64_t key);

 private:
  std::string slot_path(std::string_view kind, std::uint64_t key) const;

  mutable std::mutex mu_;
  std::string dir_;
  std::unordered_map<std::string, std::string> mem_;
  CacheStats stats_;
};

}  // namespace congestlb::campaign
