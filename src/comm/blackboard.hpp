// The shared-blackboard number-in-hand communication model (Definition 1).
//
// t players exchange information by appending bit strings to a blackboard
// visible to everyone. The cost of a protocol is the total number of bits
// written. Blackboard is the single accounting point for both the reference
// disjointness protocols (comm/protocols.hpp) and the CONGEST simulation
// argument of Theorem 5 (sim/reduction.hpp): whenever a simulated CONGEST
// message crosses between two players' node sets, its bits land here —
// written once, with its sender and cut multiplicity, however many cut
// edges it crossed (the vertex-partitioned board of Assadi–Kol–Zhang,
// arXiv:2209.09049). Charged tallies (total_bits, bits_by, charged_posts)
// count it once per cut delivery — what Theorem 5 bounds; written tallies
// count it once. Protocol posts have multiplicity 1.
//
// The transcript is stored flat: one 24-byte record per post and every
// payload byte in one contiguous byte arena. Records live in fixed chunks
// of kChunkRecords that are allocated once and never moved, so a post
// costs no copy of earlier records and at most one chunk allocation per
// 4096 posts. transcript() is a view that materializes BoardEntry values
// on read.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace congestlb::obs {
class Counter;
class MetricsRegistry;
class Tracer;
}

namespace congestlb::comm {

/// One blackboard write as read back from the transcript, charged
/// multiplicity * bits. `data` views the payload rounded up to whole bytes
/// (readable by every player) and stays valid until the next post.
struct BoardEntry {
  static constexpr std::size_t kNoSender = ~std::size_t{0};  ///< protocol post

  std::size_t player = 0;
  std::span<const std::byte> data;
  std::size_t bits = 0;
  std::size_t sender = kNoSender;  ///< the broadcasting node (post_broadcast)
  std::size_t multiplicity = 1;    ///< cut edges the message crossed
};

class Blackboard;

/// Read-only view of a board's transcript, in posting order. Elements are
/// BoardEntry values built on access.
class Transcript {
 public:
  class iterator {
   public:
    iterator(const Blackboard* board, std::size_t i) : board_(board), i_(i) {}
    BoardEntry operator*() const;
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& other) const { return i_ == other.i_; }

   private:
    const Blackboard* board_;
    std::size_t i_;
  };

  explicit Transcript(const Blackboard& board) : board_(&board) {}

  std::size_t size() const;
  BoardEntry operator[](std::size_t i) const;
  BoardEntry back() const;
  iterator begin() const { return {board_, 0}; }
  iterator end() const { return {board_, size()}; }

 private:
  const Blackboard* board_;
};

class Blackboard {
 public:
  explicit Blackboard(std::size_t num_players);

  std::size_t num_players() const { return bits_by_player_.size(); }

  /// Append a simulated CONGEST message that node `sender` broadcast and
  /// that crossed `multiplicity` (>= 1) cut edges: written once, charged
  /// multiplicity * bits; bits in [1, 8 * data.size()]. `data` must not
  /// view this board's transcript.
  void post_broadcast(std::size_t player, std::span<const std::byte> data,
                      std::size_t bits, std::size_t sender,
                      std::size_t multiplicity);

  /// Append the low `bits` bits of `value` (bits in [1, 64]).
  void post_uint(std::size_t player, std::uint64_t value, std::size_t bits);

  /// Append a 0/1 bit vector, one payload bit per element.
  void post_bits(std::size_t player, const std::vector<std::uint8_t>& bits01);

  /// Decode an entry previously written by post_uint.
  static std::uint64_t read_uint(const BoardEntry& entry);

  /// Decode an entry previously written by post_bits.
  static std::vector<std::uint8_t> read_bits(const BoardEntry& entry);

  Transcript transcript() const { return Transcript(*this); }
  std::size_t total_bits() const { return total_bits_; }  ///< charged
  std::size_t bits_by(std::size_t player) const;          ///< charged
  std::size_t charged_posts() const { return charged_posts_; }
  std::size_t written_bits() const { return written_bits_; }
  std::size_t written_records() const { return num_records_; }

  /// Mirror every charged post into a trace (kBlackboardPost, a = player,
  /// round = charged-post index, value = bits) and/or a metrics registry
  /// (charged "blackboard.posts" / "blackboard.bits" counters). Either
  /// pointer may be null; both are non-owning and must outlive the board.
  void attach_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

 private:
  friend class Transcript;

  /// One post, 24 bytes; its payload is payload_[offset, next record's
  /// offset). The 32-bit fields bound bits, sender and multiplicity to
  /// < 2^32. Trivially constructible: a fresh chunk stays uninitialized.
  struct Record {
    std::uint64_t offset;
    std::uint32_t player;
    std::uint32_t bits;
    std::uint32_t sender;  ///< kNoSender32 unless posted by post_broadcast
    std::uint32_t multiplicity;
  };
  static_assert(sizeof(Record) == 24);
  static constexpr std::uint32_t kNoSender32 = ~std::uint32_t{0};
  static constexpr std::size_t kChunkRecords = 4096;  ///< 96 KiB per chunk

  /// `sender` and `multiplicity` are checked by the caller to fit 32 bits.
  void append(std::size_t player, std::span<const std::byte> data,
              std::size_t bits, std::uint32_t sender,
              std::size_t multiplicity);
  const Record& record(std::size_t i) const {
    return chunks_[i / kChunkRecords][i % kChunkRecords];
  }
  BoardEntry entry(std::size_t i) const;

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::size_t num_records_ = 0;
  std::vector<std::byte> payload_;
  std::vector<std::size_t> bits_by_player_;
  std::size_t total_bits_ = 0;
  std::size_t charged_posts_ = 0;
  std::size_t written_bits_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* posts_metric_ = nullptr;
  obs::Counter* bits_metric_ = nullptr;
};

inline std::size_t Transcript::size() const { return board_->num_records_; }

inline BoardEntry Transcript::operator[](std::size_t i) const {
  return board_->entry(i);
}

inline BoardEntry Transcript::back() const { return board_->entry(size() - 1); }

inline BoardEntry Transcript::iterator::operator*() const {
  return board_->transcript()[i_];
}

}  // namespace congestlb::comm
