// The shared-blackboard number-in-hand communication model (Definition 1).
//
// t players exchange information by appending bit strings to a blackboard
// visible to everyone. The cost of a protocol is the total number of bits
// written. Blackboard is the single accounting point for both the reference
// disjointness protocols (comm/protocols.hpp) and the CONGEST simulation
// argument of Theorem 5 (sim/reduction.hpp): whenever a simulated CONGEST
// message crosses between two players' node sets, its bits land here.
//
// The transcript is stored flat: one fixed-size record per post (player,
// charged bits, payload offset, tag) and every payload byte in one
// contiguous byte arena. Records live in fixed chunks of kChunkRecords that
// are allocated once and never moved, so a post costs no copy of earlier
// records and at most one chunk allocation per 4096 posts. A cut message
// posted through post_cut_message records its edge endpoints as two
// integers; its tag text "msg <from>-><to>" is formatted only when the
// entry is read. transcript() is a view that materializes BoardEntry values
// on read.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace congestlb::obs {
class Counter;
class MetricsRegistry;
class Tracer;
}

namespace congestlb::comm {

/// One blackboard write as read back from the transcript. `bits` is the
/// charged cost; `data` views the payload rounded up to whole bytes
/// (readable by every player) and stays valid until the next post.
struct BoardEntry {
  std::size_t player = 0;
  std::span<const std::byte> data;
  std::size_t bits = 0;
  std::string tag;  ///< free-form annotation for transcript inspection
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

  /// Append raw bytes with an explicit bit cost (bits <= 8 * data.size()).
  void post(std::size_t player, std::vector<std::byte> data, std::size_t bits,
            std::string tag = {});

  /// Append a simulated CONGEST message that crossed the cut on edge
  /// (from, to). Same checks as post(); the entry's tag reads
  /// "msg <from>-><to>". `data` must not view this board's transcript.
  void post_cut_message(std::size_t player, std::span<const std::byte> data,
                        std::size_t bits, std::size_t from, std::size_t to);

  /// Append the low `bits` bits of `value` (bits in [1, 64]).
  void post_uint(std::size_t player, std::uint64_t value, std::size_t bits,
                 std::string tag = {});

  /// Append a 0/1 bit vector, one payload bit per element.
  void post_bits(std::size_t player, const std::vector<std::uint8_t>& bits01,
                 std::string tag = {});

  /// Decode an entry previously written by post_uint.
  static std::uint64_t read_uint(const BoardEntry& entry);

  /// Decode an entry previously written by post_bits.
  static std::vector<std::uint8_t> read_bits(const BoardEntry& entry);

  Transcript transcript() const { return Transcript(*this); }
  std::size_t total_bits() const { return total_bits_; }
  std::size_t bits_by(std::size_t player) const;

  /// Mirror every post into a trace (kBlackboardPost, a = player, round =
  /// entry index, value = charged bits) and/or a metrics registry
  /// ("blackboard.posts" / "blackboard.bits" counters). Either pointer may
  /// be null; both are non-owning and must outlive the board.
  void attach_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

 private:
  friend class Transcript;

  /// One post, 24 bytes. The payload is payload_[offset, next record's
  /// offset); the tag is the edge (tag_a, tag_b) when `edge_tag`, otherwise
  /// the text tag_text_[tag_a, tag_a + tag_b). The 32-bit fields bound a
  /// post to < 2^32 bits, node ids to < 2^32 and tag text to < 4 GiB.
  /// Trivially constructible, so a fresh chunk is left uninitialized.
  struct Record {
    std::uint64_t offset;
    std::uint32_t player : 31;
    std::uint32_t edge_tag : 1;
    std::uint32_t bits;
    std::uint32_t tag_a;
    std::uint32_t tag_b;
  };
  static_assert(sizeof(Record) == 24);
  static constexpr std::size_t kChunkRecords = 4096;  ///< 96 KiB per chunk

  /// The tag fields are checked by the caller to fit 32 bits.
  void append(std::size_t player, std::span<const std::byte> data,
              std::size_t bits, bool edge_tag, std::size_t tag_a,
              std::size_t tag_b);
  const Record& record(std::size_t i) const {
    return chunks_[i / kChunkRecords][i % kChunkRecords];
  }
  BoardEntry entry(std::size_t i) const;

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::size_t num_records_ = 0;
  std::vector<std::byte> payload_;
  std::string tag_text_;
  std::vector<std::size_t> bits_by_player_;
  std::size_t total_bits_ = 0;
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
