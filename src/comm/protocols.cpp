#include "comm/protocols.hpp"

#include "support/expect.hpp"
#include "support/math.hpp"

namespace congestlb::comm {

bool FullRevelationProtocol::run(const PromiseInstance& inst,
                                 Blackboard& board) const {
  // Each player in turn posts its string verbatim.
  for (std::size_t i = 0; i < inst.t; ++i) {
    board.post_bits(i, inst.strings[i]);
  }
  // Everyone can now evaluate the function from the board alone; we evaluate
  // it from player t-1's perspective (reading the transcript back).
  std::vector<std::vector<std::uint8_t>> seen;
  for (const auto& entry : board.transcript()) {
    seen.push_back(Blackboard::read_bits(entry));
  }
  CLB_EXPECT(seen.size() >= inst.t, "full-revelation: missing transcript entries");
  for (std::size_t m = 0; m < inst.k; ++m) {
    bool all = true;
    for (std::size_t i = 0; i < inst.t; ++i) {
      if (!seen[seen.size() - inst.t + i][m]) {
        all = false;
        break;
      }
    }
    if (all) return false;  // uniquely intersecting
  }
  return true;
}

bool SupportExchangeProtocol::run(const PromiseInstance& inst,
                                  Blackboard& board) const {
  const std::size_t idx_bits =
      static_cast<std::size_t>(std::max(1, ceil_log2(inst.k)));
  // Player 0 announces its support size, then each position.
  std::vector<std::size_t> support;
  for (std::size_t m = 0; m < inst.k; ++m) {
    if (inst.strings[0][m]) support.push_back(m);
  }
  board.post_uint(0, support.size(), idx_bits + 1);
  for (std::size_t m : support) {
    board.post_uint(0, m, idx_bits);
  }
  if (support.empty()) {
    // x^0 empty -> no common index is possible -> promise says disjoint.
    return true;
  }
  // Each other player posts one bit per candidate. A candidate survives iff
  // every player so far has a 1 there.
  std::vector<std::uint8_t> alive(support.size(), 1);
  for (std::size_t i = 1; i < inst.t; ++i) {
    std::vector<std::uint8_t> mine(support.size());
    for (std::size_t c = 0; c < support.size(); ++c) {
      mine[c] = inst.strings[i][support[c]];
    }
    board.post_bits(i, mine);
    for (std::size_t c = 0; c < support.size(); ++c) {
      alive[c] = static_cast<std::uint8_t>(alive[c] & mine[c]);
    }
  }
  for (std::uint8_t a : alive) {
    if (a) return false;  // a surviving candidate is a common index
  }
  return true;
}

bool PromiseAwareProtocol::run(const PromiseInstance& inst,
                               Blackboard& board) const {
  CLB_EXPECT(inst.t >= 2, "promise-aware protocol needs >= 2 players");
  // Player 0 posts its whole string.
  board.post_bits(0, inst.strings[0]);
  // Player 1 reads it off the board and answers: under the promise,
  // x^0 intersects x^1 iff the strings are uniquely intersecting.
  const auto x0 = Blackboard::read_bits(board.transcript().back());
  bool intersects = false;
  for (std::size_t m = 0; m < inst.k; ++m) {
    if (x0[m] && inst.strings[1][m]) {
      intersects = true;
      break;
    }
  }
  board.post_uint(1, intersects ? 1 : 0, 1);
  return !intersects;
}

std::vector<std::unique_ptr<DisjointnessProtocol>> all_reference_protocols() {
  std::vector<std::unique_ptr<DisjointnessProtocol>> out;
  out.push_back(std::make_unique<FullRevelationProtocol>());
  out.push_back(std::make_unique<SupportExchangeProtocol>());
  out.push_back(std::make_unique<PromiseAwareProtocol>());
  return out;
}

}  // namespace congestlb::comm
