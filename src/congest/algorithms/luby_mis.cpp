#include "congest/algorithms/luby_mis.hpp"

#include <vector>

#include "congest/algorithms/mis_common.hpp"
#include "support/math.hpp"

namespace congestlb::congest {

namespace {

class LubyMisProgram final : public NodeProgram {
 public:
  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng& rng) override {
    if (neighbor_state_.empty() && !info.neighbors.empty()) {
      neighbor_state_.assign(info.neighbors.size(), IsState::kUndecided);
      neighbor_key_.assign(info.neighbors.size(), 0);
    }
    if (key_bits_ == 0) {
      key_bits_ = 2 * static_cast<std::size_t>(
                          std::max(1, ceil_log2(std::max<std::size_t>(2, info.n)))) +
                  2;
      // Keep 2 bits for the state field.
      if (key_bits_ + 2 > info.bits_per_edge) {
        key_bits_ = info.bits_per_edge > 2 ? info.bits_per_edge - 2 : 1;
      }
      key_bits_ = std::min<std::size_t>(key_bits_, 62);
    }

    for (std::size_t s = 0; s < inbox.size(); ++s) {
      if (!inbox[s]) continue;
      MessageReader r(*inbox[s]);
      neighbor_state_[s] = static_cast<IsState>(r.get(2));
      neighbor_key_[s] = r.get(key_bits_);
    }

    if (state_ == IsState::kUndecided) {
      for (IsState s : neighbor_state_) {
        if (s == IsState::kIn) {
          state_ = IsState::kOut;
          break;
        }
      }
    }
    // Evaluate the previous phase's lottery: we win if our announced key
    // strictly beats every undecided neighbor's (key, id) pair.
    if (state_ == IsState::kUndecided && heard_once_) {
      bool win = true;
      for (std::size_t s = 0; s < neighbor_state_.size(); ++s) {
        if (neighbor_state_[s] != IsState::kUndecided) continue;
        const auto their = std::pair(neighbor_key_[s], info.neighbors[s]);
        const auto mine = std::pair(current_key_, info.id);
        if (their >= mine) {
          win = false;
          break;
        }
      }
      if (win) state_ = IsState::kIn;
    }
    heard_once_ = true;

    const bool neighbors_decided = [&] {
      for (IsState s : neighbor_state_) {
        if (s == IsState::kUndecided) return false;
      }
      return true;
    }();
    if (state_ != IsState::kUndecided && neighbors_decided &&
        announced_final_) {
      finished_ = true;
      return;
    }
    if (state_ == IsState::kUndecided) {
      current_key_ = rng.next() & ((1ULL << key_bits_) - 1);
    }
    Message m = std::move(MessageWriter()
                              .put(static_cast<std::uint64_t>(state_), 2)
                              .put(current_key_, key_bits_))
                    .finish();
    outbox.send_all(m);
    if (state_ != IsState::kUndecided) announced_final_ = true;
  }

  bool finished() const override { return finished_; }
  std::int64_t output() const override { return state_ == IsState::kIn ? 1 : 0; }

 private:
  IsState state_ = IsState::kUndecided;
  std::vector<IsState> neighbor_state_;
  std::vector<std::uint64_t> neighbor_key_;
  std::uint64_t current_key_ = 0;
  std::size_t key_bits_ = 0;
  bool heard_once_ = false;
  bool announced_final_ = false;
  bool finished_ = false;
};

}  // namespace

ProgramFactory luby_mis_factory() {
  return [](NodeId, const NodeInfo&) {
    return std::make_unique<LubyMisProgram>();
  };
}

}  // namespace congestlb::congest
