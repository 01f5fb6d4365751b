#include "congest/algorithms/leader_election.hpp"

#include "support/math.hpp"

namespace congestlb::congest {

namespace {

class LeaderElectionProgram final : public NodeProgram {
 public:
  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng&) override {
    if (id_bits_ == 0) {
      id_bits_ = static_cast<std::size_t>(
          std::max(1, ceil_log2(std::max<std::size_t>(2, info.n))));
      best_ = info.id;
      pending_announce_ = true;
    }
    for (const auto& msg : inbox) {
      if (!msg) continue;
      MessageReader r(*msg);
      const std::uint64_t candidate = r.get(id_bits_);
      if (candidate > best_) {
        best_ = candidate;
        pending_announce_ = true;
      }
    }
    ++rounds_seen_;
    // After n rounds no new maximum can arrive (diameter < n).
    if (rounds_seen_ > info.n) {
      done_ = true;
      return;
    }
    if (pending_announce_ && !info.neighbors.empty()) {
      Message m = std::move(MessageWriter().put(best_, id_bits_)).finish();
      outbox.send_all(m);
    }
    pending_announce_ = false;
    my_id_ = info.id;
  }

  bool finished() const override { return done_; }
  std::int64_t output() const override { return best_ == my_id_ ? 1 : 0; }

 private:
  std::uint64_t best_ = 0;
  std::uint64_t my_id_ = ~0ULL;
  std::size_t id_bits_ = 0;
  std::size_t rounds_seen_ = 0;
  bool pending_announce_ = false;
  bool done_ = false;
};

}  // namespace

ProgramFactory leader_election_factory() {
  return [](graph::NodeId, const NodeInfo&) {
    return std::make_unique<LeaderElectionProgram>();
  };
}

}  // namespace congestlb::congest
