#include "congest/algorithms/bfs_tree.hpp"

#include "support/math.hpp"

namespace congestlb::congest {

namespace {

class BfsLevelProgram final : public NodeProgram {
 public:
  explicit BfsLevelProgram(graph::NodeId root) : root_(root) {}

  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng&) override {
    if (level_bits_ == 0) {
      level_bits_ = static_cast<std::size_t>(
          std::max(1, ceil_log2(std::max<std::size_t>(2, info.n + 1))));
      if (info.id == root_) level_ = 0;
    }
    // Adopt the first level we hear (BFS delivers the minimum first in a
    // synchronous network).
    for (const auto& msg : inbox) {
      if (!msg || level_ != kUnset) continue;
      MessageReader r(*msg);
      level_ = r.get(level_bits_) + 1;
    }
    if (level_ != kUnset && !announced_) {
      announced_ = true;
      if (!info.neighbors.empty()) {
        Message m =
            std::move(MessageWriter().put(level_, level_bits_)).finish();
        outbox.send_all(m);
      }
    }
  }

  bool finished() const override { return announced_; }
  std::int64_t output() const override {
    return level_ == kUnset ? 0 : static_cast<std::int64_t>(level_ + 1);
  }

 private:
  static constexpr std::uint64_t kUnset = ~0ULL;
  graph::NodeId root_;
  std::uint64_t level_ = kUnset;
  std::size_t level_bits_ = 0;
  bool announced_ = false;
};

}  // namespace

ProgramFactory bfs_level_factory(graph::NodeId root) {
  return [root](graph::NodeId, const NodeInfo&) {
    return std::make_unique<BfsLevelProgram>(root);
  };
}

}  // namespace congestlb::congest
