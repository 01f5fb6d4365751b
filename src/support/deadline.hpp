// Cooperative cancellation.
//
// DeadlineToken is the cancellation primitive the campaign runtime threads
// through long-running work (docs/ROBUSTNESS.md): the owner arms it with a
// wall-clock budget (or cancels it explicitly), and the worker polls it from
// its hot loop. The fast path is a single relaxed atomic load — cheap enough
// for the branch-and-bound search to poll at every node — and the clock is
// consulted only every kClockStride polls, so an armed deadline costs a few
// nanoseconds per node, not a syscall. Once expired or cancelled the token
// latches: cancelled() never goes back to false, so every worker sharing the
// token agrees on the decision even when they observe it at different times.
//
// Cancellation is advisory, never exact: a solve that observes the token
// stops at its next poll and returns its best incumbent so far (flagged
// approximate), which keeps every partial result certified — the token only
// decides *when* to stop, never *what* the answer is.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace congestlb {

class DeadlineToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Clock checks happen once per this many poll() calls; in between, a
  /// poll is one relaxed load. Power of two so the modulo is a mask.
  static constexpr std::uint64_t kClockStride = 4096;

  /// Unarmed token: never expires on its own, cancels only via cancel().
  DeadlineToken() = default;

  /// Armed token: expires `budget` after construction. A non-positive
  /// budget is already expired (poll() latches on its first clock check).
  explicit DeadlineToken(Clock::duration budget)
      : armed_(true), deadline_(Clock::now() + budget) {}

  DeadlineToken(const DeadlineToken&) = delete;
  DeadlineToken& operator=(const DeadlineToken&) = delete;

  /// Latch the token cancelled. Idempotent and safe from any thread.
  void cancel() const { cancelled_.store(true, std::memory_order_relaxed); }

  /// Has the token been cancelled (explicitly or by an observed expiry)?
  /// One relaxed load; safe from any thread.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Hot-loop check: pass a monotonically increasing tick (e.g. the search
  /// node counter). Reads the clock only when tick lands on a stride
  /// boundary; an observed expiry latches via cancel() so *all* sharers see
  /// it, stride-aligned or not. Returns cancelled().
  bool poll(std::uint64_t tick) const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (armed_ && (tick & (kClockStride - 1)) == 0 &&
        Clock::now() >= deadline_) {
      cancel();
      return true;
    }
    return false;
  }

  /// Unconditional clock check (for coarse-grained callers like the
  /// kernelization pass loop, where polls are rare and a syscall is fine).
  bool expired() const { return poll(0); }

 private:
  mutable std::atomic<bool> cancelled_{false};
  bool armed_ = false;
  Clock::time_point deadline_{};
};

}  // namespace congestlb
