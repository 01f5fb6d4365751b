// Work-stealing DAG executor for campaign jobs.
//
// Differs from support/thread_pool.hpp on purpose: the engine pool runs a
// fixed shard loop per phase, while campaigns execute a *dependency graph*
// of irregular jobs (a branch-and-bound solve can be 1000x a property
// check). Each worker owns a deque; it pushes newly-ready jobs to its back
// and pops from its back (LIFO keeps a gadget's dependents hot), and an
// idle worker steals from the *front* of a victim's deque (FIFO steals
// take the oldest, largest-subtree work — the classic Blumofe-Leiserson
// discipline, here with a mutex per deque instead of a lock-free Chase-Lev
// since jobs are milliseconds, not nanoseconds).
//
// Scheduling freedom never shows in results: jobs are pure functions of
// their pre-bound seeds (campaign/campaign.cpp derives every seed from the
// spec hash and the job's structural position), so which worker ran what,
// and in which steal order, is unobservable in the output — the property
// the determinism tests pin down across 1/2/8 workers.
//
// A budget (`max_executed`) supports kill simulation and bounded runs:
// once the budget is exhausted (or a job throws), the scheduler flips into
// abandon mode and drains remaining jobs without running them, so run()
// always terminates with a consistent executed/abandoned partition.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace congestlb::campaign {

class WorkStealingScheduler {
 public:
  /// fn(worker) — worker index in [0, num_threads), usable as a metrics
  /// shard. Must not touch non-dependency-ordered shared state.
  using JobFn = std::function<void(std::size_t worker)>;

  explicit WorkStealingScheduler(std::size_t num_threads);

  WorkStealingScheduler(const WorkStealingScheduler&) = delete;
  WorkStealingScheduler& operator=(const WorkStealingScheduler&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Register a job; returns its id. All jobs and dependencies must be
  /// added before run().
  std::size_t add_job(JobFn fn);

  /// `job` may only start after `prerequisite` finished (or was abandoned).
  void add_dependency(std::size_t job, std::size_t prerequisite);

  struct Report {
    std::size_t executed = 0;   ///< jobs whose fn actually ran
    std::size_t abandoned = 0;  ///< drained without running (budget/error)
    /// Jobs popped from a victim's deque rather than the worker's own.
    /// Scheduling-dependent by nature: observability only, never part of
    /// any determinism contract.
    std::uint64_t steals = 0;
    /// ran[j] — whether job j executed. Indexed by add_job id.
    std::vector<std::uint8_t> ran;
  };

  /// Execute the DAG; blocks until every job is executed or abandoned.
  /// max_executed > 0 stops issuing new jobs after that many executed
  /// (in-flight jobs finish; the rest are abandoned). The first job
  /// exception is rethrown here after the drain. Single-shot: run() may
  /// only be called once per scheduler.
  ///
  /// Exception safety: a throwing job flips the scheduler into abandon
  /// mode (never std::terminate), and the spawned workers are joined via
  /// RAII even if the coordinator loop itself throws — run() never leaks a
  /// thread, whatever unwinds through it.
  Report run(std::size_t max_executed = 0);

 private:
  struct Job {
    JobFn fn;
    std::vector<std::size_t> dependents;
    std::size_t num_deps = 0;
  };

  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::size_t> q;
  };

  void worker_loop(std::size_t w);
  bool pop_or_steal(std::size_t w, std::size_t* job);
  void execute(std::size_t w, std::size_t job);
  void make_ready(std::size_t w, std::size_t job);

  std::size_t num_threads_;
  std::vector<Job> jobs_;
  std::unique_ptr<WorkerQueue[]> queues_;
  std::vector<std::atomic<std::size_t>> deps_left_;
  std::vector<std::uint8_t> ran_;

  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<std::size_t> issued_{0};
  std::atomic<bool> abandon_{false};
  /// Emergency drain: set by the RAII joiner when run() unwinds past the
  /// coordinator loop, so workers exit as soon as they run out of poppable
  /// work instead of waiting for a done_ count that may never arrive.
  std::atomic<bool> halt_{false};
  std::size_t max_executed_ = 0;
  bool started_ = false;

  std::mutex error_mu_;
  std::exception_ptr first_error_;
};

}  // namespace congestlb::campaign
