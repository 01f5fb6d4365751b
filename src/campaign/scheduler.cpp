#include "campaign/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "support/expect.hpp"

namespace congestlb::campaign {

WorkStealingScheduler::WorkStealingScheduler(std::size_t num_threads)
    : num_threads_(std::max<std::size_t>(1, num_threads)) {}

std::size_t WorkStealingScheduler::add_job(JobFn fn) {
  CLB_EXPECT(!started_, "scheduler: add_job after run()");
  CLB_EXPECT(fn != nullptr, "scheduler: null job");
  jobs_.push_back(Job{std::move(fn), {}, 0});
  return jobs_.size() - 1;
}

void WorkStealingScheduler::add_dependency(std::size_t job,
                                           std::size_t prerequisite) {
  CLB_EXPECT(!started_, "scheduler: add_dependency after run()");
  CLB_EXPECT(job < jobs_.size() && prerequisite < jobs_.size(),
             "scheduler: dependency on unknown job");
  CLB_EXPECT(job != prerequisite, "scheduler: self-dependency");
  jobs_[prerequisite].dependents.push_back(job);
  jobs_[job].num_deps += 1;
}

void WorkStealingScheduler::make_ready(std::size_t w, std::size_t job) {
  {
    std::lock_guard<std::mutex> lock(queues_[w].mu);
    queues_[w].q.push_back(job);
  }
  wait_cv_.notify_all();
}

bool WorkStealingScheduler::pop_or_steal(std::size_t w, std::size_t* job) {
  {
    std::lock_guard<std::mutex> lock(queues_[w].mu);
    if (!queues_[w].q.empty()) {
      *job = queues_[w].q.back();
      queues_[w].q.pop_back();
      return true;
    }
  }
  for (std::size_t i = 1; i < num_threads_; ++i) {
    WorkerQueue& victim = queues_[(w + i) % num_threads_];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.q.empty()) {
      *job = victim.q.front();  // steal the oldest (largest-subtree) work
      victim.q.pop_front();
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void WorkStealingScheduler::execute(std::size_t w, std::size_t job) {
  bool run_it = !abandon_.load(std::memory_order_relaxed);
  if (run_it && max_executed_ > 0) {
    // issued_ counts claims on the budget; the claim that lands on the
    // boundary still runs, later claims see the flag and drain.
    const std::size_t prior =
        issued_.fetch_add(1, std::memory_order_relaxed);
    if (prior >= max_executed_) {
      run_it = false;
      abandon_.store(true, std::memory_order_relaxed);
    } else if (prior + 1 == max_executed_) {
      abandon_.store(true, std::memory_order_relaxed);
    }
  }
  if (run_it) {
    try {
      jobs_[job].fn(w);
      ran_[job] = 1;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      abandon_.store(true, std::memory_order_relaxed);
    }
  }
  for (const std::size_t dep : jobs_[job].dependents) {
    if (deps_left_[dep].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      make_ready(w, dep);
    }
  }
  done_.fetch_add(1, std::memory_order_acq_rel);
  wait_cv_.notify_all();
}

void WorkStealingScheduler::worker_loop(std::size_t w) {
  while (true) {
    std::size_t job = 0;
    if (pop_or_steal(w, &job)) {
      execute(w, job);
      continue;
    }
    if (done_.load(std::memory_order_acquire) == jobs_.size()) return;
    // Emergency drain (coordinator unwinding): exit once there is nothing
    // poppable rather than waiting on a done_ count that may never arrive.
    if (halt_.load(std::memory_order_acquire)) return;
    // No local or stealable work but the DAG is not drained: another worker
    // is running a job whose completion will release more. Sleep with a
    // timeout — the timeout (rather than precise wakeup bookkeeping) keeps
    // the scheduler simple, and campaign jobs are far coarser than 1ms.
    std::unique_lock<std::mutex> lock(wait_mu_);
    wait_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

WorkStealingScheduler::Report WorkStealingScheduler::run(
    std::size_t max_executed) {
  CLB_EXPECT(!started_, "scheduler: run() is single-shot");
  started_ = true;
  max_executed_ = max_executed;
  ran_.assign(jobs_.size(), 0);
  deps_left_ = std::vector<std::atomic<std::size_t>>(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    deps_left_[j].store(jobs_[j].num_deps, std::memory_order_relaxed);
  }
  queues_ = std::make_unique<WorkerQueue[]>(num_threads_);
  // Seed ready jobs round-robin so every worker starts with local work.
  std::size_t next_worker = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (jobs_[j].num_deps == 0) {
      queues_[next_worker].q.push_back(j);
      next_worker = (next_worker + 1) % num_threads_;
    }
  }

  if (!jobs_.empty()) {
    std::vector<std::thread> workers;
    workers.reserve(num_threads_ - 1);
    // RAII join: whatever unwinds out of the coordinator loop (a lock
    // failure, an invariant check), every spawned worker is signalled to
    // halt and joined before run() exits — an exception can strand
    // abandoned jobs, but never a thread, and never reach std::terminate.
    // On the normal path the coordinator only returns once the DAG is
    // drained, so the halt flag is moot and this is a plain join.
    struct Joiner {
      WorkStealingScheduler* self;
      std::vector<std::thread>* threads;
      ~Joiner() {
        self->halt_.store(true, std::memory_order_release);
        self->wait_cv_.notify_all();
        for (std::thread& th : *threads) {
          if (th.joinable()) th.join();
        }
      }
    } joiner{this, &workers};
    for (std::size_t w = 1; w < num_threads_; ++w) {
      workers.emplace_back([this, w] { worker_loop(w); });
    }
    worker_loop(0);
  }

  CLB_EXPECT(done_.load() == jobs_.size(),
             "scheduler: drain incomplete (dependency cycle?)");
  if (first_error_) std::rethrow_exception(first_error_);

  Report report;
  report.steals = steals_.load(std::memory_order_relaxed);
  report.ran = ran_;
  for (const std::uint8_t r : ran_) report.executed += r;
  report.abandoned = jobs_.size() - report.executed;
  return report;
}

}  // namespace congestlb::campaign
