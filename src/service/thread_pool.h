// Fixed thread pool: one bounded FIFO queue shared by every worker.
//
// No job needs a particular worker — the engine's chunks, the serving
// plane's frames and the router's flows share nothing but immutable
// state — so any idle worker takes the oldest queued job. Jobs start in
// submission order; with more than one worker they may finish out of
// order, and a job stuck behind a slow one is picked up by the next
// worker that goes idle.
//
// Admission control: the queue can be capped (PoolOptions::queue_cap,
// pool-wide, counting queued jobs that have not started). When it is
// full, try_submit() applies the shed policy — reject the new job or
// drop the oldest queued one — and the losing job's `shed` callback runs
// instead of its `run` callback. The pool guarantees that exactly one of
// run/shed is invoked for every accepted Job, so a caller counting
// completions (e.g. the engine's per-batch latch) never wedges: a shed
// chunk still counts down.
//
// Shutdown: the destructor drains the queue (pending jobs run), then
// joins. submit()/try_submit() after shutdown begins is a programming
// error and throws. drain() blocks until the queue is empty and every
// worker idle — used by graceful serve shutdown and the chaos harness.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/locks.h"
#include "util/thread_annotations.h"

namespace plg::service {

/// What to do with a job submitted to a full queue.
enum class ShedPolicy : std::uint8_t {
  kRejectNew,   ///< the incoming job is shed (newest loses)
  kDropOldest,  ///< the oldest queued job is shed, the new one admitted
};

struct PoolOptions {
  /// Worker count (0 = std::thread::hardware_concurrency, clamped >= 1).
  unsigned workers = 0;
  /// Pool-wide queue capacity, in queued jobs; 0 = unbounded.
  std::size_t queue_cap = 0;
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
};

class ThreadPool {
 public:
  /// A unit of work plus its load-shedding fallback. Exactly one of the
  /// two callbacks is invoked per accepted job: `run` on a worker thread,
  /// or `shed` when admission control bounces the job. `shed` may run on
  /// the submitting thread (reject-new) or on the thread whose submission
  /// displaced the job (drop-oldest) — it must be cheap and must not
  /// submit to the pool. An empty `shed` is legal and simply dropped.
  struct Job {
    std::function<void()> run;
    std::function<void()> shed;
  };

  /// Spawns `workers` threads with an unbounded queue.
  explicit ThreadPool(unsigned workers) : ThreadPool(PoolOptions{workers}) {}

  /// Spawns opt.workers threads sharing a queue capped at opt.queue_cap.
  explicit ThreadPool(const PoolOptions& opt);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  std::size_t queue_cap() const noexcept { return queue_cap_; }
  ShedPolicy shed_policy() const noexcept { return shed_policy_; }

  /// Enqueues a job, bypassing admission control (never shed; the queue
  /// may exceed its cap). The next idle worker runs it.
  void submit(std::function<void()> job);

  /// Enqueues under admission control. Returns true when `job.run` was
  /// (or will be) executed on a worker thread; false when `job` itself
  /// was shed (its `shed` callback has already run, on this thread).
  /// Under kDropOldest the return is true but some *other* job's shed
  /// callback may have run on this thread before try_submit returns.
  bool try_submit(Job job);

  /// Blocks until the queue is empty and every worker is idle. Jobs
  /// submitted concurrently with drain() may or may not be waited for;
  /// callers wanting a quiescent pool must stop submitting first.
  void drain();

 private:
  void run();

  util::Mutex mu_;
  std::condition_variable work_cv_;  ///< a job was queued, or stop
  std::condition_variable idle_cv_;  ///< queue empty and no job running
  std::deque<Job> queue_ PLG_GUARDED_BY(mu_);
  unsigned busy_ PLG_GUARDED_BY(mu_) = 0;
  bool stop_ PLG_GUARDED_BY(mu_) = false;
  std::size_t queue_cap_ = 0;
  ShedPolicy shed_policy_ = ShedPolicy::kRejectNew;
  std::vector<std::thread> threads_;
};

}  // namespace plg::service
