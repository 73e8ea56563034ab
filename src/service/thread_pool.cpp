#include "service/thread_pool.h"

#include <stdexcept>
#include <utility>

namespace plg::service {

ThreadPool::ThreadPool(const PoolOptions& opt)
    : queue_cap_(opt.queue_cap), shed_policy_(opt.shed_policy) {
  unsigned workers = opt.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { run(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    util::MutexLock lock(mu_);
    if (stop_) throw std::logic_error("ThreadPool::submit after shutdown");
    queue_.push_back(Job{std::move(job), {}});
  }
  work_cv_.notify_one();
}

bool ThreadPool::try_submit(Job job) {
  // A displaced job's shed callback runs outside the lock: shed handlers
  // touch caller state (results arrays, latches, metrics), and holding
  // the pool mutex across arbitrary user code invites lock-order cycles.
  std::function<void()> displaced_shed;
  bool admitted = true;
  {
    util::MutexLock lock(mu_);
    if (stop_) {
      throw std::logic_error("ThreadPool::try_submit after shutdown");
    }
    if (queue_cap_ > 0 && queue_.size() >= queue_cap_) {
      if (shed_policy_ == ShedPolicy::kRejectNew) {
        admitted = false;
      } else {
        displaced_shed = std::move(queue_.front().shed);
        queue_.pop_front();
      }
    }
    if (admitted) queue_.push_back(std::move(job));
  }
  if (!admitted) {
    if (job.shed) job.shed();
    return false;
  }
  work_cv_.notify_one();
  if (displaced_shed) displaced_shed();
  return true;
}

void ThreadPool::drain() {
  util::MutexLock lock(mu_);
  while (!queue_.empty() || busy_ != 0) lock.wait(idle_cv_);
}

void ThreadPool::run() {
  bool ran = false;
  for (;;) {
    Job job;
    {
      util::MutexLock lock(mu_);
      // One lock round trip per job: retire the previous job and take
      // the next. Explicit predicate loop instead of cv.wait(lock,
      // pred): the analysis does not propagate lock state into the
      // predicate lambda, so guarded reads must be spelled in this
      // scope, where it can see MutexLock holding mu_.
      if (ran && --busy_ == 0 && queue_.empty()) idle_cv_.notify_all();
      while (!stop_ && queue_.empty()) lock.wait(work_cv_);
      if (queue_.empty()) return;  // stop requested and queue drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
    }
    if (job.run) job.run();
    ran = true;
  }
}

}  // namespace plg::service
