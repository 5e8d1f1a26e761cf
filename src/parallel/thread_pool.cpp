#include "parallel/thread_pool.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/env.hpp"

namespace featgraph::parallel {

namespace {

/// Runs one lane and hands back its exception instead of letting it escape:
/// on a worker an escaping exception would std::terminate the process, and
/// on the caller it would leave the attached slot claimed.
std::exception_ptr run_lane(const std::function<void(int, int)>& fn, int lane,
                            int lanes) noexcept {
  try {
    fn(lane, lanes);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_workers) {
  if (num_workers == 0) {
    num_workers = std::thread::hardware_concurrency();
    if (num_workers == 0) num_workers = 2;
  }
  workers_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(static_cast<unsigned>(
      std::max(0L, support::env_long("FEATGRAPH_WORKERS", 0))));
  return pool;
}

void ThreadPool::launch(int num_threads, const std::function<void(int, int)>& fn) {
  FG_CHECK(num_threads >= 1);
  if (num_threads == 1) {
    fn(0, 1);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  // Attached launches are serialized among themselves: a nested/concurrent
  // launch runs inline instead of deadlocking on the slot. A live DETACHED
  // job is NOT a reason to degrade — the caller claims the attached slot and
  // drives lanes itself; free workers help, and with none free the caller
  // still completes every lane (multiplexed, never blocked on the pool).
  if (attached_.active()) {
    lock.unlock();
    for (int tid = 0; tid < num_threads; ++tid) fn(tid, num_threads);
    return;
  }
  attached_ = Job{&fn, num_threads, 0, num_threads, {}};
  run_claimed_lanes(lock, fn);
}

bool ThreadPool::launch_detached_if_idle(int num_threads,
                                         std::function<void(int, int)> fn) {
  FG_CHECK(num_threads >= 1);
  std::unique_lock<std::mutex> lock(mutex_);
  // Same claim discipline — the decision happens under the job-slot lock —
  // plus a worker-availability check: with no workers there is nobody to run
  // a lane the caller does not participate in. Declining while an attached
  // launch is in flight keeps the historical contract (the caller falls back
  // to a dedicated thread rather than queueing behind a kernel).
  if (detached_.active() || attached_.active() || workers_.empty())
    return false;
  detached_fn_ = std::make_shared<std::function<void(int, int)>>(std::move(fn));
  detached_ = Job{detached_fn_.get(), num_threads, 0, num_threads, {}};
  lock.unlock();
  work_ready_.notify_all();
  return true;
}

void ThreadPool::wait_detached_drained() {
  // The last lane of a detached job releases the slot from worker_loop —
  // AFTER the job's own code has returned. A caller that observed its
  // detached work finish (e.g. Server::close joining its lane) waits here
  // so the slot is reclaimable before it hands the pool to someone else.
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [this] { return !detached_.active(); });
}

void ThreadPool::run_claimed_lanes(std::unique_lock<std::mutex>& lock,
                                   const std::function<void(int, int)>& fn) {
  lock.unlock();
  work_ready_.notify_all();

  // The caller also executes lanes so a pool of N workers plus the caller
  // saturates N+1 cores and an attached launch can never wait on a busy
  // pool — even when every worker is held by detached lanes.
  for (;;) {
    lock.lock();
    if (attached_.next_lane >= attached_.lanes) break;  // keep lock; wait
    const int lane = attached_.next_lane++;
    const int lanes = attached_.lanes;
    lock.unlock();
    std::exception_ptr error = run_lane(fn, lane, lanes);
    lock.lock();
    if (error && !attached_.error) attached_.error = std::move(error);
    --attached_.remaining;
    if (attached_.remaining == 0) work_done_.notify_all();
    lock.unlock();
  }
  work_done_.wait(lock, [this] { return attached_.remaining == 0; });
  const std::exception_ptr error = std::move(attached_.error);
  attached_ = Job{};
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [&] {
      return shutdown_ || attached_.pending() || detached_.pending();
    });
    if (shutdown_) return;
    while (attached_.pending() || detached_.pending()) {
      // Attached lanes first: they are short-lived kernels with a caller
      // blocked on them, while detached lanes may run for a server's
      // lifetime — picking a detached lane first could permanently consume
      // this worker.
      Job& job = attached_.pending() ? attached_ : detached_;
      const bool is_detached = &job == &detached_;
      const int lane = job.next_lane++;
      const auto* fn = job.fn;
      const int lanes = job.lanes;
      lock.unlock();
      std::exception_ptr error = run_lane(*fn, lane, lanes);
      // A detached job has no caller to rethrow to: its lane exception
      // terminates the process, as it always has.
      if (error && is_detached) std::rethrow_exception(error);
      lock.lock();
      if (error && !job.error) job.error = std::move(error);
      --job.remaining;
      if (is_detached && job.remaining == 0) {
        // A detached job has no caller waiting in run_claimed_lanes to
        // clear the slot — the last lane releases it here.
        detached_ = Job{};
        detached_fn_.reset();
      }
      if (job.remaining == 0) work_done_.notify_all();
    }
  }
}

}  // namespace featgraph::parallel
