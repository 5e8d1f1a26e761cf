// Persistent worker pool in the spirit of the TVM runtime thread pool the
// paper relies on (Sec. IV-A): workers are created once and reused across
// kernel launches (Core Guidelines CP.41), wait on a condition variable with
// a predicate (CP.42), and kernels hand them embarrassingly parallel chunks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace featgraph::parallel {

/// A fixed set of persistent workers executing "launches". A launch runs
/// `fn(tid, num_threads)` on `num_threads` logical lanes; lanes beyond the
/// number of OS workers are multiplexed onto the available workers, so a
/// launch with num_threads == 8 is functionally correct on a 2-core host.
///
/// Two independent job slots coexist: one ATTACHED slot (launch — the
/// caller participates and blocks until done) and one
/// DETACHED slot (launch_detached_if_idle — workers only, may run for a
/// server's lifetime). Workers prefer attached lanes, so a kernel launched
/// while a serving lane holds the detached slot still gets every worker the
/// detached job is not actively occupying — the single-slot design this
/// replaces degraded ALL launches to inline serial for the detached job's
/// whole lifetime.
class ThreadPool {
 public:
  /// Creates `num_workers` OS threads (defaults to hardware concurrency).
  explicit ThreadPool(unsigned num_workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(tid, num_threads) for tid in [0, num_threads). Blocks until all
  /// lanes finish. num_threads == 1 executes inline on the caller so
  /// single-threaded measurements pay zero scheduling overhead. When the
  /// attached slot is already claimed (a nested or concurrent launch) the
  /// lanes run inline serially instead of deadlocking on the slot; a live
  /// DETACHED job does NOT force the inline fallback — the caller claims the
  /// attached slot and drives lanes itself, with any worker not consumed by
  /// a detached lane helping.
  ///
  /// A lane that throws does not take the process down: the launch keeps
  /// the FIRST lane exception, lets every other lane finish, releases the
  /// slot and rethrows it on the caller. (Inline lanes — num_threads == 1
  /// or a nested launch — simply propagate, skipping the lanes after the
  /// throwing one.)
  void launch(int num_threads, const std::function<void(int, int)>& fn);

  unsigned num_workers() const { return static_cast<unsigned>(workers_.size()); }

  /// The DETACHED slot, the claim discipline the serving front-end's
  /// admission loop uses (src/serve): atomically claims it if free and hands
  /// the lanes to pool WORKERS only — the caller does not participate and
  /// returns immediately. The slot is released by the last lane to finish,
  /// so `fn` may run for the lifetime of a server. Declines (returns false,
  /// nothing runs) when the detached slot is already held, an attached
  /// launch is in flight, or the pool has no workers; the caller takes its
  /// fallback (e.g. a dedicated thread). A long-lived detached lane can
  /// freely run launch()/parallel_for kernels: they claim the SEPARATE
  /// attached slot and recruit the remaining workers (no self-deadlock, and
  /// no serial degradation — the starvation bug this split fixes).
  bool launch_detached_if_idle(int num_threads,
                               std::function<void(int, int)> fn);

  /// Blocks until no detached job holds its slot. The last detached lane
  /// releases the slot AFTER the job's code returns, so a caller that saw
  /// its detached work finish must wait here before expecting a fresh
  /// launch_detached_if_idle claim to succeed. Returns immediately when no
  /// detached job is active.
  void wait_detached_drained();

  /// Process-wide pool, created on first use. Sized to hardware concurrency
  /// unless FEATGRAPH_WORKERS overrides it — the knob CI's multi-worker leg
  /// uses to exercise real lane concurrency on 1-core hosts.
  static ThreadPool& global();

 private:
  /// One job slot's state, guarded by mutex_ (CP.50: mutex lives with the
  /// data it protects).
  struct Job {
    const std::function<void(int, int)>* fn = nullptr;
    int lanes = 0;      // total logical lanes in this launch
    int next_lane = 0;  // next lane index to hand out
    int remaining = 0;  // lanes not yet completed
    std::exception_ptr error;  // first lane exception (attached jobs)
    bool active() const { return fn != nullptr; }
    bool pending() const { return fn != nullptr && next_lane < lanes; }
  };

  void worker_loop();
  /// Runs the claimed attached job's lanes (caller participates), waits for
  /// completion, releases the attached slot. `lock` must hold mutex_ with
  /// the job state already published.
  void run_claimed_lanes(std::unique_lock<std::mutex>& lock,
                         const std::function<void(int, int)>& fn);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;

  Job attached_;
  Job detached_;
  /// The pool owns the detached function (the caller is gone by the time
  /// lanes run); the last finishing lane releases it.
  std::shared_ptr<std::function<void(int, int)>> detached_fn_;
  bool shutdown_ = false;
};

}  // namespace featgraph::parallel
