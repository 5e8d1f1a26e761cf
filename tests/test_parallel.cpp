#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/scaling_model.hpp"
#include "parallel/thread_pool.hpp"

namespace fg = featgraph;
using fg::parallel::ThreadPool;

TEST(ThreadPool, SingleLaneRunsInline) {
  int calls = 0;
  ThreadPool::global().launch(1, [&](int tid, int lanes) {
    EXPECT_EQ(tid, 0);
    EXPECT_EQ(lanes, 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, AllLanesRunExactlyOnce) {
  for (int lanes : {2, 3, 8, 16}) {
    std::vector<std::atomic<int>> counts(static_cast<std::size_t>(lanes));
    for (auto& c : counts) c = 0;
    ThreadPool::global().launch(lanes, [&](int tid, int total) {
      EXPECT_EQ(total, lanes);
      counts[static_cast<std::size_t>(tid)].fetch_add(1);
    });
    for (auto& c : counts) EXPECT_EQ(c.load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossManyLaunches) {
  std::atomic<int> total{0};
  for (int i = 0; i < 200; ++i)
    ThreadPool::global().launch(4, [&](int, int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPool, OversubscriptionIsFunctionallyCorrect) {
  // More lanes than cores must still run every lane.
  std::atomic<int> total{0};
  ThreadPool::global().launch(64, [&](int, int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, LaneExceptionIsRethrownOnTheCallerAfterEveryLaneRuns) {
  // A throwing lane must not std::terminate the process (a worker lane) or
  // leave the attached slot claimed (the caller's lane): the launch runs
  // every other lane, rethrows the first exception on the caller, and the
  // next launch works. Each lane index takes a turn as the thrower, so both
  // the caller's and a worker's lane are covered whichever runs where.
  ThreadPool local(3);
  for (ThreadPool* pool : {&ThreadPool::global(), &local}) {
    for (int bad = 0; bad < 4; ++bad) {
      std::vector<std::atomic<int>> counts(4);
      for (auto& c : counts) c = 0;
      try {
        pool->launch(4, [&](int tid, int) {
          counts[static_cast<std::size_t>(tid)].fetch_add(1);
          if (tid == bad) throw std::runtime_error("lane failed");
        });
        ADD_FAILURE() << "lane " << bad << "'s exception was swallowed";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "lane failed");
      }
      for (auto& c : counts) EXPECT_EQ(c.load(), 1) << "thrower " << bad;
      std::atomic<int> total{0};
      pool->launch(4, [&](int, int) { total.fetch_add(1); });
      EXPECT_EQ(total.load(), 4) << "launch after lane " << bad << " threw";
    }
  }
}

// --- dual-slot pool (attached vs detached jobs) ---------------------------

TEST(ThreadPool, DetachedJobDoesNotStarveAttachedLaunches) {
  // Regression: the single-job-slot pool treated a live DETACHED serving
  // lane as "busy", degrading EVERY launch() to inline serial for the
  // lane's whole lifetime — the server ran all its kernels single-threaded.
  // The dual-slot pool must keep attached lanes genuinely concurrent while
  // a detached job blocks one worker.
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(pool.launch_detached_if_idle(1, [&](int, int) {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  }));

  // Rendezvous: each attached lane waits (bounded) for the other to arrive.
  // Only lanes that overlap IN TIME can both observe arrived == 2; a serial
  // inline fallback has the first lane time out before the second starts.
  std::mutex rm;
  std::condition_variable rcv;
  int arrived = 0;
  int observed = 0;
  pool.launch(2, [&](int, int) {
    std::unique_lock<std::mutex> lock(rm);
    ++arrived;
    rcv.notify_all();
    if (rcv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return arrived == 2; }))
      ++observed;
  });
  EXPECT_EQ(observed, 2) << "attached lanes did not overlap in time while a "
                            "detached job was live";

  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  pool.wait_detached_drained();
}

TEST(ThreadPool, DetachedLaneRunsNestedParallelKernels) {
  // A serving lane must be able to run parallel kernels: its nested
  // launch() claims the SEPARATE attached slot — no self-deadlock, and no
  // silent serial degradation (the payoff of the dual-slot fix).
  ThreadPool pool(2);
  std::promise<std::int64_t> result;
  ASSERT_TRUE(pool.launch_detached_if_idle(1, [&](int, int) {
    std::atomic<std::int64_t> sum{0};
    pool.launch(4, [&](int tid, int) { sum.fetch_add(tid + 1); });
    result.set_value(sum.load());
  }));
  auto fut = result.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(fut.get(), 1 + 2 + 3 + 4);
  pool.wait_detached_drained();
}

TEST(ThreadPool, DetachedSlotIsExclusiveUntilDrained) {
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(pool.launch_detached_if_idle(1, [&](int, int) {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  }));
  int ran = 0;
  EXPECT_FALSE(pool.launch_detached_if_idle(1, [&](int, int) { ++ran; }));
  EXPECT_EQ(ran, 0);
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  pool.wait_detached_drained();
  std::atomic<bool> reran{false};
  ASSERT_TRUE(pool.launch_detached_if_idle(1, [&](int, int) {
    reran.store(true);
  }));
  pool.wait_detached_drained();
  EXPECT_TRUE(reran.load());
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h = 0;
    fg::parallel::parallel_for(0, 100, threads, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  fg::parallel::parallel_for(5, 5, 4, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForRanges, RangesPartitionTheInterval) {
  std::mutex m;
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  fg::parallel::parallel_for_ranges(
      0, 103, 4, [&](std::int64_t lo, std::int64_t hi) {
        std::lock_guard<std::mutex> lock(m);
        ranges.emplace_back(lo, hi);
      });
  std::sort(ranges.begin(), ranges.end());
  std::int64_t covered = 0;
  std::int64_t expected_next = 0;
  for (auto [lo, hi] : ranges) {
    EXPECT_EQ(lo, expected_next);
    EXPECT_LT(lo, hi);
    covered += hi - lo;
    expected_next = hi;
  }
  EXPECT_EQ(covered, 103);
}

// --- nnz-balanced range splitting ---------------------------------------

namespace {

/// indptr for a row-degree list.
std::vector<std::int64_t> indptr_of(const std::vector<std::int64_t>& degs) {
  std::vector<std::int64_t> p(degs.size() + 1, 0);
  for (std::size_t i = 0; i < degs.size(); ++i) p[i + 1] = p[i] + degs[i];
  return p;
}

}  // namespace

TEST(NnzSplit, BoundariesTileTheInterval) {
  const auto indptr = indptr_of({3, 0, 7, 1, 0, 0, 12, 2, 0, 5});
  const std::int64_t n = 10;
  for (int lanes : {1, 2, 3, 4, 8, 16}) {
    std::int64_t prev = 0;
    EXPECT_EQ(fg::parallel::nnz_split_point(indptr.data(), 0, n, 0, lanes), 0);
    for (int k = 1; k <= lanes; ++k) {
      const std::int64_t b =
          fg::parallel::nnz_split_point(indptr.data(), 0, n, k, lanes);
      EXPECT_GE(b, prev) << "lanes=" << lanes << " k=" << k;
      EXPECT_LE(b, n);
      prev = b;
    }
    EXPECT_EQ(prev, n) << "last boundary must be end (lanes=" << lanes << ")";
  }
}

TEST(NnzSplit, RangesCoverEveryRowExactlyOnce) {
  const auto indptr = indptr_of({0, 50, 1, 1, 0, 1, 1, 1, 0, 0, 45});
  for (int threads : {1, 2, 4, 8}) {
    std::mutex m;
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
    fg::parallel::parallel_for_nnz_ranges(
        indptr.data(), 0, 11, threads,
        [&](std::int64_t lo, std::int64_t hi) {
          std::lock_guard<std::mutex> lock(m);
          ranges.emplace_back(lo, hi);
        });
    std::sort(ranges.begin(), ranges.end());
    std::int64_t expected_next = 0;
    for (auto [lo, hi] : ranges) {
      EXPECT_GE(lo, expected_next);
      EXPECT_LT(lo, hi);
      // Gaps are impossible: boundaries are monotone and tile [0, 11).
      EXPECT_EQ(lo, expected_next);
      expected_next = hi;
    }
    EXPECT_EQ(expected_next, 11);
  }
}

TEST(NnzSplit, BalancesSkewedDegreesWithinOneRow) {
  // One hub of 1000 edges among 999 degree-1 rows: a static row split gives
  // lane 0 over half the edges; the nnz split must keep every lane within
  // total/lanes + max_row_degree.
  std::vector<std::int64_t> degs(1000, 1);
  degs[0] = 1000;
  const auto indptr = indptr_of(degs);
  const std::int64_t total = indptr.back();
  for (int lanes : {2, 4, 8}) {
    const std::int64_t cap = total / lanes + 1000;
    for (int k = 0; k < lanes; ++k) {
      const std::int64_t lo =
          fg::parallel::nnz_split_point(indptr.data(), 0, 1000, k, lanes);
      const std::int64_t hi =
          fg::parallel::nnz_split_point(indptr.data(), 0, 1000, k + 1, lanes);
      EXPECT_LE(indptr[static_cast<std::size_t>(hi)] -
                    indptr[static_cast<std::size_t>(lo)],
                cap)
          << "lanes=" << lanes << " k=" << k;
    }
  }
}

TEST(NnzSplit, AllEmptyRowsGoToOneLane) {
  const auto indptr = indptr_of({0, 0, 0, 0, 0});
  int calls = 0;
  std::int64_t lo_seen = -1, hi_seen = -1;
  std::mutex m;
  fg::parallel::parallel_for_nnz_ranges(indptr.data(), 0, 5, 4,
                                        [&](std::int64_t lo, std::int64_t hi) {
                                          std::lock_guard<std::mutex> lock(m);
                                          ++calls;
                                          lo_seen = lo;
                                          hi_seen = hi;
                                        });
  // Zero-nnz prefix sums put every interior boundary at row 0; only the
  // final lane [0, 5) is non-empty.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(lo_seen, 0);
  EXPECT_EQ(hi_seen, 5);
}

TEST(NnzSplit, ExtremeNnzTotalsDoNotOverflow) {
  // Satellite fix: the boundary target used to be computed as
  // total * k / lanes, which overflows int64 once nnz x lanes passes 2^63
  // (billion-edge shards split across many lanes). 8 rows of ~2^59 edges
  // each put the total near 2^62, so the old product overflowed for every
  // k >= 4 — check each boundary against a 128-bit reference.
  const std::int64_t big = std::int64_t{1} << 59;
  std::vector<std::int64_t> indptr(9);
  indptr[0] = 0;
  for (std::size_t i = 1; i < indptr.size(); ++i)
    indptr[i] = indptr[i - 1] + big + static_cast<std::int64_t>(i) * 7919;
  const std::int64_t n = 8;
  for (int lanes : {3, 7, 16, 61}) {
    std::int64_t prev = 0;
    for (int k = 0; k <= lanes; ++k) {
      const std::int64_t got =
          fg::parallel::nnz_split_point(indptr.data(), 0, n, k, lanes);
      std::int64_t want;
      if (k == 0) {
        want = 0;
      } else if (k == lanes) {
        want = n;
      } else {
        const auto target = static_cast<std::int64_t>(
            static_cast<__int128>(indptr[static_cast<std::size_t>(n)]) * k /
            lanes);
        want = std::lower_bound(indptr.data(), indptr.data() + n, target) -
               indptr.data();
      }
      EXPECT_EQ(got, want) << "lanes=" << lanes << " k=" << k;
      EXPECT_GE(got, prev);
      prev = got;
    }
    EXPECT_EQ(prev, n);
  }
}

TEST(NnzSplit, EmptyIntervalIsNoop) {
  const auto indptr = indptr_of({4, 4});
  int calls = 0;
  fg::parallel::parallel_for_nnz_ranges(indptr.data(), 1, 1, 4,
                                        [&](std::int64_t, std::int64_t) {
                                          ++calls;
                                        });
  EXPECT_EQ(calls, 0);
}

TEST(CooperativeChunks, EveryChunkProcessedOnce) {
  for (int threads : {1, 2, 4}) {
    std::vector<std::atomic<int>> hits(37);
    for (auto& h : hits) h = 0;
    fg::parallel::cooperative_chunks(37, threads, [&](std::int64_t c) {
      hits[static_cast<std::size_t>(c)].fetch_add(1);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

// --- work stealing --------------------------------------------------------

TEST(WorkStealingChunks, DrainsEveryItemExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    for (std::int64_t grain : {1, 3, 8}) {
      constexpr std::int64_t kItems = 103;
      std::vector<std::atomic<int>> hits(kItems);
      for (auto& h : hits) h = 0;
      const auto stats = fg::parallel::work_stealing_chunks(
          kItems, threads, grain, [&](std::int64_t i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1);
          });
      for (std::int64_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "item " << i << " threads=" << threads << " grain=" << grain;
      EXPECT_EQ(stats.executed, kItems);
    }
  }
}

TEST(WorkStealingChunks, SerialPathRunsInOrderWithNoSteals) {
  std::vector<std::int64_t> order;
  const auto stats = fg::parallel::work_stealing_chunks(
      9, 1, 4, [&](std::int64_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 9u);
  for (std::int64_t i = 0; i < 9; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(stats.executed, 9);
  EXPECT_EQ(stats.stolen, 0);
}

TEST(WorkStealingChunks, ImbalanceMigratesAcrossSlices) {
  // Lane 0's slice is made pathologically slow while the other slices are
  // trivial: whether lanes run truly concurrently (multi-worker pool) or
  // one thread multiplexes them (1-core CI), items outside the running
  // lane's own slice must be drained by STEALING — and still exactly once.
  constexpr std::int64_t kItems = 16;
  constexpr int kThreads = 4;
  std::vector<std::atomic<int>> hits(kItems);
  for (auto& h : hits) h = 0;
  const auto stats = fg::parallel::work_stealing_chunks(
      kItems, kThreads, 1, [&](std::int64_t i) {
        if (i < kItems / kThreads)
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
  for (std::int64_t i = 0; i < kItems; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  EXPECT_EQ(stats.executed, kItems);
  EXPECT_GT(stats.stolen, 0);
}

TEST(WorkStealingChunks, OversubscribedLanesStillDrainEverySlice) {
  // More logical lanes than the pool has workers: slices of lanes that
  // never get a worker must be drained by whoever scans past them.
  constexpr std::int64_t kItems = 57;
  std::vector<std::atomic<int>> hits(kItems);
  for (auto& h : hits) h = 0;
  const auto stats = fg::parallel::work_stealing_chunks(
      kItems, 16, 2, [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
  for (std::int64_t i = 0; i < kItems; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  EXPECT_EQ(stats.executed, kItems);
}

// --- scaling model -----------------------------------------------------

using fg::parallel::predict_parallel_seconds;
using fg::parallel::SchedulingMode;
using fg::parallel::WorkChunk;

namespace {

std::vector<WorkChunk> uniform_chunks(int n, double secs, double bytes) {
  return std::vector<WorkChunk>(static_cast<std::size_t>(n),
                                WorkChunk{secs, bytes});
}

}  // namespace

TEST(ScalingModel, OneThreadMatchesTotalWork) {
  const auto chunks = uniform_chunks(16, 0.1, 1e6);
  const double t =
      predict_parallel_seconds(chunks, 1, SchedulingMode::kIndependent);
  EXPECT_NEAR(t, 1.6, 0.01);
}

TEST(ScalingModel, MoreThreadsNeverSlower) {
  const auto chunks = uniform_chunks(64, 0.05, 1e6);
  for (auto mode :
       {SchedulingMode::kIndependent, SchedulingMode::kCooperative}) {
    double prev = predict_parallel_seconds(chunks, 1, mode);
    for (int k : {2, 4, 8, 16}) {
      const double t = predict_parallel_seconds(chunks, k, mode);
      EXPECT_LE(t, prev * 1.0001);
      prev = t;
    }
  }
}

TEST(ScalingModel, SpeedupBoundedByThreadCount) {
  const auto chunks = uniform_chunks(64, 0.05, 1e6);
  const double t1 =
      predict_parallel_seconds(chunks, 1, SchedulingMode::kCooperative);
  const double t16 =
      predict_parallel_seconds(chunks, 16, SchedulingMode::kCooperative);
  EXPECT_LE(t1 / t16, 16.0 + 1e-6);
  EXPECT_GT(t1 / t16, 8.0);  // near-linear when chunks fit the LLC
}

TEST(ScalingModel, CooperativeDodgesLlcContention) {
  // Chunks of 8 MB: 16 independent chunks blow past a 25 MB LLC while the
  // cooperative mode keeps one chunk resident, so cooperative must win.
  const auto chunks = uniform_chunks(64, 0.05, 8e6);
  const double indep =
      predict_parallel_seconds(chunks, 16, SchedulingMode::kIndependent);
  const double coop =
      predict_parallel_seconds(chunks, 16, SchedulingMode::kCooperative);
  EXPECT_LT(coop, indep);
}

TEST(ScalingModel, BandwidthRooflineCapsSpeedup) {
  // A purely bandwidth-bound workload (huge bytes, little compute) cannot
  // scale past socket_bw / per_thread_bw regardless of thread count.
  fg::parallel::ScalingModelParams params;
  std::vector<WorkChunk> chunks(64, WorkChunk{0.001, 2e9});  // 128 GB total
  const double t1 =
      predict_parallel_seconds(chunks, 1, SchedulingMode::kCooperative, params);
  const double t16 = predict_parallel_seconds(chunks, 16,
                                              SchedulingMode::kCooperative,
                                              params);
  const double max_speedup =
      params.socket_bw_bytes_per_s / params.per_thread_bw_bytes_per_s;
  EXPECT_LT(t1 / t16, max_speedup + 0.01);
  EXPECT_GT(t1 / t16, max_speedup * 0.75);
}

TEST(ScalingModel, ComputeBoundWorkloadsScaleLinearly) {
  // Negligible bytes: the bandwidth floor never binds and cooperative
  // scheduling reaches ideal speedup.
  std::vector<WorkChunk> chunks(64, WorkChunk{0.01, 1e3});
  const double t1 =
      predict_parallel_seconds(chunks, 1, SchedulingMode::kCooperative);
  const double t16 =
      predict_parallel_seconds(chunks, 16, SchedulingMode::kCooperative);
  EXPECT_NEAR(t1 / t16, 16.0, 0.5);
}

TEST(ScalingModel, SkewedChunksScaleWorse) {
  auto uniform = uniform_chunks(16, 0.1, 1e6);
  std::vector<WorkChunk> skewed = uniform;
  // Same total work, but one chunk dominates.
  for (auto& c : skewed) c.seconds = 0.02;
  skewed[0].seconds = 0.1 * 16 - 0.02 * 15;
  const double tu =
      predict_parallel_seconds(uniform, 8, SchedulingMode::kIndependent);
  const double ts =
      predict_parallel_seconds(skewed, 8, SchedulingMode::kIndependent);
  EXPECT_GT(ts, tu);
}

TEST(ScalingModel, CooperativeChargesBarrierPerChunkPerExtraThread) {
  // Satellite fix: cooperative scheduling synchronizes ALL k threads at
  // every chunk boundary, so the rendezvous cost must scale with
  // (k - 1) x chunks. The old model charged only the flat per-chunk
  // dispatch cost — identical to independent mode — and was optimistic
  // exactly where the shard engine operates: many small chunks, high k.
  fg::parallel::ScalingModelParams params;
  params.per_chunk_overhead_s = 1e-4;
  const auto chunks = uniform_chunks(200, 1e-6, 0.0);
  const double coop1 =
      predict_parallel_seconds(chunks, 1, SchedulingMode::kCooperative,
                               params);
  const double coop4 =
      predict_parallel_seconds(chunks, 4, SchedulingMode::kCooperative,
                               params);
  // Work shrinks 200us -> 50us; everything else added is the barrier term
  // 3 threads x 200 barriers x 1e-4 s.
  EXPECT_NEAR(coop4 - coop1, 3 * 200 * 1e-4, 2e-4);
}

TEST(ScalingModel, OneThreadCooperativePaysNoBarrier) {
  // k == 1 has no rendezvous: cooperative and independent predictions
  // coincide regardless of how expensive a barrier would be.
  fg::parallel::ScalingModelParams params;
  params.per_chunk_overhead_s = 1e-2;
  const auto chunks = uniform_chunks(64, 1e-3, 0.0);
  const double coop =
      predict_parallel_seconds(chunks, 1, SchedulingMode::kCooperative,
                               params);
  const double indep =
      predict_parallel_seconds(chunks, 1, SchedulingMode::kIndependent,
                               params);
  EXPECT_NEAR(coop, indep, 1e-12);
}

TEST(ScalingModel, BarriersMakeCooperativeLoseOnManyTinyChunks) {
  // The regime the fix exposes: slicing tiny chunks across k threads costs
  // more in barriers than it saves in work — independent (steal-style)
  // scheduling must predict faster there.
  fg::parallel::ScalingModelParams params;
  params.per_chunk_overhead_s = 1e-4;
  const auto chunks = uniform_chunks(200, 1e-6, 0.0);
  const double coop =
      predict_parallel_seconds(chunks, 4, SchedulingMode::kCooperative,
                               params);
  const double indep =
      predict_parallel_seconds(chunks, 4, SchedulingMode::kIndependent,
                               params);
  EXPECT_GT(coop, indep);
}
