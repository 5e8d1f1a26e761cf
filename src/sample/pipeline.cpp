#include "sample/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sample/feature_loader.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace featgraph::sample {

namespace {

PreparedBatch produce_batch(const NeighborSampler& sampler,
                            const tensor::Tensor& features,
                            const std::vector<graph::vid_t>& seeds,
                            std::int64_t index, std::int64_t batch_size,
                            int num_threads) {
  static obs::Counter& obs_batches =
      obs::Registry::global().counter("pipeline.batch.produced");
  obs_batches.add(1);
  FG_TRACE_SCOPE("pipeline.produce", obs::arg("batch", index));
  PreparedBatch batch;
  batch.index = index;
  const auto lo = static_cast<std::size_t>(index * batch_size);
  const auto hi = std::min(seeds.size(), lo + static_cast<std::size_t>(batch_size));
  batch.seeds.assign(seeds.begin() + static_cast<std::ptrdiff_t>(lo),
                     seeds.begin() + static_cast<std::ptrdiff_t>(hi));
  batch.blocks = sampler.sample(batch.seeds, static_cast<std::uint64_t>(index),
                                num_threads);
  batch.input_feats =
      gather_rows(features, batch.blocks.input_nodes(), num_threads);
  return batch;
}

}  // namespace

PipelineStats run_pipeline(const NeighborSampler& sampler,
                           const tensor::Tensor& features,
                           const std::vector<graph::vid_t>& seeds,
                           const PipelineOptions& options,
                           const std::function<void(PreparedBatch&)>& consume) {
  FG_CHECK(options.batch_size >= 1);
  FG_CHECK(options.num_threads >= 1);
  PipelineStats stats;
  const std::int64_t num_batches =
      (static_cast<std::int64_t>(seeds.size()) + options.batch_size - 1) /
      options.batch_size;
  stats.batches = num_batches;
  if (num_batches == 0) return stats;
  support::Timer total;

  // The serial loop is the one-lane case: launch(1, ...) runs inline on the
  // caller, so sampling and gather keep num_threads-way kernels. With
  // several lanes the kernels nested in a batch run inline on its lane.
  const int lanes =
      options.pipelined
          ? static_cast<int>(std::min<std::int64_t>(options.num_threads,
                                                    num_batches))
          : 1;
  const int kernel_threads = lanes > 1 ? 1 : options.num_threads;
  struct LaneStats {
    double produce_seconds = 0.0;
    double consume_seconds = 0.0;
    std::thread::id thread;  // default id: the lane ran no batch
  };
  std::vector<LaneStats> lane_stats(static_cast<std::size_t>(lanes));
  std::atomic<std::int64_t> next_batch{0};
  std::atomic<bool> failed{false};
  parallel::ThreadPool::global().launch(lanes, [&](int lane, int) {
    LaneStats& ls = lane_stats[static_cast<std::size_t>(lane)];
    while (!failed.load(std::memory_order_relaxed)) {
      const std::int64_t i = next_batch.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_batches) return;
      ls.thread = std::this_thread::get_id();
      try {
        support::Timer t;
        PreparedBatch batch = produce_batch(sampler, features, seeds, i,
                                            options.batch_size, kernel_threads);
        ls.produce_seconds += t.seconds();
        t.reset();
        {
          FG_TRACE_SCOPE("pipeline.consume", obs::arg("batch", i));
          consume(batch);
        }
        ls.consume_seconds += t.seconds();
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;  // the launch rethrows the first lane exception on the caller
      }
    }
  });

  std::vector<std::thread::id> threads;
  for (const LaneStats& ls : lane_stats) {
    stats.produce_seconds += ls.produce_seconds;
    stats.consume_seconds += ls.consume_seconds;
    if (ls.thread != std::thread::id() &&
        std::find(threads.begin(), threads.end(), ls.thread) == threads.end())
      threads.push_back(ls.thread);
  }
  stats.overlapped = threads.size() >= 2;
  stats.total_seconds = total.seconds();
  return stats;
}

core::CpuSpmmSchedule BlockScheduleCache::schedule_for(
    std::int64_t rows, std::int64_t nnz, std::int64_t feat_width,
    int num_threads, std::uint64_t program_hash,
    const std::function<core::CpuSpmmSchedule()>& tune) {
  // Shape-class key: sizes quantized to their floor log2 bucket (blocks of
  // one batch stream differ by a few rows/edges, not by magnitude), feature
  // width and thread count exact (few distinct values, and schedules
  // genuinely depend on them). Empty sizes (rows or nnz == 0) get their OWN
  // bucket — floor log2 would fold 0 in with 1, and an empty block's
  // degenerate schedule must not be served to singleton blocks (or vice
  // versa). Every field is folded in FULL WIDTH through a golden-ratio hash
  // combine rather than packed into fixed bit slots: the old packing shifted
  // feat_width into bits [8, 8 + width), so a width >= 2^32 XOR-clobbered
  // the log2 fields and aliased unrelated classes.
  auto log2_bucket = [](std::int64_t v) -> std::uint64_t {
    if (v <= 0) return 0;  // empty sizes: a bucket of their own
    std::uint64_t b = 1;   // v == 1 -> bucket 1, [2, 4) -> 2, ...
    while (v > 1) {
      v >>= 1;
      ++b;
    }
    return b;
  };
  auto combine = [](std::uint64_t h, std::uint64_t v) -> std::uint64_t {
    return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  };
  std::uint64_t key = log2_bucket(rows);
  key = combine(key, log2_bucket(nnz));
  key = combine(key, static_cast<std::uint64_t>(feat_width));
  key = combine(key, static_cast<std::uint64_t>(num_threads));
  key = combine(key, program_hash);
  // Per-instance hits_/misses_ stay the tested API; the registry counters
  // are a process-wide mirror so profile reports see schedule-cache traffic.
  static obs::Counter& obs_hits =
      obs::Registry::global().counter("cache.schedule.hit");
  static obs::Counter& obs_misses =
      obs::Registry::global().counter("cache.schedule.miss");
  // Tune UNDER the lock: concurrent first lookups of one fresh class wait
  // for the first caller's schedule instead of each timing the whole space,
  // so every class is tuned exactly once. Other lookups wait too while a
  // class tunes; misses are rare in a stream of same-shaped blocks.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    obs_hits.add(1);
    return it->second;
  }
  const core::CpuSpmmSchedule sched = tune();
  cache_.emplace(key, sched);
  ++misses_;
  obs_misses.add(1);
  return sched;
}

std::int64_t BlockScheduleCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::int64_t BlockScheduleCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

void BlockScheduleCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  hits_ = 0;
  misses_ = 0;
}

}  // namespace featgraph::sample
