// Batch-parallel minibatch serving loop + block-schedule cache.
//
// The serving-scale inference loop every minibatch GNN system runs. Each
// batch is sampled, gathered and computed by ONE lane; T lanes run batches
// side by side:
//
//              next batch index (one atomic counter)
//           ┌───────────────────┬─────────────────────┬─────────────
//           ▼                   ▼                     ▼
//   lane 0: sample i    lane 1: sample j    lane T-1: sample k
//           gather i            gather j              gather k
//           consume i           consume j             consume k
//           (then claims the next index, until none is left)
//
// The lanes are ONE ThreadPool::launch, so the kernels nested inside a
// batch (sampling, gather, matmul, SpMM) run inline on their lane; the
// parallelism is across batches. Nothing blocks between lanes — there is no
// queue, so nothing can deadlock, and called from inside another launch the
// lanes simply run inline, one after another.
//
// Determinism: batch i's blocks are a pure function of (graph, seed, i) —
// see neighbor_sampler.hpp — so which lane runs a batch, and when, never
// changes what it sees. Consumers that write each batch to rows fixed by
// its index produce identical results at every lane count.
//
// The BlockScheduleCache amortizes schedule selection across the stream:
// sampled blocks arrive by the thousands with only a handful of distinct
// SHAPES (batch size x fanout x feature width), so the tuner/heuristic is
// consulted once per shape class — (log2 rows, log2 nnz, exact feature
// width, threads) — instead of once per batch. minidgl's ExecContext
// carries an optional pointer to one; the sparse ops route their schedule
// lookup through it when set.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/schedule.hpp"
#include "sample/neighbor_sampler.hpp"
#include "tensor/tensor.hpp"

namespace featgraph::sample {

/// One produced minibatch, ready for block compute.
struct PreparedBatch {
  std::int64_t index = 0;
  std::vector<graph::vid_t> seeds;
  MinibatchBlocks blocks;
  /// Gathered input features: one row per blocks.input_nodes() entry.
  tensor::Tensor input_feats;
};

struct PipelineOptions {
  std::int64_t batch_size = 256;
  /// true = run batches on num_threads lanes at once, kernels inline on
  /// each lane; false = one batch at a time with num_threads-way kernels
  /// (the reference tests and bench_minibatch compare against).
  bool pipelined = true;
  /// Lane count when pipelined (capped at the batch count); kernel thread
  /// count for sampling and gather when serial.
  int num_threads = 1;
};

struct PipelineStats {
  std::int64_t batches = 0;
  /// Seconds spent sampling + gathering, summed over lanes.
  double produce_seconds = 0.0;
  /// Seconds spent in `consume`, summed over lanes.
  double consume_seconds = 0.0;
  /// Wall-clock of the whole loop; with L busy lanes it approaches
  /// (produce + consume) / L.
  double total_seconds = 0.0;
  /// True when batches OBSERVABLY ran on at least 2 distinct threads (false
  /// for the serial loop, for lanes run inline inside another launch, or
  /// when one thread happened to claim every batch).
  bool overlapped = false;
};

/// Drives minibatches of `seeds` (contiguous chunks of `batch_size`, last
/// one partial; batch i holds seeds [i * batch_size, ...)) through sample
/// -> gather -> `consume`. Each batch index is consumed exactly once. With
/// options.pipelined, `consume` runs CONCURRENTLY on different lanes and
/// batches arrive in no fixed order; otherwise in increasing index order on
/// the caller. The batch is handed over mutably so the consumer may move
/// tensors out. If `consume` throws, lanes stop claiming new batches, the
/// batches in flight finish, and the first exception is rethrown here.
PipelineStats run_pipeline(const NeighborSampler& sampler,
                           const tensor::Tensor& features,
                           const std::vector<graph::vid_t>& seeds,
                           const PipelineOptions& options,
                           const std::function<void(PreparedBatch&)>& consume);

/// Schedule memo keyed on block SHAPE CLASS: (floor log2 rows, floor log2
/// nnz, exact feature width, thread count, lowered-program hash). The
/// program hash (core::schedule_program_hash of the Schedule-IR the caller
/// intends to run — hash of the empty program when none) keeps two launches
/// in the same geometric class but under DIFFERENT IR programs from
/// aliasing one cache line. Thread-safe; `tune` runs on a miss under the
/// cache's lock (wrap a heuristic or a real tuner call — the pipeline's
/// stream of same-shaped blocks then reuses the winner), so concurrent
/// first lookups of one fresh class run `tune` once: every caller gets the
/// SAME schedule back and the class counts exactly one miss
/// (Pipeline.ConcurrentTunersKeepFirstScheduleAndOneMiss). `tune` must not
/// look up this cache.
class BlockScheduleCache {
 public:
  core::CpuSpmmSchedule schedule_for(
      std::int64_t rows, std::int64_t nnz, std::int64_t feat_width,
      int num_threads, std::uint64_t program_hash,
      const std::function<core::CpuSpmmSchedule()>& tune);

  std::int64_t hits() const;
  std::int64_t misses() const;
  void reset_stats();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, core::CpuSpmmSchedule> cache_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace featgraph::sample
