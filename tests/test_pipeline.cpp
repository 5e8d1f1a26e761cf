// Batch-parallel serving-loop behavior: every batch consumed exactly once
// (serial runs in index order), lane-count vs serial equivalence (the "same
// seed => same blocks at 1 vs N lanes" determinism pin, and bit-identical
// inference at every lane count), lane exceptions, the shape-class
// schedule cache's hit-rate contract, and tuned block schedules.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/schedule_ir.hpp"
#include "core/tuner.hpp"
#include "graph/generators.hpp"
#include "minidgl/train.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "sample/feature_loader.hpp"
#include "sample/neighbor_sampler.hpp"
#include "sample/pipeline.hpp"

namespace fg = featgraph;
using fg::graph::Csr;
using fg::graph::vid_t;
using fg::sample::BlockScheduleCache;
using fg::sample::NeighborSampler;
using fg::sample::PipelineOptions;
using fg::sample::PreparedBatch;
using fg::tensor::Tensor;

namespace {

Csr rmat_csr(vid_t n, double avg_degree, std::uint64_t seed) {
  return fg::graph::coo_to_in_csr(fg::graph::gen_rmat(n, avg_degree, seed));
}

std::vector<vid_t> all_vertices(const Csr& csr) {
  std::vector<vid_t> v(static_cast<std::size_t>(csr.num_rows));
  for (vid_t i = 0; i < csr.num_rows; ++i)
    v[static_cast<std::size_t>(i)] = i;
  return v;
}

/// Everything a consumer observes from one batch, for run-vs-run equality.
struct SeenBatch {
  std::int64_t index;
  std::vector<vid_t> seeds;
  std::vector<vid_t> input_nodes;
  std::vector<std::int64_t> indptr0;
  std::vector<vid_t> indices0;
  std::vector<float> feats;

  bool operator==(const SeenBatch& o) const {
    return index == o.index && seeds == o.seeds &&
           input_nodes == o.input_nodes && indptr0 == o.indptr0 &&
           indices0 == o.indices0 && feats == o.feats;
  }
};

/// Runs the loop and returns what the consumer saw, one entry per batch in
/// index order whatever order the lanes consumed them in; `order` (if set)
/// receives the consumption order.
std::vector<SeenBatch> drive(const NeighborSampler& sampler,
                             const Tensor& features,
                             const std::vector<vid_t>& seeds,
                             const PipelineOptions& opts,
                             fg::sample::PipelineStats* stats_out = nullptr,
                             std::vector<std::int64_t>* order = nullptr) {
  std::mutex mutex;
  std::map<std::int64_t, SeenBatch> seen;
  std::vector<std::int64_t> consumed;
  const auto stats = fg::sample::run_pipeline(
      sampler, features, seeds, opts, [&](PreparedBatch& b) {
        SeenBatch s;
        s.index = b.index;
        s.seeds = b.seeds;
        s.input_nodes = b.blocks.input_nodes();
        s.indptr0 = b.blocks.blocks[0].adj.indptr;
        s.indices0 = b.blocks.blocks[0].adj.indices;
        s.feats.assign(b.input_feats.data(),
                       b.input_feats.data() + b.input_feats.numel());
        std::lock_guard<std::mutex> lock(mutex);
        consumed.push_back(b.index);
        EXPECT_TRUE(seen.emplace(b.index, std::move(s)).second)
            << "batch " << b.index << " consumed twice";
      });
  if (stats_out != nullptr) *stats_out = stats;
  if (order != nullptr) *order = consumed;
  std::vector<SeenBatch> out;
  for (auto& entry : seen) out.push_back(std::move(entry.second));
  return out;
}

}  // namespace

TEST(Pipeline, ProcessesAllBatchesInOrderAndCoversAllSeeds) {
  const Csr csr = rmat_csr(512, 8.0, 2);
  const Tensor x = Tensor::randn({csr.num_cols, 8}, 5);
  NeighborSampler sampler(csr, {{4, 4}, false, 11});
  const auto seeds = all_vertices(csr);
  for (const bool pipelined : {false, true}) {
    PipelineOptions opts;
    opts.batch_size = 100;  // 512 seeds -> 6 batches, last partial
    opts.pipelined = pipelined;
    opts.num_threads = 4;
    fg::sample::PipelineStats stats;
    std::vector<std::int64_t> order;
    const auto seen = drive(sampler, x, seeds, opts, &stats, &order);
    ASSERT_EQ(seen.size(), 6u);  // every index exactly once
    EXPECT_EQ(stats.batches, 6);
    std::vector<vid_t> covered;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].index, static_cast<std::int64_t>(i));
      covered.insert(covered.end(), seen[i].seeds.begin(),
                     seen[i].seeds.end());
    }
    EXPECT_EQ(covered, seeds);  // exact coverage, original order
    EXPECT_EQ(seen.back().seeds.size(), 12u);  // 512 - 5 * 100
    if (!pipelined) {
      // The serial loop consumes in increasing index order.
      EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
      EXPECT_FALSE(stats.overlapped);
    }
  }
}

TEST(Pipeline, DeterministicAcrossPipelineThreads) {
  // Same sampler seed => identical sampled blocks and gathered features
  // whether the loop runs serially (one thread) or on 2..8 batch lanes —
  // the 1-vs-N determinism pin.
  const Csr csr = rmat_csr(1024, 10.0, 7);
  const Tensor x = Tensor::randn({csr.num_cols, 12}, 9);
  NeighborSampler sampler(csr, {{3, 5}, false, 123});
  const auto seeds = all_vertices(csr);
  PipelineOptions serial;
  serial.batch_size = 128;
  serial.pipelined = false;
  const auto a = drive(sampler, x, seeds, serial);
  ASSERT_EQ(a.size(), 8u);
  for (const int lanes : {2, 3, 4, 8}) {
    PipelineOptions pipelined = serial;
    pipelined.pipelined = true;
    pipelined.num_threads = lanes;
    const auto b = drive(sampler, x, seeds, pipelined);
    ASSERT_EQ(a.size(), b.size()) << lanes << " lanes";
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_TRUE(a[i] == b[i]) << "batch " << i << ", " << lanes << " lanes";
  }
}

TEST(Pipeline, ConsumeExceptionReachesTheCallerAndTheNextRunWorks) {
  // A consumer that throws on batch k must neither kill the process (a
  // worker lane) nor wedge the pool (the caller's lane): run_pipeline
  // rethrows on the caller and the next run serves every batch.
  const Csr csr = rmat_csr(512, 6.0, 12);
  const Tensor x = Tensor::randn({csr.num_cols, 4}, 3);
  NeighborSampler sampler(csr, {{2}, false, 5});
  const auto seeds = all_vertices(csr);
  constexpr std::int64_t kBad = 3;
  for (const bool pipelined : {false, true}) {
    PipelineOptions opts;
    opts.batch_size = 32;  // 16 batches
    opts.pipelined = pipelined;
    opts.num_threads = 4;
    std::mutex mutex;
    std::vector<std::int64_t> consumed;
    EXPECT_THROW(
        fg::sample::run_pipeline(sampler, x, seeds, opts,
                                 [&](PreparedBatch& b) {
                                   if (b.index == kBad)
                                     throw std::runtime_error("bad batch");
                                   std::lock_guard<std::mutex> lock(mutex);
                                   consumed.push_back(b.index);
                                 }),
        std::runtime_error)
        << (pipelined ? "pipelined" : "serial");
    if (!pipelined) {
      // The serial loop stops at the throwing batch.
      EXPECT_EQ(consumed, (std::vector<std::int64_t>{0, 1, 2}));
    }
    const auto seen = drive(sampler, x, seeds, opts);
    EXPECT_EQ(seen.size(), 16u) << (pipelined ? "pipelined" : "serial");
  }
}

TEST(Pipeline, SerialFallbackInsideAnActiveLaunch) {
  // run_pipeline from inside a pool launch must not deadlock: its lanes
  // run inline, one after another, on the calling lane.
  const Csr csr = rmat_csr(256, 6.0, 8);
  const Tensor x = Tensor::randn({csr.num_cols, 4}, 2);
  NeighborSampler sampler(csr, {{2}, false, 5});
  const auto seeds = all_vertices(csr);
  fg::parallel::ThreadPool::global().launch(2, [&](int tid, int) {
    if (tid != 0) return;
    PipelineOptions opts;
    opts.batch_size = 64;
    opts.pipelined = true;
    opts.num_threads = 4;
    fg::sample::PipelineStats stats;
    const auto seen = drive(sampler, x, seeds, opts, &stats);
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_FALSE(stats.overlapped);
  });
}

TEST(Pipeline, BlockScheduleCacheKeysOnShapeClass) {
  BlockScheduleCache cache;
  int tunes = 0;
  const auto tiled = fg::core::spmm_schedule(fg::core::ScheduleIr().tile(32));
  const auto tune = [&] {
    ++tunes;
    return tiled;
  };
  // Same log2 buckets -> one tune, then hits. Program hash 0 = no IR.
  EXPECT_EQ(cache.schedule_for(1000, 8000, 64, 2, 0, tune).ir, tiled.ir);
  EXPECT_EQ(cache.schedule_for(1023, 8191, 64, 2, 0, tune).ir, tiled.ir);
  EXPECT_EQ(cache.schedule_for(513, 4100, 64, 2, 0, tune).ir, tiled.ir);
  EXPECT_EQ(tunes, 1);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 1);
  // A different feature width or thread count is a new class.
  cache.schedule_for(1000, 8000, 32, 2, 0, tune);
  cache.schedule_for(1000, 8000, 64, 4, 0, tune);
  EXPECT_EQ(tunes, 3);
  // A different size magnitude is a new class.
  cache.schedule_for(100, 400, 64, 2, 0, tune);
  EXPECT_EQ(tunes, 4);
}

TEST(Pipeline, CachedBlockScheduleNeverPartitionsAtScale) {
  // The block-cache partition rule past one partition: a full-fanout block
  // over 60k sources x 64 features (15.4 MB of source rows, past the
  // heuristic's 12.5 MB budget) makes the heuristic pick partition(2).
  // Served through the schedule cache, the partition transform is dropped,
  // so the block launch stays memcmp-equal to the unpartitioned full-graph
  // launch; a partitioned fold would regroup each row's edges by source
  // bucket.
  constexpr vid_t kN = 60000;
  constexpr std::int64_t kD = 64;
  const Csr csr = fg::graph::coo_to_in_csr(fg::graph::gen_uniform(kN, 8.0, 91));
  const Tensor x = Tensor::randn({kN, kD}, 92);
  std::vector<vid_t> all(static_cast<std::size_t>(kN));
  for (vid_t v = 0; v < kN; ++v) all[static_cast<std::size_t>(v)] = v;
  NeighborSampler sampler(csr, {{-1}, false, 1});
  const auto mfg = sampler.sample(all, 0);
  const fg::sample::Block& block = mfg.blocks[0];
  ASSERT_GE(block.adj.num_cols, 52000);
  ASSERT_EQ(fg::core::schedule_num_partitions(
                fg::core::heuristic_spmm_schedule(block.adj, kD, 2)),
            2);
  const Tensor gathered = fg::sample::gather_rows(x, block.src_nodes);
  for (const char* reduce : {"sum", "mean"}) {
    BlockScheduleCache cache;
    fg::minidgl::ExecContext ctx;
    ctx.num_threads = 2;
    ctx.schedule_cache = &cache;
    const Tensor got =
        fg::minidgl::block_spmm_copy_u(
            ctx, block, fg::minidgl::make_leaf(gathered, false, "x"), reduce)
            ->value();
    const Tensor want =
        fg::core::spmm(csr, "copy_u", reduce, fg::core::CpuSpmmSchedule{},
                       {&x, nullptr, nullptr});
    EXPECT_EQ(cache.misses(), 1) << reduce;
    ASSERT_EQ(got.numel(), want.numel()) << reduce;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(got.numel()) *
                              sizeof(float)),
              0)
        << reduce;
  }
}

TEST(Pipeline, ScheduleCacheSeparatesProgramsWithinOneShapeClass) {
  // Two different Schedule-IR programs over the SAME (rows, nnz, width,
  // threads) class must not alias: the program hash is part of the key.
  BlockScheduleCache cache;
  int tunes = 0;
  const auto tune = [&] {
    ++tunes;
    return fg::core::CpuSpmmSchedule{};
  };
  fg::core::CpuSpmmSchedule empty;  // empty program
  fg::core::CpuSpmmSchedule blocked;
  blocked.ir = std::make_shared<const fg::core::ScheduleIr>(
      fg::core::ScheduleIr().tile(16).unroll(4));
  const std::uint64_t h_empty = fg::core::schedule_program_hash(empty);
  const std::uint64_t h_blocked = fg::core::schedule_program_hash(blocked);
  ASSERT_NE(h_empty, h_blocked);

  cache.schedule_for(1000, 8000, 64, 2, h_empty, tune);
  cache.schedule_for(1000, 8000, 64, 2, h_blocked, tune);
  EXPECT_EQ(tunes, 2);  // one geometric class, two programs -> two misses
  EXPECT_EQ(cache.misses(), 2);
  // Each program then hits its own entry.
  cache.schedule_for(1010, 8100, 64, 2, h_empty, tune);
  cache.schedule_for(1010, 8100, 64, 2, h_blocked, tune);
  EXPECT_EQ(tunes, 2);
  EXPECT_EQ(cache.hits(), 2);
}

TEST(Pipeline, ConcurrentTunersKeepFirstScheduleAndOneMiss) {
  // The lost-race pin (ISSUE 7): N threads miss the same fresh class at
  // once and tune DIFFERENT schedules. The first inserter must win — every
  // caller gets the same schedule back (no overwrite of a schedule already
  // handed out) and the class counts exactly one miss, not N.
  for (int round = 0; round < 20; ++round) {
    BlockScheduleCache cache;
    constexpr int kThreads = 8;
    std::vector<fg::core::CpuSpmmSchedule> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &got, t] {
        got[static_cast<std::size_t>(t)] =
            cache.schedule_for(1000, 8000, 64, 2, 0, [t] {
              // Every racer tunes a distinct result.
              return fg::core::spmm_schedule(
                  fg::core::ScheduleIr().tile(std::int64_t{8} << t));
            });
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(cache.misses(), 1) << "round " << round;
    EXPECT_EQ(cache.hits() + cache.misses(), kThreads) << "round " << round;
    for (int t = 1; t < kThreads; ++t)
      EXPECT_EQ(got[static_cast<std::size_t>(t)].ir, got[0].ir)
          << "round " << round << ": racer " << t
          << " saw a different schedule than the first inserter's";
    // The winner's schedule stays: a later lookup still returns it.
    EXPECT_EQ(cache.schedule_for(1000, 8000, 64, 2, 0,
                                 [] { return fg::core::CpuSpmmSchedule{}; })
                  .ir,
              got[0].ir);
  }
}

TEST(Pipeline, ScheduleCacheKeyCollisionRegressions) {
  // Key-aliasing pins (ISSUE 7). Zero gets its own log2 bucket: an empty
  // block (0 rows / 0 nnz) must not share a class with a 1-row/1-nnz block.
  BlockScheduleCache cache;
  int tunes = 0;
  const auto tune = [&] {
    ++tunes;
    return fg::core::CpuSpmmSchedule{};
  };
  cache.schedule_for(0, 0, 64, 2, 0, tune);
  cache.schedule_for(1, 1, 64, 2, 0, tune);
  EXPECT_EQ(tunes, 2) << "rows/nnz 0 aliased with 1";

  // Full-width field mixing: a feat_width past 2^32 must not clobber the
  // other packed key fields and collide with a small width.
  cache.schedule_for(1000, 8000, (1ll << 32) + 64, 2, 0, tune);
  cache.schedule_for(1000, 8000, 64, 2, 0, tune);
  EXPECT_EQ(tunes, 4) << "feat_width 2^32+64 aliased with 64";
  EXPECT_EQ(cache.misses(), 4);
}

TEST(Pipeline, ScheduleCacheHitsDominateAfterWarmup) {
  // The acceptance pin: after a warmup epoch, the schedule cache serves
  // > 50% hits — the tuner is consulted once per shape class, not per batch.
  const auto data = fg::minidgl::make_sbm_classification(
      /*n=*/800, /*avg_degree=*/10.0, /*num_classes=*/4, /*p_in=*/0.9,
      /*feat_dim=*/16, /*signal=*/2.0f, /*seed=*/3);
  fg::minidgl::ExecContext ctx;
  ctx.num_threads = 1;
  fg::minidgl::Trainer trainer(
      data, fg::minidgl::Model("sage-mean", 16, 24, 4, 1), ctx, 0.05f);
  fg::minidgl::MinibatchInferOptions opts;
  opts.sampler.fanouts = {5, 5};
  opts.batch_size = 64;
  std::vector<std::int64_t> rows(800);
  for (std::size_t i = 0; i < rows.size(); ++i)
    rows[i] = static_cast<std::int64_t>(i);
  const auto r = trainer.infer_minibatch(opts, rows);
  EXPECT_GT(r.pipeline.batches, 4);
  ASSERT_GT(r.schedule_cache_hits + r.schedule_cache_misses, 0);
  EXPECT_GT(r.schedule_cache_hits, r.schedule_cache_misses);
}

TEST(Pipeline, SampledInferenceIsDeterministicAndLearnsTheTask) {
  // Sampled (non-full) fanouts: two runs with the same seed agree bitwise;
  // accuracy on the trained model stays in the same ballpark as full-graph.
  const auto data = fg::minidgl::make_sbm_classification(
      600, 10.0, 4, 0.9, 16, 2.0f, 77);
  fg::minidgl::ExecContext ctx;
  ctx.num_threads = 2;
  fg::minidgl::Trainer trainer(
      data, fg::minidgl::Model("gcn", 16, 32, 4, 1), ctx, 0.05f);
  for (int e = 0; e < 15; ++e) trainer.train_epoch();
  const double full_acc = trainer.test_accuracy();

  fg::minidgl::MinibatchInferOptions opts;
  opts.sampler.fanouts = {6, 6};
  opts.sampler.seed = 9;
  opts.batch_size = 64;
  const auto a = trainer.infer_minibatch(opts);
  const auto b = trainer.infer_minibatch(opts);
  ASSERT_EQ(a.log_probs.numel(), b.log_probs.numel());
  EXPECT_EQ(std::memcmp(a.log_probs.data(), b.log_probs.data(),
                        static_cast<std::size_t>(a.log_probs.numel()) *
                            sizeof(float)),
            0);
  EXPECT_GT(full_acc, 0.85);
  EXPECT_GT(a.accuracy, 0.75);
}

TEST(Pipeline, PipelinedInferenceMatchesSerialAtEveryLaneCount) {
  // The lane-count oracle: batch-parallel minibatch inference on 1..8 lanes
  // is memcmp-equal to the serial loop, with the same accounting — each
  // batch writes fixed output rows and the per-batch contexts merge in
  // index order. The gpusim leg makes the merged sim_seconds (the epoch's
  // reported seconds) part of the comparison.
  const auto data = fg::minidgl::make_sbm_classification(
      600, 10.0, 4, 0.9, 16, 2.0f, 77);
  std::vector<std::int64_t> rows(600);
  for (std::size_t i = 0; i < rows.size(); ++i)
    rows[i] = static_cast<std::int64_t>(i);
  struct Case {
    const char* kind;
    fg::minidgl::Device device;
  };
  for (const Case c : {Case{"gcn", fg::minidgl::Device::kCpu},
                       Case{"sage-mean", fg::minidgl::Device::kCpu},
                       Case{"sage-max", fg::minidgl::Device::kCpu},
                       Case{"sage-mean", fg::minidgl::Device::kGpuSim}}) {
    fg::minidgl::ExecContext ctx;
    ctx.num_threads = 2;
    ctx.device = c.device;
    fg::minidgl::Trainer trainer(
        data, fg::minidgl::Model(c.kind, 16, 24, 4, /*seed=*/42), ctx, 0.05f);
    trainer.train_epoch();

    fg::minidgl::MinibatchInferOptions opts;
    opts.sampler.fanouts = {5, 5};
    opts.sampler.seed = 3;
    opts.batch_size = 64;  // 10 batches, the last one partial
    opts.pipelined = false;
    const auto serial = trainer.infer_minibatch(opts, rows);
    const double serial_materialized = trainer.context().materialized_bytes;
    ASSERT_GT(serial.peak_bytes, 0.0);

    opts.pipelined = true;
    for (const int lanes : {1, 2, 3, 4, 8}) {
      trainer.context().num_threads = lanes;
      const auto piped = trainer.infer_minibatch(opts, rows);
      const std::string where = std::string(c.kind) + " on " +
                                std::to_string(lanes) + " lanes" +
                                (c.device == fg::minidgl::Device::kGpuSim
                                     ? " (gpusim)"
                                     : "");
      ASSERT_EQ(piped.log_probs.numel(), serial.log_probs.numel()) << where;
      EXPECT_EQ(std::memcmp(piped.log_probs.data(), serial.log_probs.data(),
                            static_cast<std::size_t>(serial.log_probs.numel()) *
                                sizeof(float)),
                0)
          << where;
      EXPECT_EQ(piped.pipeline.batches, 10) << where;
      EXPECT_EQ(piped.peak_bytes, serial.peak_bytes) << where;
      EXPECT_EQ(trainer.context().materialized_bytes, serial_materialized)
          << where;
      EXPECT_EQ(piped.accuracy, serial.accuracy) << where;
      if (c.device == fg::minidgl::Device::kGpuSim) {
        EXPECT_EQ(piped.seconds, serial.seconds) << where;
      }
    }
  }
}

TEST(Pipeline, TunedBlockSchedulesMatchTheHeuristicBitForBit) {
  // The tuner's library caller: with tune_schedules the first block of each
  // shape class is grid-tuned over the paper space (partitions dropped)
  // instead of taking the heuristic. Programs do not change summation
  // order, so minibatch inference and serving write the same bytes either
  // way and see the same shape classes, and each class is tuned exactly
  // once, also when batch lanes miss one class at the same time.
  const auto data = fg::minidgl::make_sbm_classification(
      400, 8.0, 4, 0.9, 16, 2.0f, 5);
  std::vector<std::int64_t> rows(400);
  for (std::size_t i = 0; i < rows.size(); ++i)
    rows[i] = static_cast<std::int64_t>(i);
  std::vector<std::vector<std::int64_t>> requests;
  for (std::int64_t r = 0; r < 16; ++r) {
    std::vector<std::int64_t> seeds;
    for (std::int64_t k = 0; k < 12; ++k)
      seeds.push_back((r * 37 + k * 11) % 400);
    requests.push_back(std::move(seeds));
  }
  const auto tunes = [] {
    return fg::obs::Registry::global().counter("tuner.tune.count").value();
  };
  const auto bytes_equal = [](const Tensor& a, const Tensor& b) {
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
               0;
  };
  for (const int lanes : {1, 4}) {
    fg::minidgl::ExecContext ctx;
    ctx.num_threads = lanes;
    fg::minidgl::Trainer trainer(
        data, fg::minidgl::Model("sage-mean", 16, 24, 4, /*seed=*/42), ctx,
        0.05f);
    const std::string where = std::to_string(lanes) + " lanes";

    fg::minidgl::MinibatchInferOptions opts;
    opts.sampler.fanouts = {4, 4};
    opts.batch_size = 50;
    const auto heuristic = trainer.infer_minibatch(opts, rows);
    opts.tune_schedules = true;
    const std::int64_t infer_tunes0 = tunes();
    const auto tuned = trainer.infer_minibatch(opts, rows);
    EXPECT_TRUE(bytes_equal(tuned.log_probs, heuristic.log_probs)) << where;
    ASSERT_GT(tuned.schedule_cache_misses, 0) << where;
    EXPECT_EQ(tuned.schedule_cache_misses, heuristic.schedule_cache_misses)
        << where;
    EXPECT_EQ(tunes() - infer_tunes0, tuned.schedule_cache_misses) << where;

    fg::minidgl::ServeRequestsOptions sopts;
    sopts.sampler.fanouts = {4, 4};
    sopts.admission.max_requests_per_batch = 4;
    const auto served = trainer.serve_requests(sopts, requests);
    sopts.tune_schedules = true;
    const std::int64_t serve_tunes0 = tunes();
    const auto served_tuned = trainer.serve_requests(sopts, requests);
    ASSERT_EQ(served_tuned.outputs.size(), served.outputs.size()) << where;
    for (std::size_t r = 0; r < served.outputs.size(); ++r)
      EXPECT_TRUE(bytes_equal(served_tuned.outputs[r], served.outputs[r]))
          << where << ", request " << r;
    ASSERT_GT(served_tuned.schedule_cache_misses, 0) << where;
    EXPECT_EQ(served_tuned.schedule_cache_misses, served.schedule_cache_misses)
        << where;
    EXPECT_EQ(tunes() - serve_tunes0, served_tuned.schedule_cache_misses)
        << where;
  }
}
