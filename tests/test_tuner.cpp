#include <gtest/gtest.h>

#include "core/schedule_ir.hpp"
#include "core/smart_tuner.hpp"
#include "core/tuner.hpp"
#include "graph/generators.hpp"
#include "grid_schedule.hpp"
#include "obs/metrics.hpp"

namespace fg = featgraph;
using fg::core::CpuSpmmSchedule;
using fg::graph::Csr;
using fg::testing::grid_schedule;
using fg::tensor::Tensor;

namespace {

struct Fixture {
  fg::graph::Coo coo = fg::graph::gen_uniform(800, 16.0, 1000);
  Csr in_csr = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::randn({800, 32}, 1001);
};

/// The lowered loop-nest decisions of `s` for a `d_out`-wide launch.
fg::core::LoweredSpmmPlan plan_of(const CpuSpmmSchedule& s,
                                  std::int64_t d_out) {
  return fg::core::lower_spmm_schedule(s, 1 << 20, d_out,
                                       fg::simd::active_isa());
}

std::uint64_t program_of(const CpuSpmmSchedule& s) {
  return fg::core::schedule_program_hash(s);
}

std::int64_t counter(const char* name) {
  return fg::obs::Registry::global().counter(name).value();
}

}  // namespace

TEST(Tuner, DefaultGridCoversPartitionTileAndBalanceAxes) {
  const auto grid = fg::core::default_spmm_candidates(128, 2);
  EXPECT_GE(grid.size(), 20u);
  bool has_unpartitioned = false, has_partitioned = false;
  bool has_untiled = false, has_tiled = false;
  bool has_static = false, has_nnz = false;
  for (const auto& s : grid) {
    const auto p = plan_of(s, 128);
    has_unpartitioned |= p.num_partitions == 1;
    has_partitioned |= p.num_partitions > 1;
    has_untiled |= p.feat_tile == 0;
    has_tiled |= p.feat_tile > 0;
    has_static |= p.load_balance == fg::core::LoadBalance::kStaticRows;
    has_nnz |= p.load_balance == fg::core::LoadBalance::kNnzBalanced;
    EXPECT_EQ(s.num_threads, 2);
    EXPECT_LE(p.feat_tile, 128);
  }
  EXPECT_TRUE(has_unpartitioned && has_partitioned && has_untiled && has_tiled);
  EXPECT_TRUE(has_static && has_nnz);
}

TEST(Tuner, SingleThreadGridSkipsRedundantBalanceAxis) {
  // At one thread both row-split policies run the identical sweep; the grid
  // should not double itself for nothing.
  for (const auto& s : fg::core::default_spmm_candidates(128, 1))
    EXPECT_EQ(plan_of(s, 128).load_balance,
              fg::core::LoadBalance::kNnzBalanced);
}

TEST(Tuner, GridRespectsSmallFeatureLengths) {
  for (const auto& s : fg::core::default_spmm_candidates(8, 1))
    EXPECT_LE(plan_of(s, 8).feat_tile, 8);
}

TEST(Tuner, ReturnsBestTrial) {
  Fixture f;
  const std::vector<CpuSpmmSchedule> cands = {grid_schedule(1, 0),
                                              grid_schedule(4, 0)};
  const auto result = fg::core::tune_spmm(f.in_csr, "copy_u", "sum",
                                          {&f.x, nullptr, nullptr}, cands);
  ASSERT_EQ(result.trials.size(), 2u);
  double best = std::min(result.trials[0].seconds, result.trials[1].seconds);
  EXPECT_DOUBLE_EQ(result.best_seconds, best);
  EXPECT_GT(result.best_seconds, 0.0);
}

TEST(Tuner, CachedScheduleIsStable) {
  Fixture f;
  const auto s1 = fg::core::tuned_spmm_schedule(f.in_csr, "copy_u", "sum",
                                                {&f.x, nullptr, nullptr}, 1);
  const auto s2 = fg::core::tuned_spmm_schedule(f.in_csr, "copy_u", "sum",
                                                {&f.x, nullptr, nullptr}, 1);
  EXPECT_EQ(program_of(s1), program_of(s2));
  EXPECT_EQ(s1.num_threads, 1);
}

TEST(Tuner, HeuristicPartitionsGrowWithGraphSize) {
  Fixture f;
  // Tiny source set: one partition suffices.
  const auto small = fg::core::heuristic_spmm_schedule(f.in_csr, 64, 1);
  EXPECT_EQ(fg::core::schedule_num_partitions(small), 1);

  // Fake a huge column count by constructing a wide CSR header.
  Csr wide;
  wide.num_rows = 10;
  wide.num_cols = 4 * 1000 * 1000;
  wide.indptr.assign(11, 0);
  const auto big = fg::core::heuristic_spmm_schedule(wide, 512, 1);
  EXPECT_GT(fg::core::schedule_num_partitions(big), 1);
}

TEST(Tuner, AttentionAxisTunesOverTheSameGrid) {
  // The fused attention kernel joins the grid tuner: every trial runs the
  // real kernel, the winner is the fastest trial, and the cached schedule is
  // stable across queries (keyed separately from the plain SpMM entries).
  Fixture f;
  fg::core::AttentionOperands ops;
  ops.src_feat = &f.x;
  const std::vector<CpuSpmmSchedule> cands = {grid_schedule(1, 0),
                                              grid_schedule(4, 0)};
  const auto result = fg::core::tune_attention(f.in_csr, "copy_u", ops, cands);
  ASSERT_EQ(result.trials.size(), 2u);
  EXPECT_DOUBLE_EQ(
      result.best_seconds,
      std::min(result.trials[0].seconds, result.trials[1].seconds));
  EXPECT_GT(result.best_seconds, 0.0);

  const auto s1 = fg::core::tuned_attention_schedule(f.in_csr, "copy_u", ops, 1);
  const auto s2 = fg::core::tuned_attention_schedule(f.in_csr, "copy_u", ops, 1);
  EXPECT_EQ(program_of(s1), program_of(s2));
  EXPECT_EQ(s1.num_threads, 1);
}

TEST(Tuner, SmartTunerClimbsTheAttentionAxis) {
  // The budgeted hill climber is kernel-agnostic through MeasureFn;
  // attention_measure_fn plugs the fused kernel in. The search must respect
  // its budget and return a measured (finite, positive) winner.
  Fixture f;
  fg::core::AttentionOperands ops;
  ops.src_feat = &f.x;
  const auto measure = fg::core::attention_measure_fn(f.in_csr, "copy_u", ops);
  fg::core::SmartTuneOptions opts;
  opts.max_trials = 6;
  const auto result = fg::core::smart_tune_spmm(f.x.row_size(), 1, measure, opts);
  EXPECT_LE(result.trials_used, 6);
  EXPECT_GE(result.trials_used, 1);
  EXPECT_GT(result.best_seconds, 0.0);
  EXPECT_GE(fg::core::schedule_num_partitions(result.best), 1);
}

TEST(Tuner, TransfersAcrossFeatureLengthByCacheKey) {
  // Different feature lengths tune independently (Fig. 14: optimal feature
  // partitions scale with feature length).
  Fixture f;
  Tensor x64 = Tensor::randn({800, 64}, 1002);
  const auto a = fg::core::tuned_spmm_schedule(f.in_csr, "copy_u", "sum",
                                               {&f.x, nullptr, nullptr}, 1);
  const auto b = fg::core::tuned_spmm_schedule(f.in_csr, "copy_u", "sum",
                                               {&x64, nullptr, nullptr}, 1);
  // Keys differ, so both entries exist; re-querying returns each unchanged.
  const auto a2 = fg::core::tuned_spmm_schedule(f.in_csr, "copy_u", "sum",
                                                {&f.x, nullptr, nullptr}, 1);
  EXPECT_EQ(program_of(a), program_of(a2));
  (void)b;
}

TEST(Tuner, CopyETuningKeysOnEdgeFeatureWidth) {
  // copy_e has no source feature: the cache resolves d_out from the edge
  // feature width, as spmm() dispatches it. One tune per distinct width.
  Fixture f;
  const fg::graph::eid_t nnz = f.in_csr.nnz();
  const Tensor e1 = Tensor::randn({nnz}, 1003);
  const Tensor e4 = Tensor::randn({nnz, 4}, 1004);
  const std::int64_t tunes0 = counter("tuner.tune.count");
  const auto s1 = fg::core::tuned_spmm_schedule(
      f.in_csr, "copy_e", "sum", {nullptr, &e1, nullptr}, 1);
  EXPECT_EQ(s1.num_threads, 1);
  EXPECT_EQ(counter("tuner.tune.count") - tunes0, 1);
  const Tensor out = fg::core::spmm(f.in_csr, "copy_e", "sum", s1,
                                    {nullptr, &e1, nullptr});
  EXPECT_EQ(out.row_size(), 1);
  // Same width: served from the cache.
  (void)fg::core::tuned_spmm_schedule(f.in_csr, "copy_e", "sum",
                                      {nullptr, &e1, nullptr}, 1);
  EXPECT_EQ(counter("tuner.tune.count") - tunes0, 1);
  // A second edge width is a new key and re-tunes.
  (void)fg::core::tuned_spmm_schedule(f.in_csr, "copy_e", "sum",
                                      {nullptr, &e4, nullptr}, 1);
  EXPECT_EQ(counter("tuner.tune.count") - tunes0, 2);
}

TEST(Tuner, GpuAttentionCopyEKeysOnEdgeFeatureWidthAndCountsTrials) {
  // The gpusim attention cache resolves copy_e's width from the edge
  // feature, so two edge widths never share one entry, and its grid search
  // reports tunes and trials like the CPU tuners.
  Fixture f;
  const fg::graph::eid_t nnz = f.in_csr.nnz();
  const Tensor e1 = Tensor::randn({nnz}, 1005);
  const Tensor e4 = Tensor::randn({nnz, 4}, 1006);
  fg::core::AttentionOperands ops;
  ops.src_feat = &f.x;  // dot-product logits
  ops.edge_feat = &e1;
  const std::int64_t tunes0 = counter("tuner.tune.count");
  const std::int64_t trials0 = counter("tuner.trial.count");
  (void)fg::core::tuned_gpu_attention_schedule(f.in_csr, "copy_e", ops);
  EXPECT_EQ(counter("tuner.tune.count") - tunes0, 1);
  EXPECT_EQ(counter("tuner.trial.count") - trials0,
            static_cast<std::int64_t>(
                fg::core::default_gpu_attention_candidates().size()));
  (void)fg::core::tuned_gpu_attention_schedule(f.in_csr, "copy_e", ops);
  EXPECT_EQ(counter("tuner.tune.count") - tunes0, 1);
  ops.edge_feat = &e4;
  (void)fg::core::tuned_gpu_attention_schedule(f.in_csr, "copy_e", ops);
  EXPECT_EQ(counter("tuner.tune.count") - tunes0, 2);
}
