#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/schedule_ir.hpp"
#include "core/tuner.hpp"
#include "graph/generators.hpp"
#include "grid_schedule.hpp"
#include "obs/metrics.hpp"

namespace fg = featgraph;
using fg::core::CpuSpmmSchedule;
using fg::graph::Csr;
using fg::testing::grid_points;
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

std::int64_t counter(const char* name) {
  return fg::obs::Registry::global().counter(name).value();
}

}  // namespace

TEST(Tuner, DefaultGridCoversPartitionTileAndBalanceAxes) {
  const auto grid = grid_points(fg::core::paper_spmm_space(128, 2));
  EXPECT_EQ(grid.size(), 60u);  // 6 partitions x 5 tiles x 2 policies
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
  for (const auto& s : grid_points(fg::core::paper_spmm_space(128, 1)))
    EXPECT_EQ(plan_of(s, 128).load_balance,
              fg::core::LoadBalance::kNnzBalanced);
}

TEST(Tuner, GridRespectsSmallFeatureLengths) {
  for (const auto& s : grid_points(fg::core::paper_spmm_space(8, 1)))
    EXPECT_LE(plan_of(s, 8).feat_tile, 8);
}

TEST(Tuner, ReturnsBestTrial) {
  Fixture f;
  const auto result = fg::core::tune(
      fg::core::list_space(std::vector<CpuSpmmSchedule>{grid_schedule(1, 0),
                                                        grid_schedule(4, 0)}),
      fg::core::spmm_measure(f.in_csr, "copy_u", "sum",
                             {&f.x, nullptr, nullptr}));
  ASSERT_EQ(result.trials.size(), 2u);
  double best = std::min(result.trials[0].seconds, result.trials[1].seconds);
  EXPECT_DOUBLE_EQ(result.best_seconds, best);
  EXPECT_GT(result.best_seconds, 0.0);
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
  // The fused attention kernel pairs a CPU space with attention_measure:
  // every trial runs the real kernel and the winner is the fastest trial.
  Fixture f;
  fg::core::AttentionOperands ops;
  ops.src_feat = &f.x;
  const auto result = fg::core::tune(
      fg::core::list_space(std::vector<CpuSpmmSchedule>{grid_schedule(1, 0),
                                                        grid_schedule(4, 0)}),
      fg::core::attention_measure(f.in_csr, "copy_u", ops));
  ASSERT_EQ(result.trials.size(), 2u);
  EXPECT_DOUBLE_EQ(
      result.best_seconds,
      std::min(result.trials[0].seconds, result.trials[1].seconds));
  EXPECT_GT(result.best_seconds, 0.0);
}

TEST(Tuner, SmartTunerClimbsTheAttentionAxis) {
  // Hill climbing is kernel-agnostic through the measure; attention_measure
  // plugs the fused kernel in. The search must respect its budget and
  // return a measured (finite, positive) winner.
  Fixture f;
  fg::core::AttentionOperands ops;
  ops.src_feat = &f.x;
  fg::core::TuneOptions opts;
  opts.strategy = fg::core::TuneStrategy::kHillClimb;
  opts.max_trials = 6;
  const auto result = fg::core::tune(
      fg::core::paper_spmm_space(f.x.row_size(), 1),
      fg::core::attention_measure(f.in_csr, "copy_u", ops), opts);
  EXPECT_LE(result.trials.size(), 6u);
  EXPECT_GE(result.trials.size(), 1u);
  EXPECT_GT(result.best_seconds, 0.0);
  EXPECT_GE(fg::core::schedule_num_partitions(result.best), 1);
}

TEST(Tuner, EveryStrategyAndSpaceCountsOneTuneAndEachTrial) {
  // One instrumentation site: each tune() call, grid or hill climb, on any
  // space, adds one tuner.tune and one tuner.trial per measurement. A grid
  // measures every point exactly once.
  const auto bumpy = [](std::uint64_t& state) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return 1.0 + static_cast<double>(state >> 40);
  };
  const auto check = [&](const auto& space, const char* name) {
    using S = std::decay_t<decltype(space.at(space.origin))>;
    std::size_t points = 1;
    for (const int size : space.sizes) points *= static_cast<std::size_t>(size);
    for (const auto strategy : {fg::core::TuneStrategy::kGrid,
                                fg::core::TuneStrategy::kHillClimb}) {
      fg::core::TuneOptions opts;
      opts.strategy = strategy;
      std::uint64_t state = 7;
      std::size_t calls = 0;
      const std::int64_t tunes0 = counter("tuner.tune.count");
      const std::int64_t trials0 = counter("tuner.trial.count");
      const auto result = fg::core::tune(
          space,
          fg::core::Measure<S>([&](const S&) {
            ++calls;
            return bumpy(state);
          }),
          opts);
      const bool grid = strategy == fg::core::TuneStrategy::kGrid;
      const std::string where =
          std::string(name) + (grid ? " grid" : " hill climb");
      EXPECT_EQ(counter("tuner.tune.count") - tunes0, 1) << where;
      EXPECT_EQ(counter("tuner.trial.count") - trials0,
                static_cast<std::int64_t>(result.trials.size()))
          << where;
      EXPECT_EQ(calls, result.trials.size()) << where;
      if (grid) {
        EXPECT_EQ(result.trials.size(), points) << where;
      } else {
        EXPECT_GE(result.trials.size(), 1u) << where;
        EXPECT_LE(result.trials.size(),
                  static_cast<std::size_t>(opts.max_trials))
            << where;
      }
    }
  };
  check(fg::core::paper_spmm_space(64, 4), "paper space");
  check(fg::core::ir_spmm_space(64, 4096, 4), "ir space");
  check(fg::core::gpu_attention_space(), "gpusim attention space");
  check(fg::core::list_space(std::vector<CpuSpmmSchedule>{
            grid_schedule(1, 0), grid_schedule(2, 16), grid_schedule(4, 32)}),
        "list space");
}
