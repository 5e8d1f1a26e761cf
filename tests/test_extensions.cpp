// Tests for the extension modules: the budgeted hill-climbing tuner (the
// paper's future-work item), graph statistics, binary graph I/O, symmetric GCN
// normalization, and multi-head GAT.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>

#include "core/schedule_ir.hpp"
#include "core/tuner.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "minidgl/train.hpp"

namespace fg = featgraph;
using fg::core::CpuSpmmSchedule;
using fg::core::TuneOptions;
using fg::core::TuneStrategy;
using fg::graph::Coo;
using fg::tensor::Tensor;

// --- smart tuner -----------------------------------------------------------

namespace {

/// The lowered plan of `s` (any d_out the lattice tiles fit in).
fg::core::LoweredSpmmPlan plan_of(const CpuSpmmSchedule& s) {
  return fg::core::lower_spmm_schedule(s, 1000, 512, fg::simd::active_isa());
}

/// Synthetic unimodal cost surface with minimum at (parts=8, tile=32).
double synthetic_cost(const CpuSpmmSchedule& s) {
  const auto p = plan_of(s);
  const double lp = std::log2(static_cast<double>(p.num_partitions));
  const double lt = p.feat_tile == 0
                        ? 7.0  // "untiled" sits past the largest tile
                        : std::log2(static_cast<double>(p.feat_tile));
  return 1.0 + 0.3 * (lp - 3.0) * (lp - 3.0) + 0.2 * (lt - 5.0) * (lt - 5.0);
}

/// Hill climbing under `max_trials` with the given restart seed.
TuneOptions climb(int max_trials, std::uint64_t seed = 1) {
  TuneOptions options;
  options.strategy = TuneStrategy::kHillClimb;
  options.max_trials = max_trials;
  options.seed = seed;
  return options;
}

}  // namespace

TEST(SmartTuner, FindsUnimodalOptimumWithinBudget) {
  // The paper space for d=256 at one thread has 6 partitions x 5 tiles = 30
  // points; the climber must find the global optimum (8, 32) with fewer
  // measurements, and the grid must find the same winner after measuring
  // every point once.
  const auto space = fg::core::paper_spmm_space(256, 1);
  int calls = 0;
  const auto result = fg::core::tune(
      space,
      [&](const CpuSpmmSchedule& s) {
        ++calls;
        return synthetic_cost(s);
      },
      climb(20, 7));
  ASSERT_NE(result.best.ir, nullptr);
  EXPECT_EQ(result.best.ir->describe(), "partition(8).tile(32)");
  EXPECT_LE(result.trials.size(), 20u);
  EXPECT_EQ(static_cast<std::size_t>(calls), result.trials.size());

  const auto grid = fg::core::tune(space, synthetic_cost);
  ASSERT_NE(grid.best.ir, nullptr);
  EXPECT_EQ(grid.best.ir->describe(), "partition(8).tile(32)");
  EXPECT_EQ(grid.trials.size(), 30u);
  EXPECT_DOUBLE_EQ(grid.best_seconds, result.best_seconds);
}

TEST(SmartTuner, RespectsHardBudget) {
  const auto result = fg::core::tune(fg::core::paper_spmm_space(512, 1),
                                     synthetic_cost, climb(4));
  EXPECT_LE(result.trials.size(), 4u);
  EXPECT_TRUE(std::isfinite(result.best_seconds));
}

TEST(SmartTuner, DeterministicForFixedSeed) {
  auto run = [] {
    return fg::core::tune(fg::core::paper_spmm_space(128, 2), synthetic_cost,
                          climb(10, 42));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(fg::core::schedule_program_hash(a.best),
            fg::core::schedule_program_hash(b.best));
  EXPECT_EQ(a.trials.size(), b.trials.size());
}

TEST(SmartTuner, NeedsFewerTrialsThanGridOnRealKernel) {
  // The future-work claim: reach (close to) the grid winner in a fraction
  // of the measurements on a real cost surface.
  const Coo coo = fg::graph::gen_uniform(3000, 24.0, 5);
  const auto in = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::randn({3000, 64}, 6);
  const fg::core::SpmmOperands ops{&x, nullptr, nullptr};

  const auto space = fg::core::paper_spmm_space(64, 1);
  const auto measure = fg::core::spmm_measure(in, "copy_u", "sum", ops);
  const auto grid_result = fg::core::tune(space, measure);
  const auto smart = fg::core::tune(space, measure, climb(10));

  EXPECT_LT(smart.trials.size(), grid_result.trials.size());
  // Within 60% of the grid winner (timing noise on a busy box is real).
  EXPECT_LT(smart.best_seconds, grid_result.best_seconds * 1.6 + 1e-4);
}

// --- graph statistics --------------------------------------------------

TEST(Stats, UniformGraphHasLowGini) {
  const Coo coo = fg::graph::gen_uniform(5000, 20.0, 8);
  const auto stats =
      fg::graph::source_degree_stats(fg::graph::coo_to_in_csr(coo));
  EXPECT_NEAR(stats.mean, 20.0, 0.5);
  EXPECT_LT(stats.gini, 0.2);
}

TEST(Stats, TwoClassGraphHasHighGiniAndHeavyTail) {
  const Coo coo = fg::graph::gen_two_class(100, 500, 900, 5, 9);
  const auto stats =
      fg::graph::source_degree_stats(fg::graph::coo_to_in_csr(coo));
  EXPECT_GT(stats.gini, 0.4);
  EXPECT_EQ(stats.max, 500);
  EXPECT_EQ(stats.median, 5);
  EXPECT_GT(stats.p99, 100);
}

TEST(Stats, HighDegreeEdgeFractionMatchesConstruction) {
  // 100 hubs at degree 500 own 500*100 / (500*100 + 900*5) = 91.7% of edges.
  const Coo coo = fg::graph::gen_two_class(100, 500, 900, 5, 10);
  const double frac =
      fg::graph::high_degree_edge_fraction(fg::graph::coo_to_in_csr(coo), 0.9);
  EXPECT_NEAR(frac, 0.917, 0.02);
}

TEST(Stats, DescribeMentionsKeyFields) {
  const Coo coo = fg::graph::gen_uniform(100, 4.0, 11);
  const auto s =
      fg::graph::describe(fg::graph::source_degree_stats(fg::graph::coo_to_in_csr(coo)));
  EXPECT_NE(s.find("mean"), std::string::npos);
  EXPECT_NE(s.find("gini"), std::string::npos);
}

// --- graph I/O -----------------------------------------------------------

TEST(GraphIo, RoundTripsEdgeLists) {
  const Coo original = fg::graph::gen_lognormal(500, 8.0, 1.0, 12);
  const std::string path = ::testing::TempDir() + "/roundtrip.fgc";
  fg::graph::save_coo(original, path);
  EXPECT_TRUE(fg::graph::is_featgraph_file(path));
  const Coo loaded = fg::graph::load_coo(path);
  EXPECT_EQ(loaded.num_src, original.num_src);
  EXPECT_EQ(loaded.num_dst, original.num_dst);
  EXPECT_EQ(loaded.src, original.src);
  EXPECT_EQ(loaded.dst, original.dst);
  std::remove(path.c_str());
}

TEST(GraphIo, RoundTripsEmptyGraph) {
  Coo empty;
  empty.num_src = empty.num_dst = 7;
  const std::string path = ::testing::TempDir() + "/empty.fgc";
  fg::graph::save_coo(empty, path);
  const Coo loaded = fg::graph::load_coo(path);
  EXPECT_EQ(loaded.num_src, 7);
  EXPECT_EQ(loaded.num_edges(), 0);
  std::remove(path.c_str());
}

TEST(GraphIo, RejectsNonFeatgraphFiles) {
  const std::string path = ::testing::TempDir() + "/not_a_graph.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("hello world, definitely not a graph", f);
  std::fclose(f);
  EXPECT_FALSE(fg::graph::is_featgraph_file(path));
  EXPECT_DEATH((void)fg::graph::load_coo(path), "magic");
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileIsNotAFeatgraphFile) {
  EXPECT_FALSE(fg::graph::is_featgraph_file("/nonexistent/path.fgc"));
}

// --- symmetric GCN normalization -----------------------------------------

TEST(GcnNorm, WeightsMatchDegreesAndAggregationIsBounded) {
  fg::graph::Graph g(fg::graph::gen_uniform(200, 6.0, 13));
  const Tensor w = fg::minidgl::symmetric_norm_weights(g);
  ASSERT_EQ(w.numel(), g.num_edges());
  const auto& coo = g.coo();
  for (fg::graph::eid_t e = 0; e < g.num_edges(); e += 17) {
    const auto du = g.out_csr().degree(coo.src[static_cast<std::size_t>(e)]);
    const auto dv = g.in_csr().degree(coo.dst[static_cast<std::size_t>(e)]);
    EXPECT_NEAR(w.at(e),
                1.0f / std::sqrt(static_cast<float>(du) * dv), 1e-5f);
  }
}

TEST(GcnNorm, SymLayerTrainsOnSbm) {
  const auto data = fg::minidgl::make_sbm_classification(500, 10.0, 4, 0.9,
                                                         16, 2.0f, 14);
  fg::minidgl::ExecContext ctx;
  ctx.num_threads = 2;
  fg::minidgl::GcnLayer l1(16, 24, false, 1, "sym");
  fg::minidgl::GcnLayer l2(24, 4, true, 2, "sym");
  std::vector<fg::minidgl::Var> params = l1.parameters();
  for (auto& p : l2.parameters()) params.push_back(p);
  fg::minidgl::Adam adam(params, 0.05f);

  float first = 0, last = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    auto x = fg::minidgl::make_leaf(data.features.clone(), false);
    auto h = l2.forward(ctx, data.graph, l1.forward(ctx, data.graph, x));
    auto lp = fg::minidgl::log_softmax(ctx, h);
    auto loss = fg::minidgl::nll_loss(ctx, lp, data.labels, data.train_rows);
    adam.zero_grad();
    fg::minidgl::backward(loss);
    adam.step();
    if (epoch == 0) first = loss->value().at(0);
    last = loss->value().at(0);
  }
  EXPECT_LT(last, first * 0.7f);
}

TEST(GcnNormDeathTest, RejectsUnknownNormalization) {
  EXPECT_DEATH(fg::minidgl::GcnLayer(4, 4, false, 1, "l2"), "normalization");
}

// --- multi-head GAT --------------------------------------------------------

TEST(MultiHeadGat, ParameterCountScalesWithHeads) {
  fg::minidgl::GatLayer one(8, 4, false, 1, 1);
  fg::minidgl::GatLayer four(8, 4, false, 1, 4);
  EXPECT_EQ(one.parameters().size(), 2u);
  EXPECT_EQ(four.parameters().size(), 8u);
  EXPECT_EQ(four.num_heads(), 4);
}

TEST(MultiHeadGat, OutputShapeIndependentOfHeads) {
  fg::graph::Graph g(fg::graph::gen_uniform(80, 5.0, 15));
  fg::minidgl::ExecContext ctx;
  auto x = fg::minidgl::make_leaf(Tensor::randn({80, 8}, 16), false);
  for (int heads : {1, 2, 4}) {
    fg::minidgl::GatLayer layer(8, 6, true, 17, heads);
    auto h = layer.forward(ctx, g, x);
    EXPECT_EQ(h->value().shape(0), 80);
    EXPECT_EQ(h->value().shape(1), 6);
  }
}

TEST(MultiHeadGat, GradientsFlowThroughAllHeads) {
  fg::graph::Graph g(fg::graph::gen_uniform(40, 4.0, 18));
  fg::minidgl::ExecContext ctx;
  fg::minidgl::GatLayer layer(6, 4, true, 19, 3);
  auto x = fg::minidgl::make_leaf(Tensor::randn({40, 6}, 20), true);
  auto h = layer.forward(ctx, g, x);
  fg::minidgl::backward(h);
  for (const auto& p : layer.parameters()) {
    EXPECT_TRUE(p->has_grad());
    float norm = 0.0f;
    for (std::int64_t i = 0; i < p->grad().numel(); ++i)
      norm += std::fabs(p->grad().at(i));
    // Weight matrices must receive nonzero gradient (bias may be zero-ish).
    if (p->value().rank() == 2) EXPECT_GT(norm, 0.0f);
  }
}
