// API-misuse validation: every FG_CHECK guarding the public surface fires
// on bad input instead of corrupting memory (Core Guidelines I.5/I.6 —
// state preconditions and check them).
#include <gtest/gtest.h>

#include "core/schedule_ir.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "graph/generators.hpp"
#include "tensor/ops.hpp"

namespace fg = featgraph;
using fg::graph::Coo;
using fg::graph::Csr;
using fg::tensor::Tensor;

TEST(ValidationDeathTest, CsrRejectsOutOfRangeEndpoints) {
  Coo coo;
  coo.num_src = coo.num_dst = 3;
  coo.src = {0, 5};  // 5 out of range
  coo.dst = {1, 1};
  EXPECT_DEATH((void)fg::graph::coo_to_in_csr(coo), "out of range");
}

TEST(ValidationDeathTest, GraphRequiresSquareAdjacency) {
  Coo coo;
  coo.num_src = 3;
  coo.num_dst = 4;
  EXPECT_DEATH(fg::graph::Graph g(std::move(coo)), "square");
}

TEST(ValidationDeathTest, SpmmRejectsMismatchedFeatureRows) {
  const Coo coo = fg::graph::gen_uniform(10, 2.0, 1);
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor wrong = Tensor::zeros({7, 4});  // 7 rows for a 10-vertex graph
  EXPECT_DEATH((void)fg::core::spmm(in, "copy_u", "sum", {},
                                    {&wrong, nullptr, nullptr}),
               "");
}

TEST(ValidationDeathTest, SpmmRejectsBadEdgeFeatureWidth) {
  const Coo coo = fg::graph::gen_uniform(10, 2.0, 2);
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::zeros({10, 4});
  Tensor bad_edge = Tensor::zeros({coo.num_edges(), 3});  // width 3 != 1 or 4
  EXPECT_DEATH((void)fg::core::spmm(in, "u_mul_e", "sum", {},
                                    {&x, &bad_edge, nullptr}),
               "scalar or match");
}

TEST(ValidationDeathTest, MlpRejectsOversizedInputDim) {
  const Coo coo = fg::graph::gen_uniform(10, 2.0, 3);
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::zeros({10, fg::core::kMaxMlpInputDim + 1});
  Tensor w = Tensor::zeros({fg::core::kMaxMlpInputDim + 1, 8});
  EXPECT_DEATH((void)fg::core::spmm(in, "mlp", "max", {}, {&x, nullptr, &w}),
               "kMaxMlpInputDim");
}

TEST(ValidationDeathTest, SddmmRejectsMismatchedOperandWidths) {
  const Coo coo = fg::graph::gen_uniform(10, 2.0, 4);
  Tensor a = Tensor::zeros({10, 4});
  Tensor b = Tensor::zeros({10, 6});
  EXPECT_DEATH((void)fg::core::sddmm(coo, "dot", {}, {&a, &b}), "widths");
}

TEST(ValidationDeathTest, MatmulRejectsInnerDimMismatch) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({4, 2});
  EXPECT_DEATH((void)fg::tensor::matmul(a, b), "inner");
}

TEST(ValidationDeathTest, TensorRejectsNegativeDimensions) {
  EXPECT_DEATH(Tensor t({2, -1}), "non-negative");
}

TEST(Validation, ZeroSizedInputsAreHandledGracefully) {
  // Empty graph + empty features: legal, produces empty/zero outputs.
  Coo coo;
  coo.num_src = coo.num_dst = 4;
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::randn({4, 8}, 5);
  const Tensor out =
      fg::core::spmm(in, "copy_u", "sum", {}, {&x, nullptr, nullptr});
  for (std::int64_t i = 0; i < out.numel(); ++i) EXPECT_EQ(out.at(i), 0.0f);

  Tensor empty_feat({4, 0});
  const Tensor out2 = fg::core::spmm(in, "copy_u", "max", {},
                                     {&empty_feat, nullptr, nullptr});
  EXPECT_EQ(out2.numel(), 0);
}

TEST(Validation, SingleVertexSelfLoopGraph) {
  Coo coo;
  coo.num_src = coo.num_dst = 1;
  coo.src = {0};
  coo.dst = {0};
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::full({1, 3}, 2.5f);
  for (const char* red : {"sum", "max", "min", "mean"}) {
    const Tensor out =
        fg::core::spmm(in, "copy_u", red, {}, {&x, nullptr, nullptr});
    EXPECT_FLOAT_EQ(out.at(0, 0), 2.5f) << red;
  }
  const Tensor att = fg::core::sddmm(coo, "dot", {}, {&x, nullptr});
  EXPECT_FLOAT_EQ(att.at(0), 3 * 2.5f * 2.5f);
}

TEST(Validation, PartitionCountLargerThanColumns) {
  // More partitions than source vertices: some segments are empty; results
  // must be unchanged.
  const Coo coo = fg::graph::gen_uniform(6, 2.0, 6);
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::randn({6, 4}, 7);
  const fg::core::CpuSpmmSchedule sched =
      fg::core::spmm_schedule(fg::core::ScheduleIr().partition(50));
  const Tensor a =
      fg::core::spmm(in, "copy_u", "sum", sched, {&x, nullptr, nullptr});
  const Tensor b =
      fg::core::spmm(in, "copy_u", "sum", {}, {&x, nullptr, nullptr});
  EXPECT_LT(fg::tensor::max_abs_diff(a, b), 1e-5f);
}
