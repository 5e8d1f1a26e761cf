// Algebraic property tests on the sparse templates — invariants that must
// hold for every graph and schedule, checked over randomized instances.
#include <gtest/gtest.h>

#include <vector>

#include "core/attention.hpp"
#include "core/sddmm.hpp"
#include "core/simd.hpp"
#include "core/spmm.hpp"
#include "graph/generators.hpp"
#include "grid_schedule.hpp"
#include "tensor/ops.hpp"

namespace fg = featgraph;
using fg::core::CpuSpmmSchedule;
using fg::graph::Coo;
using fg::graph::Csr;
using fg::tensor::Tensor;
using fg::testing::grid_schedule;

namespace {

Tensor spmm_sum(const Csr& adj, const Tensor& x,
                const CpuSpmmSchedule& sched = {}) {
  return fg::core::spmm(adj, "copy_u", "sum", sched, {&x, nullptr, nullptr});
}

}  // namespace

class PropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Coo coo_ = fg::graph::gen_lognormal(250, 6.0, 1.0, GetParam());
  Csr in_ = fg::graph::coo_to_in_csr(coo_);
  Csr out_ = fg::graph::coo_to_out_csr(coo_);
  Tensor x_ = Tensor::randn({250, 12}, GetParam() + 1);
  Tensor y_ = Tensor::randn({250, 12}, GetParam() + 2);
};

TEST_P(PropertyTest, SpmmSumIsLinearInFeatures) {
  // A(x + 2y) == Ax + 2Ay.
  Tensor x2y = fg::tensor::add(x_, fg::tensor::scale(y_, 2.0f));
  Tensor lhs = spmm_sum(in_, x2y);
  Tensor rhs = fg::tensor::add(spmm_sum(in_, x_),
                               fg::tensor::scale(spmm_sum(in_, y_), 2.0f));
  EXPECT_LT(fg::tensor::max_abs_diff(lhs, rhs), 1e-3f);
}

TEST_P(PropertyTest, SumOverInEdgesPreservesMass) {
  // sum_v (A x)[v][j] == sum_u out_degree(u) * x[u][j].
  Tensor agg = spmm_sum(in_, x_);
  const auto counts = fg::graph::column_counts(in_);
  for (std::int64_t j = 0; j < 3; ++j) {
    double lhs = 0.0, rhs = 0.0;
    for (fg::graph::vid_t v = 0; v < in_.num_rows; ++v) lhs += agg.at(v, j);
    for (fg::graph::vid_t u = 0; u < in_.num_cols; ++u)
      rhs += static_cast<double>(counts[static_cast<std::size_t>(u)]) *
             x_.at(u, j);
    EXPECT_NEAR(lhs, rhs, 1e-2);
  }
}

TEST_P(PropertyTest, TransposeDuality) {
  // <A x, y> == <x, A^T y>: aggregation over in-edges is adjoint to
  // aggregation over out-edges (the identity the gradient kernels rely on).
  Tensor ax = spmm_sum(in_, x_);
  Tensor aty = spmm_sum(out_, y_);
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < ax.numel(); ++i) lhs += ax.at(i) * y_.at(i);
  for (std::int64_t i = 0; i < aty.numel(); ++i) rhs += aty.at(i) * x_.at(i);
  EXPECT_NEAR(lhs, rhs, std::abs(lhs) * 1e-4 + 1e-2);
}

TEST_P(PropertyTest, MaxDominatesMeanDominatesMin) {
  const fg::core::SpmmOperands ops{&x_, nullptr, nullptr};
  Tensor mx = fg::core::spmm(in_, "copy_u", "max", {}, ops);
  Tensor mn = fg::core::spmm(in_, "copy_u", "min", {}, ops);
  Tensor mean = fg::core::spmm(in_, "copy_u", "mean", {}, ops);
  for (std::int64_t i = 0; i < mx.numel(); ++i) {
    EXPECT_LE(mn.at(i), mean.at(i) + 1e-4f);
    EXPECT_LE(mean.at(i), mx.at(i) + 1e-4f);
  }
}

TEST_P(PropertyTest, UAddVEqualsCopyUPlusDegreeScaledDst) {
  // sum_e (x_u + x_v) over in-edges of v == (A x)[v] + deg(v) * x[v].
  const fg::core::SpmmOperands ops{&x_, nullptr, nullptr};
  Tensor lhs = fg::core::spmm(in_, "u_add_v", "sum", {}, ops);
  Tensor ax = spmm_sum(in_, x_);
  for (fg::graph::vid_t v = 0; v < in_.num_rows; ++v) {
    const auto deg = static_cast<float>(in_.degree(v));
    for (std::int64_t j = 0; j < 12; ++j)
      EXPECT_NEAR(lhs.at(v, j), ax.at(v, j) + deg * x_.at(v, j), 1e-3f);
  }
}

TEST_P(PropertyTest, ScheduleAndBackendNeverChangeResults) {
  // The paper's central correctness property extended to the new knobs: for
  // any schedule (partitions x tile x threads x row split) and either
  // SIMD backend, results are bit-for-bit identical — schedules move work,
  // never arithmetic.
  const fg::core::SpmmOperands ops{&x_, nullptr, nullptr};
  const CpuSpmmSchedule ref_sched =
      grid_schedule(1, 0, 1, fg::core::LoadBalance::kStaticRows);
  Tensor ref;
  {
    fg::simd::ScopedIsa pin(fg::simd::Isa::kScalar);
    ref = fg::core::spmm(in_, "copy_u", "sum", ref_sched, ops);
  }
  // Every compiled-and-supported backend joins the sweep (scalar always,
  // avx2/avx512 when the CPU has them).
  const auto isas = fg::simd::supported_isas();
  for (auto isa : isas) {
    fg::simd::ScopedIsa pin(isa);
    for (int parts : {1, 4}) {
      for (auto lb : {fg::core::LoadBalance::kStaticRows,
                      fg::core::LoadBalance::kNnzBalanced}) {
        // tile(8) is legal on every backend and leaves a ragged 4-wide
        // last tile of the 12 features.
        const CpuSpmmSchedule sched = grid_schedule(parts, 8, 3, lb);
        const Tensor got = fg::core::spmm(in_, "copy_u", "sum", sched, ops);
        // Partitioning reorders the per-row edge visits, which reassociates
        // the sum; unpartitioned schedules must stay bit-exact, partitioned
        // ones within float tolerance.
        if (parts == 1) {
          EXPECT_EQ(fg::tensor::max_abs_diff(got, ref), 0.0f)
              << fg::simd::isa_name(isa) << " lb=" << static_cast<int>(lb);
        } else {
          EXPECT_LT(fg::tensor::max_abs_diff(got, ref), 1e-3f);
        }
      }
    }
  }
}

TEST_P(PropertyTest, SddmmDotIsSymmetricOnReversedEdges) {
  // dot(x_u, x_v) is symmetric in the endpoints: evaluating on the reversed
  // COO permutes nothing.
  Coo reversed = coo_;
  std::swap(reversed.src, reversed.dst);
  Tensor fwd = fg::core::sddmm(coo_, "dot", {}, {&x_, nullptr});
  Tensor bwd = fg::core::sddmm(reversed, "dot", {}, {&x_, nullptr});
  EXPECT_LT(fg::tensor::max_abs_diff(fwd, bwd), 1e-4f);
}

TEST_P(PropertyTest, SddmmUMulVRowSumEqualsDot) {
  // sum_j (x_u * x_v)[j] == <x_u, x_v>.
  Tensor prod = fg::core::sddmm(coo_, "u_mul_v", {}, {&x_, nullptr});
  Tensor dot = fg::core::sddmm(coo_, "dot", {}, {&x_, nullptr});
  for (fg::graph::eid_t e = 0; e < coo_.num_edges(); ++e) {
    float s = 0.0f;
    for (std::int64_t j = 0; j < 12; ++j) s += prod.at(e, j);
    EXPECT_NEAR(s, dot.at(e), 1e-3f);
  }
}

TEST_P(PropertyTest, SpmmGradIsSddmmPattern) {
  // Sec. II-A: d/dw <A_w x, y> where A_w has value w_e on edge e equals
  // x_u . y_v — the SDDMM of the operands. Check via finite differences on
  // a few random edges.
  Tensor w = Tensor::uniform({coo_.num_edges()}, GetParam() + 3, 0.5f, 1.5f);
  auto loss = [&](const Tensor& wt) {
    Tensor out = fg::core::spmm(in_, "u_mul_e", "sum", {},
                                {&x_, &wt, nullptr});
    double acc = 0.0;
    for (std::int64_t i = 0; i < out.numel(); ++i) acc += out.at(i) * y_.at(i);
    return acc;
  };
  Tensor sddmm_grad = fg::core::sddmm(coo_, "dot", {}, {&x_, &y_});
  for (fg::graph::eid_t e = 0; e < coo_.num_edges();
       e += coo_.num_edges() / 5 + 1) {
    const float eps = 1e-2f;
    Tensor wp = w.clone();
    wp.at(e) += eps;
    Tensor wm = w.clone();
    wm.at(e) -= eps;
    const double fd = (loss(wp) - loss(wm)) / (2 * eps);
    EXPECT_NEAR(fd, sddmm_grad.at(e), 5e-2 + 0.02 * std::abs(fd))
        << "edge " << e;
  }
}

TEST_P(PropertyTest, AttentionAlphaSumsToOnePerDestination) {
  // The defining softmax invariant, over random skewed graphs and every
  // supported backend: each destination's in-edge weights are a probability
  // distribution (empty rows contribute no weights at all).
  fg::core::AttentionOperands ops;
  ops.src_feat = &x_;
  for (const auto isa : fg::simd::supported_isas()) {
    fg::simd::ScopedIsa pin(isa);
    const fg::core::AttentionResult r =
        fg::core::attention(in_, "copy_u", {}, ops);
    for (fg::graph::vid_t v = 0; v < in_.num_rows; ++v) {
      if (in_.degree(v) == 0) continue;
      float sum = 0.0f;
      for (std::int64_t i = in_.indptr[v]; i < in_.indptr[v + 1]; ++i)
        sum += r.alpha.at(in_.edge_ids[static_cast<std::size_t>(i)]);
      EXPECT_NEAR(sum, 1.0f, 1e-4f)
          << fg::simd::isa_name(isa) << " row " << v;
    }
  }
}

TEST_P(PropertyTest, AttentionOutputIsAConvexCombinationOfMessages) {
  // alpha in [0,1] summing to 1 per row makes each output element a convex
  // combination of its in-neighbors' features: min_u x_u[j] <= out[v][j] <=
  // max_u x_u[j] — i.e. the copy_u/min and copy_u/max SpMMs bound attention.
  fg::core::AttentionOperands ops;
  ops.src_feat = &x_;
  const fg::core::AttentionResult r =
      fg::core::attention(in_, "copy_u", {}, ops);
  const fg::core::SpmmOperands sops{&x_, nullptr, nullptr};
  Tensor mx = fg::core::spmm(in_, "copy_u", "max", {}, sops);
  Tensor mn = fg::core::spmm(in_, "copy_u", "min", {}, sops);
  for (fg::graph::vid_t v = 0; v < in_.num_rows; ++v) {
    if (in_.degree(v) == 0) continue;
    for (std::int64_t j = 0; j < 12; ++j) {
      EXPECT_GE(r.out.at(v, j), mn.at(v, j) - 1e-4f);
      EXPECT_LE(r.out.at(v, j), mx.at(v, j) + 1e-4f);
    }
  }
}

TEST_P(PropertyTest, AttentionScheduleNeverChangesAlpha) {
  // The schedule axes move aggregation work only; the softmax half of the
  // fused kernel is schedule-invariant bit-for-bit (test_attention.cpp pins
  // the full matrix; this re-checks on every random-seed instance).
  fg::core::AttentionOperands ops;
  ops.src_feat = &x_;
  Tensor ref;
  for (int parts : {1, 4}) {
    for (auto lb : {fg::core::LoadBalance::kStaticRows,
                    fg::core::LoadBalance::kNnzBalanced}) {
      const CpuSpmmSchedule sched = grid_schedule(parts, 0, 3, lb);
      const fg::core::AttentionResult r =
          fg::core::attention(in_, "copy_u", sched, ops);
      if (!ref.defined()) {
        ref = r.alpha.clone();
      } else {
        EXPECT_EQ(fg::tensor::max_abs_diff(r.alpha, ref), 0.0f)
            << "parts=" << parts << " lb=" << static_cast<int>(lb);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));
