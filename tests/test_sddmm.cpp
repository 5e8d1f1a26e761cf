#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/schedule_ir.hpp"
#include "core/sddmm.hpp"
#include "graph/generators.hpp"
#include "reference.hpp"

namespace fg = featgraph;
using fg::core::CpuSddmmSchedule;
using fg::core::SddmmOperands;
using fg::graph::Coo;
using fg::tensor::Tensor;
using fg::testing::reference_sddmm;

namespace {

struct Fixture {
  Coo coo;
  Tensor x;   // n x d
  Tensor x3;  // n x heads x head_dim

  Fixture(fg::graph::vid_t n, double avg_deg, std::int64_t d,
          std::int64_t heads, std::uint64_t seed)
      : coo(fg::graph::gen_uniform(n, avg_deg, seed)),
        x(Tensor::randn({n, d}, seed + 1)),
        x3(Tensor::randn({n, heads, d / heads}, seed + 2)) {}
};

}  // namespace

// Dot-product attention across schedules: reduce-axis tiling, Hilbert-curve
// traversal, and threading must never change results.
struct SddmmCase {
  std::int64_t reduce_tile;
  bool hilbert;
  int threads;
};

class SddmmSweep : public ::testing::TestWithParam<SddmmCase> {};

namespace {

/// The case's schedule for a launch with `reduce_len`-wide dots: tile(W)
/// only where it is legal (W <= reduce_len); wider cases run untiled.
CpuSddmmSchedule schedule_for(const SddmmCase& p, std::int64_t reduce_len) {
  CpuSddmmSchedule s;
  s.hilbert_order = p.hilbert;
  s.num_threads = p.threads;
  if (p.reduce_tile > 0 && p.reduce_tile <= reduce_len)
    s.ir = std::make_shared<const fg::core::ScheduleIr>(
        fg::core::ScheduleIr().tile(p.reduce_tile));
  return s;
}

}  // namespace

TEST_P(SddmmSweep, DotMatchesReference) {
  const auto p = GetParam();
  Fixture f(150, 6.0, 16, 4, /*seed=*/50);
  const CpuSddmmSchedule sched = schedule_for(p, 16);
  const Tensor got = fg::core::sddmm(f.coo, "dot", sched, {&f.x, nullptr});
  const Tensor want = reference_sddmm(
      f.coo,
      [&](auto u, auto, auto v, std::vector<float>& out) {
        float acc = 0;
        for (std::int64_t k = 0; k < 16; ++k) acc += f.x.at(u, k) * f.x.at(v, k);
        out[0] = acc;
      },
      1);
  EXPECT_LT(fg::tensor::max_abs_diff(got, want), 1e-4f)
      << "tile=" << p.reduce_tile << " hilbert=" << p.hilbert
      << " threads=" << p.threads;
}

TEST_P(SddmmSweep, MultiHeadDotMatchesReference) {
  const auto p = GetParam();
  Fixture f(150, 6.0, 16, 4, /*seed=*/60);
  const CpuSddmmSchedule sched = schedule_for(p, 16 / 4);
  const Tensor got =
      fg::core::sddmm(f.coo, "multihead_dot", sched, {&f.x3, nullptr});
  const std::int64_t hd = 4;
  const Tensor want = reference_sddmm(
      f.coo,
      [&](auto u, auto, auto v, std::vector<float>& out) {
        for (std::int64_t h = 0; h < 4; ++h) {
          float acc = 0;
          for (std::int64_t k = 0; k < hd; ++k)
            acc += f.x3.at((u * 4 + h) * hd + k) * f.x3.at((v * 4 + h) * hd + k);
          out[static_cast<std::size_t>(h)] = acc;
        }
      },
      4);
  EXPECT_LT(fg::tensor::max_abs_diff(got, want), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, SddmmSweep,
    ::testing::Values(SddmmCase{0, false, 1}, SddmmCase{0, false, 2},
                      SddmmCase{4, false, 1}, SddmmCase{4, false, 2},
                      SddmmCase{3, false, 1}, SddmmCase{0, true, 1},
                      SddmmCase{4, true, 2}, SddmmCase{16, true, 1}));

TEST(Sddmm, ElementwiseEdgeOutputs) {
  Fixture f(80, 4.0, 8, 2, 70);
  const Tensor add = fg::core::sddmm(f.coo, "u_add_v", {}, {&f.x, nullptr});
  const Tensor mul = fg::core::sddmm(f.coo, "u_mul_v", {}, {&f.x, nullptr});
  ASSERT_EQ(add.rows(), f.coo.num_edges());
  ASSERT_EQ(add.row_size(), 8);
  for (fg::graph::eid_t e = 0; e < f.coo.num_edges(); e += 7) {
    const auto u = f.coo.src[static_cast<std::size_t>(e)];
    const auto v = f.coo.dst[static_cast<std::size_t>(e)];
    for (std::int64_t j = 0; j < 8; ++j) {
      EXPECT_FLOAT_EQ(add.at(e, j), f.x.at(u, j) + f.x.at(v, j));
      EXPECT_FLOAT_EQ(mul.at(e, j), f.x.at(u, j) * f.x.at(v, j));
    }
  }
}

TEST(Sddmm, DifferentSrcAndDstOperands) {
  // Gradient kernels use a != b: out_e = <a_u, b_v>.
  Fixture f(60, 5.0, 8, 2, 80);
  Tensor b = Tensor::randn({60, 8}, 81);
  const Tensor got = fg::core::sddmm(f.coo, "dot", {}, {&f.x, &b});
  for (fg::graph::eid_t e = 0; e < f.coo.num_edges(); e += 11) {
    const auto u = f.coo.src[static_cast<std::size_t>(e)];
    const auto v = f.coo.dst[static_cast<std::size_t>(e)];
    float acc = 0;
    for (std::int64_t k = 0; k < 8; ++k) acc += f.x.at(u, k) * b.at(v, k);
    EXPECT_NEAR(got.at(e), acc, 1e-4f);
  }
}

TEST(Sddmm, VanillaSddmmEqualsMaskedDenseProduct) {
  // out = A . (X X^T) restricted to nonzeros (paper Equation (4)).
  Fixture f(40, 3.0, 6, 2, 90);
  const Tensor got = fg::core::sddmm(f.coo, "dot", {}, {&f.x, nullptr});
  for (fg::graph::eid_t e = 0; e < f.coo.num_edges(); ++e) {
    const auto u = f.coo.src[static_cast<std::size_t>(e)];
    const auto v = f.coo.dst[static_cast<std::size_t>(e)];
    float dense = 0;
    for (std::int64_t k = 0; k < 6; ++k) dense += f.x.at(u, k) * f.x.at(v, k);
    ASSERT_NEAR(got.at(e), dense, 1e-4f);
  }
}

TEST(Sddmm, GenericEdgeFnMatchesBuiltin) {
  Fixture f(70, 4.0, 10, 2, 95);
  fg::core::GenericEdgeFn fn = [&](auto u, auto, auto v, float* out) {
    float acc = 0;
    for (std::int64_t k = 0; k < 10; ++k) acc += f.x.at(u, k) * f.x.at(v, k);
    out[0] = acc;
  };
  const Tensor generic = fg::core::sddmm_generic(f.coo, fn, 1, {});
  const Tensor builtin = fg::core::sddmm(f.coo, "dot", {}, {&f.x, nullptr});
  EXPECT_LT(fg::tensor::max_abs_diff(generic, builtin), 1e-4f);
  // A blackbox UDF has no visible reduce axis: a builtin-shaped program's
  // reduce tile is dropped (it would exceed the length-1 axis), its edge
  // chunking kept — same edges, same order, bit-identical.
  CpuSddmmSchedule tiled;
  tiled.ir = std::make_shared<const fg::core::ScheduleIr>(
      fg::core::ScheduleIr().tile(8).chunk(64));
  const Tensor chunked = fg::core::sddmm_generic(f.coo, fn, 1, tiled);
  EXPECT_EQ(fg::tensor::max_abs_diff(chunked, generic), 0.0f);
}

TEST(Sddmm, GenericEdgeFnArbitraryComputation) {
  Fixture f(50, 3.0, 4, 2, 97);
  fg::core::GenericEdgeFn fn = [&](auto u, auto e, auto v, float* out) {
    out[0] = std::tanh(f.x.at(u, 0) - f.x.at(v, 3)) + static_cast<float>(e % 3);
    out[1] = f.x.at(u, 1) * f.x.at(v, 2);
  };
  const Tensor got = fg::core::sddmm_generic(f.coo, fn, 2, {});
  const Tensor want = reference_sddmm(
      f.coo,
      [&](auto u, auto e, auto v, std::vector<float>& out) {
        out[0] =
            std::tanh(f.x.at(u, 0) - f.x.at(v, 3)) + static_cast<float>(e % 3);
        out[1] = f.x.at(u, 1) * f.x.at(v, 2);
      },
      2);
  EXPECT_LT(fg::tensor::max_abs_diff(got, want), 1e-5f);
}

TEST(Sddmm, HilbertOrderCacheIsStable) {
  Fixture f(30, 3.0, 4, 2, 98);
  const auto* o1 = fg::core::cached_hilbert_order(f.coo);
  const auto* o2 = fg::core::cached_hilbert_order(f.coo);
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(static_cast<fg::graph::eid_t>(o1->size()), f.coo.num_edges());
}

TEST(Sddmm, EmptyGraphProducesEmptyOutput) {
  Coo coo;
  coo.num_src = coo.num_dst = 4;
  Tensor x = Tensor::randn({4, 4}, 99);
  const Tensor out = fg::core::sddmm(coo, "dot", {}, {&x, nullptr});
  EXPECT_EQ(out.numel(), 0);
}
