// Composable loop-nest Schedule-IR (core/schedule_ir.hpp): builder +
// describe(), legality diagnostics (string-returning validator so the error
// TEXT is testable), lowering semantics (null / empty program == the
// default plan, every transform lowered), program hashing, the tuner
// seeding contract — the IR space's first candidate and the paper-space
// climb's first seed point are the empty program — and the legality
// property: the heuristic and every point of every CPU tuner space are
// legal on every backend.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/schedule_ir.hpp"
#include "core/spmm.hpp"
#include "core/tuner.hpp"
#include "graph/generators.hpp"
#include "grid_schedule.hpp"
#include "tensor/tensor.hpp"

namespace fg = featgraph;
using fg::core::CpuSddmmSchedule;
using fg::core::CpuSpmmSchedule;
using fg::core::LoadBalance;
using fg::core::LoweredSpmmPlan;
using fg::core::ScheduleIr;
using fg::simd::Isa;
using fg::testing::grid_points;

namespace {

constexpr std::int64_t kRows = 1000;
constexpr std::int64_t kD = 64;

std::string err_spmm(const ScheduleIr& ir, std::int64_t rows = kRows,
                     std::int64_t d = kD, Isa isa = Isa::kScalar) {
  return fg::core::validate_spmm_ir(ir, rows, d, isa);
}

}  // namespace

TEST(ScheduleIr, BuilderKeepsOrderAndDescribes) {
  const ScheduleIr ir = ScheduleIr()
                            .chunk(256)
                            .tile(32)
                            .unroll(4)
                            .split_nnz(LoadBalance::kStaticRows);
  ASSERT_EQ(ir.transforms().size(), 4u);
  EXPECT_EQ(ir.describe(), "chunk(256).tile(32).unroll(4).split_nnz(rows)");
  EXPECT_EQ(ScheduleIr().partition(4).override_partition(1, 16).describe(),
            "partition(4).override_partition(1, 16)");
  EXPECT_TRUE(ScheduleIr().empty());
  EXPECT_EQ(ScheduleIr().describe(), "");
}

TEST(ScheduleIr, LegalProgramsValidate) {
  EXPECT_EQ(err_spmm(ScheduleIr()), "");
  EXPECT_EQ(err_spmm(ScheduleIr().chunk(kRows)), "");
  EXPECT_EQ(err_spmm(ScheduleIr().tile(32).unroll(4)), "");
  EXPECT_EQ(err_spmm(ScheduleIr().partition(8).tile(16).unroll(2).chunk(64)),
            "");
  EXPECT_EQ(err_spmm(ScheduleIr()
                         .partition(4)
                         .tile(32)
                         .override_partition(0, 16)
                         .override_partition(3, 64)),
            "");
  // Scalar backend: any width in [1, d] is a multiple of its 1-wide lanes.
  EXPECT_EQ(err_spmm(ScheduleIr().tile(13)), "");
}

TEST(ScheduleIr, IllegalProgramsReportClearErrors) {
  // Duplicate transforms are an error, not last-wins.
  EXPECT_NE(err_spmm(ScheduleIr().tile(16).tile(32))
                .find("duplicate transform: tile"),
            std::string::npos);
  EXPECT_NE(err_spmm(ScheduleIr().chunk(8).chunk(16))
                .find("duplicate transform: chunk"),
            std::string::npos);
  // Chunk past the row count.
  EXPECT_NE(
      err_spmm(ScheduleIr().chunk(kRows + 1)).find("exceeds row count"),
      std::string::npos);
  EXPECT_NE(err_spmm(ScheduleIr().chunk(0)).find("must be >= 1"),
            std::string::npos);
  // Tile wider than the feature vector, or misaligned for the backend.
  EXPECT_NE(err_spmm(ScheduleIr().tile(kD + 8)).find("exceeds feature width"),
            std::string::npos);
  if (fg::simd::isa_supported(Isa::kAvx2)) {
    EXPECT_NE(err_spmm(ScheduleIr().tile(12), kRows, kD, Isa::kAvx2)
                  .find("not a multiple of the 8-lane vector width"),
              std::string::npos);
  }
  if (fg::simd::isa_supported(Isa::kAvx512)) {
    // 8 is legal on AVX-512 (the narrow-span reroute executes it 8-wide),
    // but 24 fills one-and-a-half 512-bit vectors — rejected.
    EXPECT_EQ(err_spmm(ScheduleIr().tile(8), kRows, kD, Isa::kAvx512), "");
    EXPECT_NE(err_spmm(ScheduleIr().tile(24), kRows, kD, Isa::kAvx512)
                  .find("not a multiple of the 16-lane vector width"),
              std::string::npos);
  }
  // Unroll needs a tile and a sane factor.
  EXPECT_NE(err_spmm(ScheduleIr().unroll(4))
                .find("unroll requires a feature tile"),
            std::string::npos);
  EXPECT_NE(err_spmm(ScheduleIr().tile(16).unroll(9))
                .find("unroll factor must be in [1, 8]"),
            std::string::npos);
  // Override legality: needs partition, in-range index, no duplicates.
  EXPECT_NE(err_spmm(ScheduleIr().override_partition(0, 16))
                .find("requires a partition transform"),
            std::string::npos);
  EXPECT_NE(err_spmm(ScheduleIr().partition(2).override_partition(2, 16))
                .find("out of range for partition(2)"),
            std::string::npos);
  EXPECT_NE(err_spmm(ScheduleIr()
                         .partition(4)
                         .override_partition(1, 16)
                         .override_partition(1, 32))
                .find("duplicate transform: override_partition"),
            std::string::npos);
}

TEST(ScheduleIr, SddmmValidatorAcceptsOnlyTileAndChunk) {
  const std::int64_t edges = 500, len = 32;
  EXPECT_EQ(fg::core::validate_sddmm_ir(ScheduleIr().tile(5).chunk(100),
                                        edges, len, Isa::kScalar),
            "");
  // The reduce axis reassociates (tolerance-class dot) — no lane alignment.
  EXPECT_EQ(fg::core::validate_sddmm_ir(ScheduleIr().tile(13), edges, len,
                                        Isa::kAvx512),
            "");
  EXPECT_NE(fg::core::validate_sddmm_ir(ScheduleIr().tile(len + 1), edges,
                                        len, Isa::kScalar)
                .find("exceeds reduce length"),
            std::string::npos);
  EXPECT_NE(fg::core::validate_sddmm_ir(ScheduleIr().chunk(edges + 1), edges,
                                        len, Isa::kScalar)
                .find("exceeds edge count"),
            std::string::npos);
  EXPECT_NE(fg::core::validate_sddmm_ir(ScheduleIr().unroll(2), edges, len,
                                        Isa::kScalar)
                .find("not a legal SDDMM transform"),
            std::string::npos);
  EXPECT_NE(fg::core::validate_sddmm_ir(ScheduleIr().partition(4), edges, len,
                                        Isa::kScalar)
                .find("not a legal SDDMM transform"),
            std::string::npos);
}

TEST(ScheduleIr, EmptyProgramLowersToDefaultPlan) {
  // Null IR and empty IR both lower to the default nest: one partition,
  // whole feature vector, nnz-balanced, no chunking or blocking.
  for (const bool attach_empty : {false, true}) {
    CpuSpmmSchedule s;
    s.num_threads = 3;
    if (attach_empty) s.ir = std::make_shared<const ScheduleIr>();
    const LoweredSpmmPlan plan =
        fg::core::lower_spmm_schedule(s, kRows, kD, Isa::kScalar);
    EXPECT_EQ(plan.feat_tile, 0);
    EXPECT_EQ(plan.tile_for(kD, -1), kD);
    EXPECT_EQ(plan.row_chunk, 0);
    EXPECT_EQ(plan.num_partitions, 1);
    EXPECT_EQ(plan.num_threads, 3);
    EXPECT_EQ(plan.load_balance, LoadBalance::kNnzBalanced);
    EXPECT_FALSE(plan.register_block);
    EXPECT_EQ(fg::core::schedule_num_partitions(s), 1);
  }
}

TEST(ScheduleIr, ProgramLowersEveryTransform) {
  CpuSpmmSchedule s;
  s.num_threads = 2;
  s.ir = std::make_shared<const ScheduleIr>(ScheduleIr()
                                                .chunk(256)
                                                .tile(32)
                                                .unroll(4)
                                                .partition(2)
                                                .split_nnz(
                                                    LoadBalance::kStaticRows));
  const LoweredSpmmPlan plan =
      fg::core::lower_spmm_schedule(s, kRows, kD, Isa::kScalar);
  EXPECT_EQ(plan.row_chunk, 256);
  EXPECT_EQ(plan.feat_tile, 32);
  EXPECT_EQ(plan.unroll, 4);
  EXPECT_TRUE(plan.register_block);
  EXPECT_EQ(plan.num_partitions, 2);
  EXPECT_EQ(plan.load_balance, LoadBalance::kStaticRows);
  EXPECT_EQ(plan.num_threads, 2);  // the one field programs never own
  EXPECT_EQ(fg::core::schedule_num_partitions(s), 2);

  // Per-partition overrides resolve through tile_for / max_tile.
  CpuSpmmSchedule o;
  o.ir = std::make_shared<const ScheduleIr>(
      ScheduleIr().partition(4).tile(16).override_partition(2, 64));
  const LoweredSpmmPlan oplan =
      fg::core::lower_spmm_schedule(o, kRows, kD, Isa::kScalar);
  EXPECT_EQ(oplan.tile_for(kD, 0), 16);
  EXPECT_EQ(oplan.tile_for(kD, 2), 64);
  EXPECT_EQ(oplan.tile_for(kD, -1), 16);
  EXPECT_EQ(oplan.max_tile(kD), 64);
}

TEST(ScheduleIr, ProgramHashTracksProgramNotThreads) {
  // Null and empty programs hash identically (both spell the default
  // nest); distinct programs hash apart; num_threads never matters.
  CpuSpmmSchedule empty;
  empty.ir = std::make_shared<const ScheduleIr>();
  EXPECT_EQ(fg::core::schedule_program_hash(CpuSpmmSchedule{}),
            fg::core::schedule_program_hash(empty));
  EXPECT_EQ(fg::core::spmm_schedule(ScheduleIr()).ir, nullptr);

  CpuSpmmSchedule a, b;
  a.num_threads = 1;
  b.num_threads = 8;
  EXPECT_EQ(fg::core::schedule_program_hash(a),
            fg::core::schedule_program_hash(b));

  CpuSpmmSchedule blocked = a;
  blocked.ir = std::make_shared<const ScheduleIr>(
      ScheduleIr().tile(32).unroll(4));
  EXPECT_NE(fg::core::schedule_program_hash(a),
            fg::core::schedule_program_hash(blocked));
  CpuSpmmSchedule blocked2 = a;
  blocked2.ir = std::make_shared<const ScheduleIr>(
      ScheduleIr().tile(32).unroll(2));
  EXPECT_NE(fg::core::schedule_program_hash(blocked),
            fg::core::schedule_program_hash(blocked2));
}

TEST(ScheduleIr, GridTunerFirstCandidateIsTheDefaultSchedule) {
  const auto grid = grid_points(fg::core::ir_spmm_space(kD, kRows, 1));
  ASSERT_GT(grid.size(), 4u);
  // Candidate #0: no program — the untuned default nest.
  EXPECT_EQ(grid[0].ir, nullptr);
  // Every other candidate carries a LEGAL program for the active backend.
  const Isa isa = fg::simd::active_isa();
  bool any_blocked = false;
  for (std::size_t i = 1; i < grid.size(); ++i) {
    ASSERT_NE(grid[i].ir, nullptr) << "candidate " << i;
    EXPECT_EQ(fg::core::validate_spmm_ir(*grid[i].ir, kRows, kD, isa), "")
        << "candidate " << i << ": " << grid[i].ir->describe();
    const auto plan = fg::core::lower_spmm_schedule(grid[i], kRows, kD, isa);
    any_blocked = any_blocked || plan.register_block;
  }
  EXPECT_TRUE(any_blocked);  // the grid must reach the register-blocked path
}

TEST(ScheduleIr, SmartTunerFirstSeedIsTheDefaultSchedule) {
  std::vector<CpuSpmmSchedule> measured;
  fg::core::TuneOptions opts;
  opts.strategy = fg::core::TuneStrategy::kHillClimb;
  opts.max_trials = 6;
  const auto result = fg::core::tune(
      fg::core::paper_spmm_space(kD, 4),
      [&](const CpuSpmmSchedule& s) {
        measured.push_back(s);
        return 1.0;  // constant cost surface: the seed point stays the winner
      },
      opts);
  ASSERT_FALSE(measured.empty());
  EXPECT_LE(result.trials.size(), static_cast<std::size_t>(opts.max_trials));
  EXPECT_EQ(result.best.ir, nullptr);
  // First measurement = the empty program = the default schedule.
  EXPECT_EQ(measured[0].ir, nullptr);
  EXPECT_EQ(fg::core::schedule_program_hash(measured[0]),
            fg::core::schedule_program_hash(CpuSpmmSchedule{}));
  // Every point the climber visits is a legal program.
  const Isa isa = fg::simd::active_isa();
  for (const auto& s : measured) {
    if (s.ir != nullptr) {
      EXPECT_EQ(fg::core::validate_spmm_ir(*s.ir, kRows, kD, isa), "")
          << s.ir->describe();
    }
  }
}

TEST(ScheduleIr, WithoutDropsEveryTransformOfOneKind) {
  const ScheduleIr ir = ScheduleIr()
                            .partition(4)
                            .tile(16)
                            .override_partition(1, 8)
                            .override_partition(2, 32)
                            .chunk(64);
  EXPECT_EQ(ir.without(fg::core::IrTransformKind::kPartition).describe(),
            "tile(16).override_partition(1, 8).override_partition(2, 32)."
            "chunk(64)");
  EXPECT_EQ(
      ir.without(fg::core::IrTransformKind::kOverridePartition).describe(),
      "partition(4).tile(16).chunk(64)");
  EXPECT_EQ(ir.describe(), "partition(4).tile(16).override_partition(1, 8)."
                           "override_partition(2, 32).chunk(64)");
  EXPECT_TRUE(ScheduleIr().chunk(8).without(
      fg::core::IrTransformKind::kChunkRows).empty());
}

TEST(ScheduleIr, DefaultSchedulesAreLegalForEveryWidthAndBackend) {
  // Lowering validates every launch, so one illegal default program would
  // abort every model: the heuristic and every point of every CPU tuner
  // space (the paper space, which hill climbing walks too, and the IR
  // list) must be legal for every d_out in 1..256, on every backend, at
  // every graph size — including sources wide enough that the heuristic
  // partitions (> 12.5 MB of 64-wide source tiles).
  for (const fg::graph::vid_t num_cols : {16, 60000, 1000000}) {
    fg::graph::Csr adj;
    adj.num_rows = 16;
    adj.num_cols = num_cols;
    adj.indptr.assign(17, 0);
    for (const Isa isa : fg::simd::supported_isas()) {
      fg::simd::ScopedIsa pin(isa);
      for (std::int64_t d = 1; d <= 256; ++d) {
        const auto legal = [&](const CpuSpmmSchedule& s, const char* what) {
          if (s.ir == nullptr) return;
          EXPECT_EQ(fg::core::validate_spmm_ir(*s.ir, adj.num_rows, d, isa),
                    "")
              << what << " d=" << d << " cols=" << num_cols
              << " isa=" << fg::simd::isa_name(isa) << ": "
              << s.ir->describe();
        };
        for (const int threads : {1, 4}) {
          legal(fg::core::heuristic_spmm_schedule(adj, d, threads),
                "heuristic");
          if (num_cols != 16) continue;  // the spaces never see the graph
          const auto validate = [&](const char* what) {
            return [&legal, what](const CpuSpmmSchedule& s) {
              legal(s, what);
              return 0.0;
            };
          };
          (void)fg::core::tune(fg::core::paper_spmm_space(d, threads),
                               validate("paper space"));
          (void)fg::core::tune(
              fg::core::ir_spmm_space(d, adj.num_rows, threads),
              validate("ir space"));
        }
      }
    }
  }
  // The heuristic partitions only where the source tiles overflow the
  // budget, and tiles only above 64 features.
  fg::graph::Csr wide;
  wide.num_rows = 1;
  wide.num_cols = 1000000;
  wide.indptr.assign(2, 0);
  EXPECT_EQ(fg::core::heuristic_spmm_schedule(wide, 128, 1).ir->describe(),
            "partition(32).tile(64)");
  wide.num_cols = 16;
  EXPECT_EQ(fg::core::heuristic_spmm_schedule(wide, 64, 1).ir, nullptr);
}

TEST(ScheduleIr, IllegalProgramAtLaunchAborts) {
  // Lowering FG_CHECKs the validator: API misuse dies with the message.
  const auto coo = fg::graph::gen_rmat(64, 4.0, 3);
  const auto csr = fg::graph::coo_to_in_csr(coo);
  const fg::tensor::Tensor x = fg::tensor::Tensor::randn({csr.num_cols, 8}, 1);
  CpuSpmmSchedule s;
  s.ir = std::make_shared<const ScheduleIr>(ScheduleIr().unroll(4));
  fg::core::SpmmOperands ops;
  ops.src_feat = &x;
  EXPECT_DEATH((void)fg::core::spmm(csr, "copy_u", "sum", s, ops),
               "unroll requires a feature tile");
}
