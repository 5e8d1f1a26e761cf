// Composable loop-nest Schedule-IR — the paper's two-level (template x FDS)
// schedule space, and the ONLY spelling of a CPU schedule's loop nest
// (CpuSpmmSchedule / CpuSddmmSchedule carry just a thread count and, for
// SDDMM, the Hilbert edge order beside it): an ordered list of transforms
// over the (dst-row, nnz-pos, feature) loop nest, in the spirit of TACO's
// scheduleSpMMCPU (split / pos / reorder / parallelize with CHUNK_SIZE and
// UNROLL_FACTOR — the SNIPPETS.md exemplar).
//
// The IR is DECLARATIVE and cheap: a ScheduleIr is a short transform list a
// tuner composes; kernels never walk it per edge. At launch the list is
// LOWERED once into a LoweredSpmmPlan / LoweredSddmmPlan — a plain struct of
// hoisted decisions, exactly like the SpanOps table dispatch — and the
// kernel templates interpret the plan with branch-free inner loops.
//
// Transforms (SpMM / fused attention):
//   chunk(C)                 — process destination rows in chunks of C per
//                              thread range (LLC/L2 reuse of source rows
//                              across feature tiles).
//   tile(W)                  — feature tiles of width W. W must be a
//                              multiple of the executing ISA's vector width
//                              (AVX2: 8; AVX-512: 16, or 8 below the
//                              narrow-span reroute threshold), so the AVX2
//                              and AVX-512 tuner legs pick different
//                              winners. No tile = the whole feature vector.
//   unroll(U)                — register-block the tiled feature loop: the
//                              output tile stays in vector registers across
//                              a row's whole edge group (one load + one
//                              store per tile instead of per edge), with U
//                              vectors kept live. Requires tile().
//   split_nnz(balance)       — the row-split policy across threads
//                              (default without it: nnz-balanced).
//   partition(P)             — 1D source partitioning (the template half).
//   override_partition(i, W) — per-partition feature-tile override: segment
//                              i of a partitioned launch runs tile width W
//                              instead of the program's default tile.
//   shard(S)                 — shard-parallel row sweep: destination rows
//                              split into S nnz-balanced shards drained with
//                              cross-shard work stealing (parallel/
//                              shard_exec.hpp) instead of one static range
//                              per lane. S clamps to the row count at
//                              execution, so one shard program serves every
//                              block shape a schedule cache replays it on.
//   steal_grain(G)           — shards claimed G at a time by the stealing
//                              cursors (locality vs balance). Requires
//                              shard().
//
// Legality is checked by validate_spmm_ir / validate_sddmm_ir, which return
// a human-readable error string ("" = legal) so tuners can filter candidate
// programs and tests can assert on the message; lowering FG_CHECKs the same
// validation (API misuse aborts, as everywhere else in the repo).
//
// Bit-identity contract: every legal SpMM program WITHOUT a partition
// transform is bit-identical to the empty program on every backend, and
// every program with partition(P) is bit-identical to partition(P) alone.
// chunk/tile/unroll/split_nnz/shard never change the per-(row, element)
// edge accumulation order, and the register-blocked unroll path folds the
// SAME sequential per-element combine chain in the SAME edge order — unroll
// groups vectors across the feature axis, never across edges, and no FMA
// contraction is introduced (simd.hpp's accum_rows/waxpy_rows contract).
// partition(P) regroups each destination row's in-edges by source bucket —
// an intentional fold reorder (Sec. IV-A) — so a partitioned program
// matches partition(P), not the unpartitioned default.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "core/simd.hpp"

namespace featgraph::core {

enum class IrTransformKind : int {
  kChunkRows = 0,
  kTileFeat = 1,
  kUnroll = 2,
  kSplitNnz = 3,
  kPartition = 4,
  kOverridePartition = 5,
  kShardRows = 6,
  kStealGrain = 7,
};

/// Number of transform kinds (validators size their duplicate bitmaps off
/// this so a new kind cannot silently index past them).
inline constexpr int kNumIrTransformKinds = 8;

const char* ir_transform_name(IrTransformKind kind);

struct IrTransform {
  IrTransformKind kind;
  /// chunk size / tile width / unroll factor / partition count / override
  /// tile width, depending on kind.
  std::int64_t factor = 0;
  /// kSplitNnz only: the row-split policy.
  LoadBalance balance = LoadBalance::kNnzBalanced;
  /// kOverridePartition only: which partition segment the override targets.
  int part_index = -1;
};

/// An ordered list of composable loop-nest transforms. Chainable builder:
///   ScheduleIr().chunk(256).tile(32).unroll(4)
/// Order is kept for describe()/hashing but does not change semantics; each
/// transform kind may appear at most once (override_partition: once per
/// partition index) — duplicates are a legality error, not last-wins.
class ScheduleIr {
 public:
  ScheduleIr& chunk(std::int64_t rows) {
    transforms_.push_back({IrTransformKind::kChunkRows, rows});
    return *this;
  }
  ScheduleIr& tile(std::int64_t width) {
    transforms_.push_back({IrTransformKind::kTileFeat, width});
    return *this;
  }
  ScheduleIr& unroll(std::int64_t factor) {
    transforms_.push_back({IrTransformKind::kUnroll, factor});
    return *this;
  }
  ScheduleIr& split_nnz(LoadBalance balance) {
    transforms_.push_back({IrTransformKind::kSplitNnz, 0, balance});
    return *this;
  }
  ScheduleIr& partition(int parts) {
    transforms_.push_back({IrTransformKind::kPartition, parts});
    return *this;
  }
  ScheduleIr& override_partition(int index, std::int64_t tile_width) {
    transforms_.push_back({IrTransformKind::kOverridePartition, tile_width,
                           LoadBalance::kNnzBalanced, index});
    return *this;
  }
  ScheduleIr& shard(int num_shards) {
    transforms_.push_back({IrTransformKind::kShardRows, num_shards});
    return *this;
  }
  ScheduleIr& steal_grain(std::int64_t grain) {
    transforms_.push_back({IrTransformKind::kStealGrain, grain});
    return *this;
  }

  const std::vector<IrTransform>& transforms() const { return transforms_; }
  bool empty() const { return transforms_.empty(); }

  /// A copy of this program with every `kind` transform removed.
  ScheduleIr without(IrTransformKind kind) const;

  /// Compact human-readable program text, e.g.
  /// "chunk(256).tile(32).unroll(4).split_nnz(nnz)".
  std::string describe() const;

 private:
  std::vector<IrTransform> transforms_;
};

/// The vector width (float lanes) of the span-primitive table `isa`
/// resolves to after one-step degradation: 1 / 8 / 16.
int isa_vector_width(simd::Isa isa);

/// Legality check for an SpMM / fused-attention program against a concrete
/// launch shape and backend. Returns "" when legal, else a clear error
/// (duplicate transforms, unaligned tile, chunk > rows, unroll without tile,
/// override without/past the partition transform, ...).
std::string validate_spmm_ir(const ScheduleIr& ir, std::int64_t num_rows,
                             std::int64_t d_out, simd::Isa isa);

/// Legality check for an SDDMM program: tile (reduce-axis tiling) and chunk
/// (edge-position chunking) only; everything else has no SDDMM loop to act
/// on and is rejected.
std::string validate_sddmm_ir(const ScheduleIr& ir, std::int64_t num_edges,
                              std::int64_t reduce_len, simd::Isa isa);

/// One launch's hoisted SpMM decisions — what the kernel template actually
/// interprets (inner loops stay branch-free; the only per-tile reads are
/// plain struct fields).
struct LoweredSpmmPlan {
  std::int64_t feat_tile = 0;  // 0 = whole feature vector
  std::int64_t row_chunk = 0;  // 0 = no chunking
  int unroll = 1;
  bool register_block = false;  // unroll() present: use the row-block path
  LoadBalance load_balance = LoadBalance::kNnzBalanced;
  int num_partitions = 1;
  int num_threads = 1;
  /// shard(S): 0 = unsharded row sweep. Clamped to the row count at
  /// execution (effective_shards), so a shard program is shape-portable.
  int num_shards = 0;
  /// steal_grain(G): shards per stealing claim (only read when sharded).
  std::int64_t steal_grain = 1;
  /// (partition index, tile width) overrides, empty for most programs.
  std::vector<std::pair<int, std::int64_t>> overrides;

  /// Shards the row sweep over `rows` actually runs: > 1 engages the
  /// work-stealing shard executor, else the static parallel_for split.
  int effective_shards(std::int64_t rows) const {
    if (num_shards <= 1) return num_shards > 0 ? 1 : 0;
    return static_cast<int>(
        std::min<std::int64_t>(num_shards, std::max<std::int64_t>(rows, 1)));
  }

  /// Effective tile width for partition `part` (-1 = unpartitioned),
  /// clamped to [1, d_out].
  std::int64_t tile_for(std::int64_t d_out, int part) const {
    std::int64_t t = feat_tile;
    for (const auto& o : overrides) {
      if (o.first == part) {
        t = o.second;
        break;
      }
    }
    if (t <= 0 || t > d_out) t = d_out;
    return t > 0 ? t : 1;
  }

  /// Widest span any tile of this launch sweeps — the width the SpanOps
  /// table is resolved for (span_ops_for_width).
  std::int64_t max_tile(std::int64_t d_out) const {
    std::int64_t w = tile_for(d_out, -1);
    for (const auto& o : overrides) w = std::max(w, tile_for(d_out, o.first));
    return w;
  }
};

/// One launch's hoisted SDDMM decisions.
struct LoweredSddmmPlan {
  std::int64_t reduce_tile = 0;  // 0 = untiled
  std::int64_t edge_chunk = 0;   // 0 = no chunking
};

/// Lowers `sched` for a concrete launch: the attached program decides every
/// loop-nest field, the schedule's num_threads the thread count. No program
/// lowers to the default plan; illegal programs abort via FG_CHECK with the
/// validate_spmm_ir message.
LoweredSpmmPlan lower_spmm_schedule(const CpuSpmmSchedule& sched,
                                    std::int64_t num_rows, std::int64_t d_out,
                                    simd::Isa isa);

/// SDDMM analog of lower_spmm_schedule.
LoweredSddmmPlan lower_sddmm_schedule(const CpuSddmmSchedule& sched,
                                      std::int64_t num_edges,
                                      std::int64_t reduce_len, simd::Isa isa);

/// The partition count a schedule's program asks for: its partition(P)
/// factor, else 1. Callers that build the partitioning (spmm.cpp) route
/// through this so the program drives cached_partition.
int schedule_num_partitions(const CpuSpmmSchedule& sched);

/// A CPU SpMM schedule running `ir` on `num_threads` threads (an empty
/// program attaches nothing — the two spell the same default nest).
CpuSpmmSchedule spmm_schedule(const ScheduleIr& ir, int num_threads = 1);

/// FNV-1a hash of the schedule's program (null and empty hash alike).
/// num_threads is excluded — cache keys that use this hash
/// (sample::BlockScheduleCache) already key on the thread count.
std::uint64_t schedule_program_hash(const CpuSpmmSchedule& sched);

/// Program hash extended with a fused-epilogue signature (EpilogueOps::
/// signature(), 0 = no epilogue). Fused and unfused launches of the same
/// loop nest are DIFFERENT programs — callers keying BlockScheduleCache on
/// this hash never alias the two.
std::uint64_t schedule_program_hash(const CpuSpmmSchedule& sched,
                                    std::uint64_t epilogue_sig);

}  // namespace featgraph::core
