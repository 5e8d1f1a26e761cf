// Schedules: the knobs of FeatGraph's two-level optimization space.
//
// The paper splits a kernel's schedule into (a) template parameters owned by
// the sparse template (number of graph partitions, CUDA block counts,
// hybrid-partitioning threshold) and (b) the user-provided feature dimension
// schedule, FDS (feature tiling factors, parallelization/binding of the
// feature axis, tree reduction). On the CPU both halves are one Schedule-IR
// program (core/schedule_ir.hpp) attached to the schedule; the simulated-GPU
// schedules keep plain fields. The tuner (core/tuner.hpp) searches the
// product space, by grid search as Sec. IV-A describes or by hill climbing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace featgraph::core {

class ScheduleIr;  // core/schedule_ir.hpp — composable loop-nest programs

enum class Target { kCpu, kGpuSim };

/// How destination rows are split across the threads cooperating inside one
/// partition.
enum class LoadBalance : int {
  /// Equal ROW counts per thread: cheapest split, but power-law graphs leave
  /// every thread idle behind the one that drew the hub rows.
  kStaticRows = 0,
  /// Equal NNZ per thread: boundaries found by binary search over the indptr
  /// prefix sums (parallel/parallel_for.hpp), so per-thread edge work is
  /// even regardless of the degree distribution.
  kNnzBalanced = 1,
};

/// The load-balance values worth searching at a given thread count — the
/// single source of truth the tuner's spaces draw their axis from. At one
/// thread the two policies run the identical sweep, so only the default is
/// listed; element 0 always matches the empty program's row split (the
/// paper space's origin relies on that).
inline std::vector<LoadBalance> load_balance_axis(int num_threads) {
  if (num_threads <= 1) return {LoadBalance::kNnzBalanced};
  return {LoadBalance::kNnzBalanced, LoadBalance::kStaticRows};
}

/// CPU generalized-SpMM schedule. Every loop-nest decision — partitions,
/// feature tiling, row chunking, register blocking, row split, sharding —
/// is a Schedule-IR program (core/schedule_ir.hpp); only the thread count
/// lives beside it.
struct CpuSpmmSchedule {
  /// Worker threads; threads cooperate on one partition at a time
  /// (Sec. IV-A) so the LLC holds a single partition's working set.
  int num_threads = 1;
  /// The loop-nest program. Null or empty = the default nest: one
  /// partition, whole feature vector, nnz-balanced row split.
  std::shared_ptr<const ScheduleIr> ir;

  static CpuSpmmSchedule single_thread_default() { return {}; }
};

/// CPU generalized-SDDMM schedule.
struct CpuSddmmSchedule {
  /// Template half: visit edges in Hilbert-curve order (Sec. III-C-1). An
  /// edge permutation, not a loop-nest transform, so it has no IR spelling.
  bool hilbert_order = false;
  int num_threads = 1;
  /// Loop-nest program: tile (reduce-axis tiling) and chunk (edge
  /// positions) transforms. Null or empty = untiled, unchunked.
  std::shared_ptr<const ScheduleIr> ir;
};

/// GPU (simulated) generalized-SpMM schedule.
struct GpuSpmmSchedule {
  /// Template half: CUDA blocks in the grid; rows are cyclically assigned.
  int num_blocks = 4096;
  /// FDS half: threads per block, bound to the feature axis (Fig. 7a).
  int threads_per_block = 256;
  /// Template half: hybrid degree-based partitioning (Sec. III-C-3).
  bool hybrid_partition = false;
  /// Quantile of the source-degree distribution above which sources are
  /// staged in shared memory when hybrid_partition is on.
  double hybrid_quantile = 0.8;
  /// Rows per shared-memory staging tile: the hybrid kernel grid-strides
  /// over row tiles of this size, staging the high-degree sources each tile
  /// touches. Larger tiles see more reuse per staged row but need more
  /// shared memory (the paper's read-efficiency vs merge-cost trade-off).
  int hybrid_rows_per_tile = 32;
  /// How destination rows are assigned to staging tiles/blocks: kStaticRows
  /// cuts uniform hybrid_rows_per_tile chunks; kNnzBalanced reuses the CPU
  /// kernels' nnz_split_point so every tile owns ~equal edge work (same tile
  /// COUNT, boundaries moved — power-law graphs otherwise leave most blocks
  /// idle behind the one holding the hub rows).
  LoadBalance row_assignment = LoadBalance::kNnzBalanced;
  /// Fused-attention FDS (gpusim/attention_gpu.hpp): fraction of the
  /// per-block shared-memory budget reserved for the segment-softmax
  /// scratch; the remainder stages high-degree source rows when
  /// hybrid_partition is on. A destination row whose in-degree overflows
  /// the scratch spills its logits to global memory (two stores — the
  /// logit write and the exp rewrite — plus three read passes per spilled
  /// logit), so the knob trades softmax spills against source-staging
  /// reuse — the tuner's gpusim attention space searches it.
  double attention_softmax_smem_frac = 0.5;
};

/// GPU (simulated) generalized-SDDMM schedule.
struct GpuSddmmSchedule {
  int num_blocks = 4096;
  int threads_per_block = 256;
  /// FDS half: tree reduction across threads for per-edge dots (Fig. 7b);
  /// false degenerates to Gunrock's one-thread-per-edge strategy.
  bool tree_reduce = true;
};

}  // namespace featgraph::core
