// Budgeted schedule search — the paper's future work made concrete:
// "it is an interesting future direction to try more intelligent tuners
// [OpenTuner, AutoTVM] for faster design space exploration" (Sec. IV-A).
//
// This tuner replaces exhaustive grid search with random-restart hill
// climbing over an N-axis lattice of Schedule-IR programs — the paper's
// partition(P) x tile(W) x split_nnz axes (smart_tune_spmm), or the wider
// space with register-blocked tiles and row chunking (smart_tune_spmm_ir):
// evaluate a few seed points, then repeatedly step to the best untried
// neighbor (x2 / /2 moves along the numeric axes, a flip on the row-split
// policy) until no neighbor improves, respecting a hard trial budget. On
// the spaces FeatGraph cares about the runtime cost surface is close to
// unimodal along each axis (Fig. 14), which hill climbing exploits —
// typically reaching the grid-search winner with a third of the
// measurements (see bench_ablation_tuner).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/schedule.hpp"

namespace featgraph::core {

struct SmartTuneOptions {
  int max_trials = 12;       // hard measurement budget
  int num_seeds = 3;         // random-restart seed points
  std::uint64_t seed = 1;    // deterministic search
  std::int64_t max_partitions = 64;
  std::int64_t min_tile = 8;
};

struct SmartTuneResult {
  CpuSpmmSchedule best;
  double best_seconds = 0.0;
  int trials_used = 0;
};

/// Measurement callback: returns the runtime of a candidate schedule. The
/// tuner is kernel-agnostic through this hook: SpMM launches and fused
/// attention launches (core/tuner.hpp's attention_measure_fn) tune over the
/// identical partition x tile x split_nnz lattice.
using MeasureFn = std::function<double(const CpuSpmmSchedule&)>;

/// Hill-climbs the partition x tile x split_nnz program lattice within
/// `options.max_trials` measurements. `d_out` bounds the feature-tile axis
/// (widths illegal on the active backend are skipped); `num_threads` is
/// fixed across candidates. The first seed is the empty program.
/// Deterministic for a fixed options.seed.
SmartTuneResult smart_tune_spmm(std::int64_t d_out, int num_threads,
                                const MeasureFn& measure,
                                const SmartTuneOptions& options = {});

/// Hill-climbs the Schedule-IR lattice — (partition count, register-blocked
/// tile(W).unroll(U) combo, row chunk, nnz-split policy) — under the same
/// budget and restart strategy. Every lattice point is a legal IR program
/// for the active backend (tile widths pre-filtered through
/// validate_spmm_ir); the deterministic first seed is the EMPTY program,
/// which lowers to the untuned default schedule bit-for-bit. Returned
/// schedules carry their program in CpuSpmmSchedule::ir.
SmartTuneResult smart_tune_spmm_ir(std::int64_t d_out, std::int64_t num_rows,
                                   int num_threads, const MeasureFn& measure,
                                   const SmartTuneOptions& options = {});

// --- gpusim fused-attention lattice -----------------------------------------

/// Measurement callback for the GPU-attention axis: returns the SIMULATED
/// cost of a candidate gpusim schedule (core/tuner.hpp's
/// gpu_attention_measure_fn wraps one attention_gpu evaluation).
using GpuMeasureFn = std::function<double(const GpuSpmmSchedule&)>;

struct GpuSmartTuneResult {
  GpuSpmmSchedule best;
  double best_seconds = 0.0;
  int trials_used = 0;
};

/// Hill-climbs the fused gpusim-attention lattice — hybrid_rows_per_tile x
/// attention_softmax_smem_frac x row_assignment, with hybrid source staging
/// on (the smem split only exists under staging; the plain full-scratch
/// kernel is the grid tuner's extra candidate) — under the same trial
/// budget and random-restart strategy as smart_tune_spmm. Deterministic for
/// a fixed options.seed.
GpuSmartTuneResult smart_tune_gpu_attention(
    const GpuMeasureFn& measure, const SmartTuneOptions& options = {});

}  // namespace featgraph::core
