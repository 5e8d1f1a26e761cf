// Schedule tuner (paper Sec. IV-A: "we use naive grid search to find the
// optimal parameters under a given input shape"; smarter tuners are named
// as future work: "it is an interesting future direction to try more
// intelligent tuners [OpenTuner, AutoTVM] for faster design space
// exploration").
//
// One entry point, tune(space, measure, options). A space is a lattice of
// schedules: a few ordered axes plus the map from a lattice point to its
// schedule. The paper's space is partition(P) x tile(W) x split_nnz, each
// point a Schedule-IR program (core/schedule_ir.hpp); an explicit candidate
// list is a one-axis space. A measure returns one schedule's cost: the
// wall-clock time of a real CPU kernel launch, or the simulated cost of a
// gpusim launch. The strategy is grid search (every point, the paper's
// tuner) or random-restart hill climbing under a trial budget. Tuning runs
// once per input shape: GNN training runs hundreds of epochs over a fixed
// topology, so its cost amortizes (Sec. V-E excludes it for that reason).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/attention.hpp"
#include "core/schedule.hpp"
#include "core/spmm.hpp"
#include "gpusim/device.hpp"
#include "graph/csr.hpp"

namespace featgraph::core {

enum class TuneStrategy {
  /// Measure every point of the space, in order (last axis fastest).
  kGrid,
  /// Random-restart greedy descent: from each seed point, step +-1 along one
  /// axis to the best untried neighbour until none improves. The first seed
  /// is the space's origin, later seeds are uniform random. The paper's
  /// cost surfaces are close to unimodal along each axis (Fig. 14).
  kHillClimb,
};

struct TuneOptions {
  TuneStrategy strategy = TuneStrategy::kGrid;
  // Hill climbing only; grid search measures every point.
  int max_trials = 12;     // hard measurement budget
  int num_seeds = 3;       // random-restart seed points
  std::uint64_t seed = 1;  // deterministic search
};

/// A lattice of schedules: sizes[a] ordered points along axis a, and the
/// schedule at each point. Neighbouring points along an axis should be
/// neighbouring values (hill climbing steps by one).
template <class S>
struct TuneSpace {
  std::vector<int> sizes;
  /// Hill climbing's first seed point.
  std::vector<int> origin;
  std::function<S(const std::vector<int>&)> at;
};

/// Cost of one schedule, lower is better.
template <class S>
using Measure = std::function<double(const S&)>;

template <class S>
struct TuneResult {
  struct Trial {
    S schedule;
    double seconds = 0.0;
  };
  S best;
  double best_seconds = 0.0;
  /// Every measurement, in the order it was taken.
  std::vector<Trial> trials;
};

/// Searches `space` with `options.strategy` and returns the schedule with
/// the lowest measured cost (the first one on ties) and the trial log.
/// Counts one `tuner.tune` and one `tuner.trial` per measurement.
TuneResult<CpuSpmmSchedule> tune(const TuneSpace<CpuSpmmSchedule>& space,
                                 const Measure<CpuSpmmSchedule>& measure,
                                 const TuneOptions& options = {});
TuneResult<GpuSpmmSchedule> tune(const TuneSpace<GpuSpmmSchedule>& space,
                                 const Measure<GpuSpmmSchedule>& measure,
                                 const TuneOptions& options = {});

/// An explicit candidate list as a one-axis space.
template <class S>
TuneSpace<S> list_space(std::vector<S> candidates) {
  const int n = static_cast<int>(candidates.size());
  return {{n}, {0}, [c = std::move(candidates)](const std::vector<int>& p) {
            return c[static_cast<std::size_t>(p[0])];
          }};
}

// --- spaces ----------------------------------------------------------------

/// The paper's space: partition(P) for P in {1, 2, 4, ..., 32}, then tile(W)
/// for W in {0 = untiled, 16, 32, 64, 128} up to d_out, then the row-split
/// policy (load_balance_axis), all at `num_threads`. The origin is the empty
/// program. Every width is a multiple of 16, so every point is legal on
/// every backend.
TuneSpace<CpuSpmmSchedule> paper_spmm_space(std::int64_t d_out,
                                            int num_threads);

/// The wider Schedule-IR space, a curated candidate list (grid search
/// only): the empty program first, so the first measurement is the untuned
/// baseline; then register-blocked tiles tile(W).unroll(U) x row chunks,
/// source partitioning, the row-split flip and, with more than one thread,
/// shard-parallel sweeps. Candidates illegal on the active backend are
/// dropped (validate_spmm_ir), so the AVX2 and AVX-512 legs search
/// different tile widths.
TuneSpace<CpuSpmmSchedule> ir_spmm_space(std::int64_t d_out,
                                         std::int64_t num_rows,
                                         int num_threads);

/// The fused gpusim attention space: rows per staging tile {32, 64, 128} x
/// softmax share of shared memory {0.25, 0.5, 0.75, 1.0} x tile row
/// assignment. Hybrid source staging is on except at share 1.0, which
/// leaves staging no shared memory: that point is the plain full-scratch
/// kernel. The origin is the schedule defaults with staging on.
TuneSpace<GpuSpmmSchedule> gpu_attention_space();

// --- measures --------------------------------------------------------------
// Each measure holds a REFERENCE to `adj` and a copy of `operands` (a struct
// of tensor pointers): the adjacency and every tensor the operands point at
// must outlive the returned function. Pass named objects, never temporaries.

/// Mean wall-clock seconds of `timing_reps` SpMM launches after one warm-up.
Measure<CpuSpmmSchedule> spmm_measure(const graph::Csr& adj,
                                      std::string_view msg_op,
                                      std::string_view reduce_op,
                                      const SpmmOperands& operands,
                                      int timing_reps = 1);

/// Mean wall-clock seconds of `timing_reps` fused attention launches after
/// one warm-up. The fused kernel honours the same CPU schedules as SpMM.
Measure<CpuSpmmSchedule> attention_measure(const graph::Csr& adj,
                                           std::string_view msg_op,
                                           const AttentionOperands& operands,
                                           int timing_reps = 1);

/// The simulated cost of one fused gpusim attention launch (deterministic,
/// so one evaluation).
Measure<GpuSpmmSchedule> gpu_attention_measure(
    const graph::Csr& adj, std::string_view msg_op,
    const AttentionOperands& operands, const gpusim::DeviceSpec& spec = {});

/// A sensible untuned default: partition(P) sized so one partition's source
/// feature tile fits in roughly half of a 25 MB LLC (emitted only when
/// P > 1), and tile(64) when d_feat > 64. Legal on every backend; the empty
/// program for small graphs with d_feat <= 64.
CpuSpmmSchedule heuristic_spmm_schedule(const graph::Csr& adj,
                                        std::int64_t d_feat, int num_threads);

}  // namespace featgraph::core
