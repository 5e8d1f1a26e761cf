#include "core/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <iterator>
#include <string>

#include "core/schedule_ir.hpp"
#include "gpusim/attention_gpu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace featgraph::core {

namespace {

using Point = std::vector<int>;

/// Random-restart greedy descent over the lattice `sizes`: each axis is
/// stepped +-1 (a two-point policy axis gets its flip as the same move),
/// measurements are memoized, and at most options.max_trials points are
/// measured. `measure_at(point)` runs ONE measurement and returns its cost;
/// `seed0` is the first seed point, later seeds are uniform random.
template <class MeasureAt>
void lattice_climb(const std::vector<int>& sizes, const Point& seed0,
                   const TuneOptions& options, const MeasureAt& measure_at) {
  const std::size_t axes = sizes.size();
  std::map<Point, double> measured;
  int trials_used = 0;

  auto eval = [&](const Point& p) -> double {
    auto it = measured.find(p);
    if (it != measured.end()) return it->second;
    if (trials_used >= options.max_trials)
      return std::numeric_limits<double>::infinity();
    const double secs = measure_at(p);
    ++trials_used;
    measured.emplace(p, secs);
    return secs;
  };

  support::Rng rng(options.seed);
  for (int seed_idx = 0;
       seed_idx < options.num_seeds && trials_used < options.max_trials;
       ++seed_idx) {
    Point p = seed0;
    if (seed_idx > 0) {
      for (std::size_t a = 0; a < axes; ++a)
        p[a] = static_cast<int>(
            rng.uniform(static_cast<std::uint64_t>(sizes[a])));
    }
    double current = eval(p);

    // Greedy neighbor descent over the 2N axis-aligned moves.
    for (;;) {
      Point best_p = p;
      double best = current;
      for (std::size_t a = 0; a < axes; ++a) {
        for (int step : {-1, +1}) {
          Point c = p;
          c[a] += step;
          if (c[a] < 0 || c[a] >= sizes[a]) continue;
          const double secs = eval(c);
          if (secs < best) {
            best = secs;
            best_p = std::move(c);
          }
        }
      }
      if (best_p == p) break;
      p = std::move(best_p);
      current = best;
      if (trials_used >= options.max_trials) break;
    }
  }
}

template <class S>
TuneResult<S> tune_impl(const TuneSpace<S>& space, const Measure<S>& measure,
                        const TuneOptions& options) {
  const std::size_t axes = space.sizes.size();
  FG_CHECK_MSG(axes > 0 && space.origin.size() == axes,
               "tune needs a space with at least one axis and an origin");
  std::int64_t points = 1;
  for (std::size_t a = 0; a < axes; ++a) {
    FG_CHECK_MSG(space.sizes[a] > 0, "tune needs a non-empty space");
    FG_CHECK(space.origin[a] >= 0 && space.origin[a] < space.sizes[a]);
    points *= space.sizes[a];
  }
  const bool grid = options.strategy == TuneStrategy::kGrid;
  FG_CHECK(grid || options.max_trials >= 1);

  static obs::Counter& obs_tunes =
      obs::Registry::global().counter("tuner.tune.count");
  static obs::Counter& obs_trials =
      obs::Registry::global().counter("tuner.trial.count");
  obs_tunes.add(1);
  FG_TRACE_SCOPE("tuner.tune",
                 obs::arg("strategy", grid ? "grid" : "hill_climb"),
                 obs::arg("points", points));

  TuneResult<S> result;
  result.best_seconds = std::numeric_limits<double>::infinity();
  const auto trial = [&](const Point& p) {
    obs_trials.add(1);
    FG_TRACE_SCOPE("tuner.trial");
    S s = space.at(p);
    const double secs = measure(s);
    if (secs < result.best_seconds) {
      result.best_seconds = secs;
      result.best = s;
    }
    result.trials.push_back({std::move(s), secs});
    return secs;
  };

  if (grid) {
    // Mixed-radix count over the lattice, last axis fastest.
    Point p(axes, 0);
    for (;;) {
      trial(p);
      std::size_t a = axes;
      while (a > 0 && ++p[a - 1] == space.sizes[a - 1]) p[--a] = 0;
      if (a == 0) break;
    }
  } else {
    lattice_climb(space.sizes, space.origin, options, trial);
  }
  FG_CHECK_MSG(std::isfinite(result.best_seconds),
               "tune needs at least one finite measurement");
  return result;
}

}  // namespace

TuneResult<CpuSpmmSchedule> tune(const TuneSpace<CpuSpmmSchedule>& space,
                                 const Measure<CpuSpmmSchedule>& measure,
                                 const TuneOptions& options) {
  return tune_impl(space, measure, options);
}

TuneResult<GpuSpmmSchedule> tune(const TuneSpace<GpuSpmmSchedule>& space,
                                 const Measure<GpuSpmmSchedule>& measure,
                                 const TuneOptions& options) {
  return tune_impl(space, measure, options);
}

// --- spaces ----------------------------------------------------------------

TuneSpace<CpuSpmmSchedule> paper_spmm_space(std::int64_t d_out,
                                            int num_threads) {
  static constexpr int kParts[] = {1, 2, 4, 8, 16, 32};
  std::vector<std::int64_t> tiles;
  for (std::int64_t tile : {0, 16, 32, 64, 128})
    if (tile <= d_out) tiles.push_back(tile);
  std::vector<LoadBalance> balances = load_balance_axis(num_threads);
  const std::vector<int> sizes = {static_cast<int>(std::size(kParts)),
                                  static_cast<int>(tiles.size()),
                                  static_cast<int>(balances.size())};
  return {sizes, {0, 0, 0},
          [tiles = std::move(tiles), balances = std::move(balances),
           num_threads](const std::vector<int>& p) {
            const int parts = kParts[p[0]];
            const std::int64_t tile = tiles[static_cast<std::size_t>(p[1])];
            const LoadBalance lb = balances[static_cast<std::size_t>(p[2])];
            ScheduleIr ir;
            if (parts > 1) ir.partition(parts);
            if (tile > 0) ir.tile(tile);
            if (lb != LoadBalance::kNnzBalanced) ir.split_nnz(lb);
            return spmm_schedule(ir, num_threads);
          }};
}

TuneSpace<CpuSpmmSchedule> ir_spmm_space(std::int64_t d_out,
                                         std::int64_t num_rows,
                                         int num_threads) {
  std::vector<CpuSpmmSchedule> list;
  const simd::Isa isa = simd::active_isa();
  auto push = [&](const ScheduleIr& ir) {
    // Illegal programs (tile not a lane multiple on this backend, chunk past
    // the row count, ...) are filtered here, never measured.
    if (!validate_spmm_ir(ir, num_rows, d_out, isa).empty()) return;
    list.push_back(spmm_schedule(ir, num_threads));
  };

  // Candidate #0: the empty program — the untuned default nest, so the
  // tuner's first measurement is always the baseline.
  push(ScheduleIr{});

  // Register-blocked feature tiles x row chunks. Tile widths are lane
  // multiples of SOME backend; the validator keeps only the ones legal for
  // the active one, so AVX2 and AVX-512 legs search different grids.
  for (std::int64_t w : {std::int64_t{8}, std::int64_t{16}, std::int64_t{32},
                         std::int64_t{64}}) {
    if (w > d_out) continue;
    for (int u : {1, 2, 4}) {
      for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{1024}}) {
        ScheduleIr ir;
        ir.tile(w);
        if (u > 1) ir.unroll(u);
        if (chunk > 0) ir.chunk(std::min(chunk, num_rows));
        push(ir);
      }
    }
  }

  // The template half: source partitioning, plain and register-blocked.
  std::int64_t w_widest = 0;
  for (std::int64_t w : {std::int64_t{8}, std::int64_t{16}, std::int64_t{32},
                         std::int64_t{64}}) {
    if (w <= d_out &&
        validate_spmm_ir(ScheduleIr().tile(w), num_rows, d_out, isa).empty())
      w_widest = w;
  }
  for (int parts : {2, 4, 8}) {
    push(ScheduleIr().partition(parts));
    if (w_widest > 0)
      push(ScheduleIr().partition(parts).tile(w_widest).unroll(4));
  }

  // The nnz-split policy flip, on the strongest blocked shape.
  for (LoadBalance lb : load_balance_axis(num_threads)) {
    if (lb == LoadBalance::kNnzBalanced) continue;  // the default policy
    ScheduleIr ir;
    ir.split_nnz(lb);
    if (w_widest > 0) ir.tile(w_widest).unroll(4);
    push(ir);
  }

  // Shard-parallel row sweeps (parallel/shard_exec.hpp). Only meaningful
  // with real lanes — at one thread the stealing executor degrades to the
  // serial sweep, so the 1-thread grid (and every recorded 1-core number)
  // is unchanged. 2x threads = minimal stealing headroom, 4x = the classic
  // over-decomposition point; each also tried register-blocked, plus a
  // coarser steal granularity on the bigger decomposition.
  if (num_threads > 1) {
    for (int mult : {2, 4}) {
      const int shards = mult * num_threads;
      push(ScheduleIr().shard(shards));
      if (w_widest > 0)
        push(ScheduleIr().shard(shards).tile(w_widest).unroll(4));
    }
    push(ScheduleIr().shard(4 * num_threads).steal_grain(2));
  }
  return list_space(std::move(list));
}

TuneSpace<GpuSpmmSchedule> gpu_attention_space() {
  static constexpr int kRowsPerTile[] = {32, 64, 128};
  static constexpr double kSoftmaxFrac[] = {0.25, 0.5, 0.75, 1.0};
  static constexpr LoadBalance kAssign[] = {LoadBalance::kNnzBalanced,
                                            LoadBalance::kStaticRows};
  const std::vector<int> sizes = {static_cast<int>(std::size(kRowsPerTile)),
                                  static_cast<int>(std::size(kSoftmaxFrac)),
                                  static_cast<int>(std::size(kAssign))};
  // Origin: 32-row tiles, an even smem split, nnz-balanced tiles.
  return {sizes, {0, 1, 0}, [](const std::vector<int>& p) {
            GpuSpmmSchedule s;
            s.hybrid_rows_per_tile = kRowsPerTile[p[0]];
            s.attention_softmax_smem_frac = kSoftmaxFrac[p[1]];
            s.hybrid_partition = s.attention_softmax_smem_frac < 1.0;
            s.row_assignment = kAssign[p[2]];
            return s;
          }};
}

// --- measures --------------------------------------------------------------

Measure<CpuSpmmSchedule> spmm_measure(const graph::Csr& adj,
                                      std::string_view msg_op,
                                      std::string_view reduce_op,
                                      const SpmmOperands& operands,
                                      int timing_reps) {
  return [&adj, msg_op = std::string(msg_op),
          reduce_op = std::string(reduce_op), operands,
          timing_reps](const CpuSpmmSchedule& sched) {
    return support::time_mean_seconds(
        [&] { (void)spmm(adj, msg_op, reduce_op, sched, operands); },
        timing_reps);
  };
}

Measure<CpuSpmmSchedule> attention_measure(const graph::Csr& adj,
                                           std::string_view msg_op,
                                           const AttentionOperands& operands,
                                           int timing_reps) {
  return [&adj, msg_op = std::string(msg_op), operands,
          timing_reps](const CpuSpmmSchedule& sched) {
    return support::time_mean_seconds(
        [&] { (void)attention(adj, msg_op, sched, operands); }, timing_reps);
  };
}

Measure<GpuSpmmSchedule> gpu_attention_measure(
    const graph::Csr& adj, std::string_view msg_op,
    const AttentionOperands& operands, const gpusim::DeviceSpec& spec) {
  return [&adj, msg_op = std::string(msg_op), operands,
          spec](const GpuSpmmSchedule& sched) {
    return gpusim::attention_gpu(adj, msg_op, sched, operands, spec)
        .cost.total_s;
  };
}

CpuSpmmSchedule heuristic_spmm_schedule(const graph::Csr& adj,
                                        std::int64_t d_feat, int num_threads) {
  // Feature tiles of 64 (a multiple of every backend's lane width, so the
  // program is legal on every ISA; narrower features run untiled) and the
  // default nnz-balanced row split, never worse on skewed graphs.
  const std::int64_t tile = std::min<std::int64_t>(d_feat, 64);
  const double src_bytes = static_cast<double>(adj.num_cols) *
                           static_cast<double>(tile) * sizeof(float);
  const double budget = 12.5 * 1024 * 1024;  // half of the paper's 25 MB LLC
  int parts = 1;
  while (parts < 64 && src_bytes / parts > budget) parts *= 2;
  ScheduleIr ir;
  if (parts > 1) ir.partition(parts);
  if (d_feat > 64) ir.tile(64);
  return spmm_schedule(ir, num_threads);
}

}  // namespace featgraph::core
