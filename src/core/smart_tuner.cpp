#include "core/smart_tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "core/schedule_ir.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace featgraph::core {

namespace {

/// Canonical key for memoizing measured lattice points.
using Point = std::vector<int>;

/// Tile widths min_tile, 2 min_tile, ... below d_out that are legal on the
/// active backend, after 0 = untiled (full width).
std::vector<std::int64_t> tile_axis(std::int64_t d_out, std::int64_t min_tile) {
  std::vector<std::int64_t> axis = {0};
  for (std::int64_t t = std::max<std::int64_t>(min_tile, 1); t < d_out;
       t *= 2) {
    if (validate_spmm_ir(ScheduleIr().tile(t), 1, d_out, simd::active_isa())
            .empty())
      axis.push_back(t);
  }
  return axis;
}

std::vector<int> partition_axis(std::int64_t max_partitions) {
  std::vector<int> axis;
  for (int p = 1; p <= max_partitions; p *= 2) axis.push_back(p);
  return axis;
}

/// The scaffold every smart tuner shares: random-restart greedy descent over
/// an N-axis lattice — each axis stepped +-1 (a two-point policy axis gets
/// its flip as the same move) — with memoized measurements and a hard trial
/// budget. `measure_at(point)` runs ONE measurement and returns its seconds
/// (the caller's closure does its own best-schedule bookkeeping); `seed0` is
/// the deterministic first seed point, later seeds are uniform random.
/// Returns the number of measurements spent.
template <class MeasureAt>
int lattice_climb(const std::vector<int>& sizes, const Point& seed0,
                  const SmartTuneOptions& options, const MeasureAt& measure_at) {
  const std::size_t axes = sizes.size();
  FG_CHECK(seed0.size() == axes);
  FG_TRACE_SCOPE("tuner.smart_climb",
                 obs::arg("axes", static_cast<std::int64_t>(axes)),
                 obs::arg("max_trials", options.max_trials));
  std::map<Point, double> measured;
  int trials_used = 0;

  auto eval = [&](const Point& p) -> double {
    auto it = measured.find(p);
    if (it != measured.end()) return it->second;
    if (trials_used >= options.max_trials)
      return std::numeric_limits<double>::infinity();
    static obs::Counter& obs_trials =
        obs::Registry::global().counter("tuner.trial.count");
    obs_trials.add(1);
    FG_TRACE_SCOPE("tuner.trial");
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
  return trials_used;
}

}  // namespace

SmartTuneResult smart_tune_spmm(std::int64_t d_out, int num_threads,
                                const MeasureFn& measure,
                                const SmartTuneOptions& options) {
  FG_CHECK(options.max_trials >= 1);
  const auto tiles = tile_axis(d_out, options.min_tile);
  const auto parts = partition_axis(options.max_partitions);
  const auto balances = load_balance_axis(num_threads);

  SmartTuneResult result;
  result.best_seconds = std::numeric_limits<double>::infinity();

  // Seed point: the empty program (1 partition, untiled, nnz-balanced).
  result.trials_used = lattice_climb(
      {static_cast<int>(parts.size()), static_cast<int>(tiles.size()),
       static_cast<int>(balances.size())},
      {0, 0, 0}, options, [&](const std::vector<int>& p) {
        const int n_parts = parts[static_cast<std::size_t>(p[0])];
        const std::int64_t tile = tiles[static_cast<std::size_t>(p[1])];
        const LoadBalance lb = balances[static_cast<std::size_t>(p[2])];
        ScheduleIr ir;
        if (n_parts > 1) ir.partition(n_parts);
        if (tile > 0) ir.tile(tile);
        if (lb != LoadBalance::kNnzBalanced) ir.split_nnz(lb);
        const CpuSpmmSchedule s = spmm_schedule(ir, num_threads);
        const double secs = measure(s);
        if (secs < result.best_seconds) {
          result.best_seconds = secs;
          result.best = s;
        }
        return secs;
      });
  FG_CHECK_MSG(std::isfinite(result.best_seconds),
               "smart_tune_spmm needs at least one successful measurement");
  return result;
}

SmartTuneResult smart_tune_spmm_ir(std::int64_t d_out, std::int64_t num_rows,
                                   int num_threads, const MeasureFn& measure,
                                   const SmartTuneOptions& options) {
  FG_CHECK(options.max_trials >= 1);
  const simd::Isa isa = simd::active_isa();

  // Every lattice point must be a LEGAL, DISTINCT program (illegal or
  // duplicate points would burn budget on wasted or repeated measurements),
  // so tile and unroll fuse into one combo axis: (0, 1) is "untiled" and
  // unroll only appears under a tile. The widths themselves are pre-filtered
  // through the validator, so AVX2 and AVX-512 legs climb different axes.
  std::vector<std::pair<std::int64_t, int>> tile_unroll = {{0, 1}};
  for (std::int64_t w = options.min_tile; w <= std::min<std::int64_t>(d_out, 128);
       w *= 2) {
    if (!validate_spmm_ir(ScheduleIr().tile(w), num_rows, d_out, isa).empty())
      continue;
    for (int u : {1, 2, 4}) tile_unroll.push_back({w, u});
  }
  const auto parts = partition_axis(options.max_partitions);
  std::vector<std::int64_t> chunks = {0};
  for (std::int64_t c : {std::int64_t{256}, std::int64_t{1024},
                         std::int64_t{4096}}) {
    if (c <= num_rows) chunks.push_back(c);
  }
  const auto balances = load_balance_axis(num_threads);
  // Shard axis (0 = unsharded). Only populated with real lanes, so the
  // 1-thread lattice — and the deterministic search walk every recorded
  // 1-core tuning took — is unchanged: a size-1 axis admits no moves.
  std::vector<int> shard_counts = {0};
  if (num_threads > 1) {
    for (int mult : {2, 4, 8}) shard_counts.push_back(mult * num_threads);
  }

  SmartTuneResult result;
  result.best_seconds = std::numeric_limits<double>::infinity();

  // Seed point: all zeros = the EMPTY program, the untuned default nest —
  // the first measurement is the baseline.
  result.trials_used = lattice_climb(
      {static_cast<int>(parts.size()), static_cast<int>(tile_unroll.size()),
       static_cast<int>(chunks.size()), static_cast<int>(balances.size()),
       static_cast<int>(shard_counts.size())},
      {0, 0, 0, 0, 0}, options, [&](const std::vector<int>& p) {
        const int n_parts = parts[static_cast<std::size_t>(p[0])];
        const auto [w, u] = tile_unroll[static_cast<std::size_t>(p[1])];
        const std::int64_t chunk = chunks[static_cast<std::size_t>(p[2])];
        const LoadBalance lb = balances[static_cast<std::size_t>(p[3])];
        const int n_shards = shard_counts[static_cast<std::size_t>(p[4])];
        ScheduleIr ir;
        if (n_parts > 1) ir.partition(n_parts);
        if (w > 0) {
          ir.tile(w);
          if (u > 1) ir.unroll(u);
        }
        if (chunk > 0) ir.chunk(chunk);
        if (lb != LoadBalance::kNnzBalanced) ir.split_nnz(lb);
        if (n_shards > 0) ir.shard(n_shards);
        const CpuSpmmSchedule s = spmm_schedule(ir, num_threads);
        const double secs = measure(s);
        if (secs < result.best_seconds) {
          result.best_seconds = secs;
          result.best = s;
        }
        return secs;
      });
  FG_CHECK_MSG(std::isfinite(result.best_seconds),
               "smart_tune_spmm_ir needs at least one successful measurement");
  return result;
}

GpuSmartTuneResult smart_tune_gpu_attention(const GpuMeasureFn& measure,
                                            const SmartTuneOptions& options) {
  FG_CHECK(options.max_trials >= 1);
  // The lattice: staging-tile size x smem split x tile row assignment.
  const std::vector<int> tile_axis_v = {8, 16, 32, 64, 128, 256};
  const std::vector<double> frac_axis = {0.2, 0.35, 0.5, 0.65, 0.8};
  const std::vector<LoadBalance> assign_axis = {LoadBalance::kNnzBalanced,
                                                LoadBalance::kStaticRows};

  GpuSmartTuneResult result;
  result.best_seconds = std::numeric_limits<double>::infinity();

  // Seed point: the schedule defaults (32-row tiles, even split,
  // nnz-balanced).
  result.trials_used = lattice_climb(
      {static_cast<int>(tile_axis_v.size()), static_cast<int>(frac_axis.size()),
       static_cast<int>(assign_axis.size())},
      {2, 2, 0}, options, [&](const std::vector<int>& p) {
        GpuSpmmSchedule s;
        s.hybrid_partition = true;
        s.hybrid_rows_per_tile = tile_axis_v[static_cast<std::size_t>(p[0])];
        s.attention_softmax_smem_frac =
            frac_axis[static_cast<std::size_t>(p[1])];
        s.row_assignment = assign_axis[static_cast<std::size_t>(p[2])];
        const double secs = measure(s);
        if (secs < result.best_seconds) {
          result.best_seconds = secs;
          result.best = s;
        }
        return secs;
      });
  FG_CHECK_MSG(
      std::isfinite(result.best_seconds),
      "smart_tune_gpu_attention needs at least one successful measurement");
  return result;
}

}  // namespace featgraph::core
