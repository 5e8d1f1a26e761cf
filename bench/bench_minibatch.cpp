// Minibatch serving-loop benchmark: pipelined (T batch lanes, kernels
// inline) vs serial (one batch at a time, T-thread kernels) epoch time for
// GraphSage block inference over an SBM graph, T = hardware concurrency,
// plus the shape-class schedule cache's hit rate after warmup.
// Appends/refreshes the "minibatch_pipeline" section of BENCH_kernels.json
// (the file bench_micro_kernels seeds), so successive PRs keep one
// trajectory file.
//
//   $ ./bench_minibatch
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "common.hpp"
#include "minidgl/train.hpp"

namespace fg = featgraph;
using fg::minidgl::ExecContext;
using fg::minidgl::MinibatchInferOptions;
using fg::minidgl::Model;
using fg::minidgl::Trainer;


int main() {
  fg::bench::print_banner("minibatch_pipeline",
                          "pipelined vs serial minibatch block inference");
  const double scale = fg::bench::dataset_scale();
  const auto n = static_cast<fg::graph::vid_t>(32768 * scale * 10);
  const auto data = fg::minidgl::make_sbm_classification(
      n, /*avg_degree=*/16.0, /*num_classes=*/8, /*p_in=*/0.85,
      /*feat_dim=*/64, /*signal=*/1.5f, /*seed=*/7);
  std::printf("graph: %d vertices, %lld edges, feat 64\n",
              data.graph.num_vertices(),
              static_cast<long long>(data.graph.num_edges()));

  ExecContext ctx;
  ctx.num_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::printf("threads: %d\n", ctx.num_threads);
  Trainer trainer(data, Model("sage-mean", 64, 64, 8, /*seed=*/1), ctx,
                  0.05f);

  // Every vertex is a serving seed: one "epoch" = full inference pass.
  std::vector<std::int64_t> rows(
      static_cast<std::size_t>(data.graph.num_vertices()));
  for (std::size_t i = 0; i < rows.size(); ++i)
    rows[i] = static_cast<std::int64_t>(i);

  MinibatchInferOptions opts;
  opts.sampler.fanouts = {10, 10};
  opts.sampler.seed = 3;
  opts.batch_size = 512;

  const int reps = fg::support::bench_reps();
  const auto run = [&](bool pipelined, bool record_cache) {
    opts.pipelined = pipelined;
    double best = 0.0;
    std::int64_t hits = 0, misses = 0, batches = 0;
    // Warmup epoch populates the schedule cache classes... except the cache
    // lives per-epoch inside infer_minibatch, so each epoch re-warms its
    // own; the recorded hit rate is a steady-state per-epoch figure.
    for (int r = 0; r < reps + 1; ++r) {
      const auto res = trainer.infer_minibatch(opts, rows);
      if (r == 0) continue;  // warm-up
      if (best == 0.0 || res.seconds < best) best = res.seconds;
      if (record_cache) {
        hits = res.schedule_cache_hits;
        misses = res.schedule_cache_misses;
        batches = res.pipeline.batches;
      }
    }
    struct R {
      double sec;
      std::int64_t hits, misses, batches;
    };
    return R{best, hits, misses, batches};
  };

  const auto serial = run(false, false);
  const auto piped = run(true, true);
  const double hit_rate =
      piped.hits + piped.misses > 0
          ? static_cast<double>(piped.hits) /
                static_cast<double>(piped.hits + piped.misses)
          : 0.0;

  std::printf(
      "serial  epoch: %.3f s\npipelined epoch: %.3f s (%.2fx)\n"
      "schedule cache after warmup: %lld hits / %lld misses (%.0f%% hit "
      "rate) over %lld batches\n",
      serial.sec, piped.sec, serial.sec / piped.sec,
      static_cast<long long>(piped.hits),
      static_cast<long long>(piped.misses), hit_rate * 100.0,
      static_cast<long long>(piped.batches));

  char body[1024];
  std::snprintf(
      body, sizeof body,
      "{\n"
      "    \"graph\": {\"generator\": \"sbm\", \"n\": %d, \"avg_degree\": 16, "
      "\"feature_dim\": 64},\n"
      "    \"model\": \"sage-mean\",\n"
      "    \"fanouts\": [10, 10],\n"
      "    \"batch_size\": 512,\n"
      "    \"threads\": %d,\n"
      "    \"batches_per_epoch\": %lld,\n"
      "    \"serial_epoch_sec\": %.6f,\n"
      "    \"pipelined_epoch_sec\": %.6f,\n"
      "    \"pipelined_speedup\": %.2f,\n"
      "    \"schedule_cache_hits\": %lld,\n"
      "    \"schedule_cache_misses\": %lld,\n"
      "    \"schedule_cache_hit_rate\": %.3f\n"
      "  }",
      data.graph.num_vertices(), ctx.num_threads,
      static_cast<long long>(piped.batches),
      serial.sec, piped.sec, serial.sec / piped.sec,
      static_cast<long long>(piped.hits),
      static_cast<long long>(piped.misses), hit_rate);
  fg::bench::splice_json_section("BENCH_kernels.json", "minibatch_pipeline",
                                 body);
  std::printf("BENCH_kernels.json: minibatch_pipeline section updated\n");
  return 0;
}
