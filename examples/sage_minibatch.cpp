// End-to-end minibatch serving with the sampling subsystem: train a
// GraphSage model full-batch, then serve inference through the
// batch-parallel neighbor-sampling loop (src/sample) — sampled fanouts for
// throughput, and a full-fanout run demonstrating the bit-exactness
// contract against full-graph inference.
//
//   $ ./example_sage_minibatch
#include <cmath>
#include <cstdio>

#include "minidgl/train.hpp"
#include "support/timer.hpp"

namespace fg = featgraph;
using fg::minidgl::ExecContext;
using fg::minidgl::MinibatchInferOptions;
using fg::minidgl::Model;
using fg::minidgl::Trainer;

int main() {
  const auto data = fg::minidgl::make_sbm_classification(
      /*n=*/4000, /*avg_degree=*/20.0, /*num_classes=*/6, /*p_in=*/0.85,
      /*feat_dim=*/32, /*signal=*/1.5f, /*seed=*/11);
  std::printf("task: %d vertices, %lld edges, %zu test seeds\n",
              data.graph.num_vertices(),
              static_cast<long long>(data.graph.num_edges()),
              data.test_rows.size());

  ExecContext ctx;
  ctx.num_threads = 2;
  Trainer trainer(data, Model("sage-mean", 32, 64, 6, /*seed=*/1), ctx,
                  /*lr=*/0.05f);
  for (int epoch = 0; epoch < 15; ++epoch) trainer.train_epoch();
  const double full_acc = trainer.test_accuracy();
  std::printf("trained 2-layer GraphSage; full-graph test accuracy %.3f\n\n",
              full_acc);

  // Serving mode: sampled fanouts, one batch per lane on ctx.num_threads
  // lanes (each lane samples, gathers and computes its own batch).
  MinibatchInferOptions opts;
  opts.sampler.fanouts = {10, 10};
  opts.sampler.seed = 7;
  opts.batch_size = 256;
  const auto sampled = trainer.infer_minibatch(opts);
  std::printf(
      "minibatch inference, fanout 10x10, batch 256:\n"
      "  accuracy %.3f (full-graph %.3f)  %.0f ms over %lld batches\n"
      "  pipeline: overlapped=%s  produce %.0f ms / consume %.0f ms "
      "(summed over lanes)\n"
      "  schedule cache: %lld hits / %lld misses\n\n",
      sampled.accuracy, full_acc, sampled.seconds * 1e3,
      static_cast<long long>(sampled.pipeline.batches),
      sampled.pipeline.overlapped ? "yes" : "no",
      sampled.pipeline.produce_seconds * 1e3,
      sampled.pipeline.consume_seconds * 1e3,
      static_cast<long long>(sampled.schedule_cache_hits),
      static_cast<long long>(sampled.schedule_cache_misses));

  // Full fanout: minibatch inference must reproduce full-graph inference
  // exactly — same kernels, same edge order, same bits.
  MinibatchInferOptions full;
  full.sampler.fanouts = {-1, -1};
  const auto exact = trainer.infer_minibatch(full);
  std::printf("full-fanout minibatch accuracy %.3f — %s full-graph\n",
              exact.accuracy,
              std::fabs(exact.accuracy - full_acc) < 1e-12 ? "matches"
                                                           : "DIFFERS FROM");
  return exact.accuracy == full_acc ? 0 : 1;
}
