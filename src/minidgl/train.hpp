// Full-batch training / inference driver for the end-to-end experiments
// (paper Table VI and the Sec. V-E accuracy check).
#pragma once

#include <string>
#include <vector>

#include "minidgl/data.hpp"
#include "minidgl/modules.hpp"
#include "minidgl/optim.hpp"
#include "sample/pipeline.hpp"
#include "serve/feature_cache.hpp"
#include "serve/server.hpp"

namespace featgraph::minidgl {

struct EpochResult {
  float loss = 0.0f;
  double train_accuracy = 0.0;
  /// Wall-clock seconds on CPU; simulated seconds on kGpuSim.
  double seconds = 0.0;
  /// Materialized message bytes this epoch (0 for the fused backend).
  double materialized_bytes = 0.0;
  /// High-water of planned live intermediate bytes (lazy-graph buffer
  /// planner) across the epoch's forward runs.
  double peak_bytes = 0.0;
};

/// Knobs of one minibatch block-inference epoch (the serving loop).
struct MinibatchInferOptions {
  /// Per-layer fanouts, input layer first; {-1, -1} = full fanout (exactly
  /// reproduces full-graph inference, bit for bit).
  sample::SamplerConfig sampler{{-1, -1}, false, 1};
  std::int64_t batch_size = 256;
  /// Run ExecContext::num_threads batches at once, one per lane, kernels
  /// inline (sample::PipelineOptions); false = one batch at a time with
  /// threaded kernels. Both write identical bytes.
  bool pipelined = true;
  /// Grid-tune the first block of each shape class (default: O(1)
  /// heuristic). Either way the winner is memoized in the shape-class
  /// schedule cache, so tuning cost amortizes across the batch stream.
  bool tune_schedules = false;
};

struct MinibatchInferResult {
  /// Accuracy over the seed rows this epoch inferred.
  double accuracy = 0.0;
  /// Wall-clock seconds on CPU; simulated seconds on kGpuSim.
  double seconds = 0.0;
  /// Per-seed log-probabilities, row i for seed rows[i].
  tensor::Tensor log_probs;
  sample::PipelineStats pipeline;
  std::int64_t schedule_cache_hits = 0;
  std::int64_t schedule_cache_misses = 0;
  /// High-water of planned live intermediate bytes over the block forwards.
  double peak_bytes = 0.0;
};

/// Knobs of the multi-tenant per-request serving path (src/serve).
struct ServeRequestsOptions {
  /// Sampler config every request is served under; admission.rng_stream is
  /// the shared batch_index (solo == coalesced by the per-vertex stream
  /// contract).
  sample::SamplerConfig sampler{{-1, -1}, false, 1};
  serve::ServeOptions admission;
  /// false = serve every request as its own batch (the solo baseline the
  /// coalesced path is pinned bit-identical against).
  bool coalesce = true;
  /// Hot-vertex feature cache in front of the input gather; 0 disables.
  std::int64_t feature_cache_rows = 4096;
  /// Grid-tune the first block of each shape class (as infer_minibatch).
  bool tune_schedules = false;
  /// Schedule-IR program every served block launch runs under (set as
  /// ExecContext::block_schedule_ir for the duration of the call, then
  /// restored). A shard(S) program here runs the serving path
  /// shard-parallel with work stealing (parallel/shard_exec.hpp) — S is
  /// clamped to each block's row count, so one program serves every coalesced
  /// batch shape; outputs stay bit-identical to the unsharded baseline.
  std::shared_ptr<const core::ScheduleIr> block_schedule_ir;
};

struct ServeRequestsResult {
  /// outputs[r]: per-seed log-probabilities of request r, row k for seed k.
  std::vector<tensor::Tensor> outputs;
  serve::ServeStats stats;
  serve::FeatureCache::Stats cache;
  std::int64_t schedule_cache_hits = 0;
  std::int64_t schedule_cache_misses = 0;
  double seconds = 0.0;
};

class Trainer {
 public:
  Trainer(const ClassificationData& data, Model model, ExecContext ctx,
          float lr = 0.01f);

  /// One full-batch training epoch (forward + loss + backward + Adam step).
  EpochResult train_epoch();

  /// One inference pass (forward only), reporting test accuracy.
  EpochResult infer();

  /// Minibatch block inference over the seed vertices `rows` (default: the
  /// test split): neighbor sampling + SIMD feature gather feed the
  /// batch-parallel serving loop; each batch runs the model's block forward
  /// on its own ExecContext copy and writes its fixed output rows, so
  /// log_probs and the accounting are the same at every lane count. GCN
  /// and GraphSage models only.
  MinibatchInferResult infer_minibatch(const MinibatchInferOptions& options,
                                       const std::vector<std::int64_t>& rows);
  MinibatchInferResult infer_minibatch(const MinibatchInferOptions& options);

  /// Multi-tenant per-request inference (src/serve): each entry of
  /// `request_seeds` is one tenant query (a duplicate-free seed set); with
  /// options.coalesce the requests are merged into shared minibatches under
  /// the admission caps, sampled/gathered/computed ONCE, and scattered back
  /// — each request's output rows bit-identical to serving it alone
  /// (options.coalesce = false), feature cache on or off. GCN and GraphSage
  /// models only (same block-forward constraint as infer_minibatch).
  ServeRequestsResult serve_requests(
      const ServeRequestsOptions& options,
      const std::vector<std::vector<std::int64_t>>& request_seeds);

  /// Builds the serving compute callback over this trainer's model +
  /// context (block forward -> log-probabilities per merged seed), for
  /// callers wiring their own serve::ServingEngine / serve::Server. The
  /// callback borrows the trainer; it must not outlive it. `schedule_cache`
  /// (optional) routes the block launches through a shape-class memo as
  /// infer_minibatch does.
  serve::BatchComputeFn make_serve_compute(
      sample::BlockScheduleCache* schedule_cache, bool tune_schedules);

  /// Test accuracy of the current parameters.
  double test_accuracy();

  ExecContext& context() { return ctx_; }
  const Model& model() const { return model_; }

 private:
  const ClassificationData* data_;
  Model model_;
  ExecContext ctx_;
  Adam optimizer_;
};

/// Trains for `epochs` and returns per-epoch results.
std::vector<EpochResult> train(Trainer& trainer, int epochs);

}  // namespace featgraph::minidgl
