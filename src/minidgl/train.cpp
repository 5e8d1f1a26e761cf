#include "minidgl/train.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sample/neighbor_sampler.hpp"
#include "support/timer.hpp"

namespace featgraph::minidgl {

Trainer::Trainer(const ClassificationData& data, Model model, ExecContext ctx,
                 float lr)
    : data_(&data),
      model_(std::move(model)),
      ctx_(ctx),
      optimizer_(model_.parameters(), lr) {}

EpochResult Trainer::train_epoch() {
  static obs::Counter& obs_epochs =
      obs::Registry::global().counter("train.epoch.count");
  obs_epochs.add(1);
  FG_TRACE_SCOPE("train.epoch");
  EpochResult result;
  ctx_.reset_accounting();
  support::Timer timer;

  // Shared-storage view: Tensor copies alias the buffer, the leaf never
  // requires grad, and no lazy-graph step mutates leaf storage — so the
  // former defensive clone() was a pure |V| x d copy per epoch.
  Var x = make_leaf(data_->features, false, "features");
  Var log_probs = model_.forward(ctx_, data_->graph, x);
  Var loss = nll_loss(ctx_, log_probs, data_->labels, data_->train_rows);
  optimizer_.zero_grad();
  backward(loss);
  optimizer_.step();

  result.loss = loss->value().at(0);
  result.train_accuracy =
      accuracy(log_probs->value(), data_->labels, data_->train_rows);
  result.seconds =
      ctx_.device == Device::kGpuSim ? ctx_.sim_seconds : timer.seconds();
  result.materialized_bytes = ctx_.materialized_bytes;
  result.peak_bytes = ctx_.peak_bytes;
  return result;
}

EpochResult Trainer::infer() {
  static obs::Counter& obs_infers =
      obs::Registry::global().counter("train.infer.count");
  obs_infers.add(1);
  FG_TRACE_SCOPE("train.infer");
  EpochResult result;
  ctx_.reset_accounting();
  support::Timer timer;

  // Shared-storage view: Tensor copies alias the buffer, the leaf never
  // requires grad, and no lazy-graph step mutates leaf storage — so the
  // former defensive clone() was a pure |V| x d copy per epoch.
  Var x = make_leaf(data_->features, false, "features");
  Var log_probs = model_.forward(ctx_, data_->graph, x);

  result.loss = 0.0f;
  result.train_accuracy =
      accuracy(log_probs->value(), data_->labels, data_->test_rows);
  result.seconds =
      ctx_.device == Device::kGpuSim ? ctx_.sim_seconds : timer.seconds();
  result.materialized_bytes = ctx_.materialized_bytes;
  result.peak_bytes = ctx_.peak_bytes;
  return result;
}

MinibatchInferResult Trainer::infer_minibatch(
    const MinibatchInferOptions& options,
    const std::vector<std::int64_t>& rows) {
  MinibatchInferResult result;
  ctx_.reset_accounting();
  support::Timer timer;

  std::vector<graph::vid_t> seeds;
  seeds.reserve(rows.size());
  for (const std::int64_t r : rows)
    seeds.push_back(static_cast<graph::vid_t>(r));

  sample::NeighborSampler sampler(data_->graph.in_csr(), options.sampler);
  sample::PipelineOptions popts;
  popts.batch_size = options.batch_size;
  popts.pipelined = options.pipelined;
  popts.num_threads = ctx_.num_threads;

  const std::int64_t num_classes = data_->num_classes;
  result.log_probs =
      tensor::Tensor({static_cast<std::int64_t>(seeds.size()), num_classes});

  // Route the block launches through one shape-class schedule cache for the
  // whole epoch. Each batch runs on its own copy of the context, so lanes
  // share no mutable state; the copies' accounting is merged in batch-index
  // order below, independent of lane timing.
  sample::BlockScheduleCache schedule_cache;
  ExecContext block_ctx = ctx_;
  block_ctx.schedule_cache = &schedule_cache;
  block_ctx.tune_block_schedules = options.tune_schedules;
  const std::int64_t num_batches =
      (static_cast<std::int64_t>(seeds.size()) + options.batch_size - 1) /
      options.batch_size;
  std::vector<ExecContext> batch_ctx(static_cast<std::size_t>(num_batches));

  result.pipeline = sample::run_pipeline(
      sampler, data_->features, seeds, popts,
      [&](sample::PreparedBatch& batch) {
        ExecContext& ctx = batch_ctx[static_cast<std::size_t>(batch.index)];
        ctx = block_ctx;
        Var x = make_leaf(std::move(batch.input_feats), false, "block_feats");
        Var lp = model_.forward(ctx, batch.blocks, x);
        const tensor::Tensor& v = lp->value();
        std::memcpy(result.log_probs.row(batch.index * options.batch_size),
                    v.data(),
                    static_cast<std::size_t>(v.numel()) * sizeof(float));
      });

  for (const ExecContext& acct : batch_ctx) {
    ctx_.sim_seconds += acct.sim_seconds;
    ctx_.materialized_bytes += acct.materialized_bytes;
    ctx_.peak_bytes = std::max(ctx_.peak_bytes, acct.peak_bytes);
  }
  result.schedule_cache_hits = schedule_cache.hits();
  result.schedule_cache_misses = schedule_cache.misses();

  // Batch i wrote rows [i * batch_size, ...), so log_probs row i belongs to
  // rows[i].
  std::size_t correct = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const float* lp = result.log_probs.row(static_cast<std::int64_t>(i));
    std::int64_t best = 0;
    for (std::int64_t cls = 1; cls < num_classes; ++cls)
      if (lp[cls] > lp[best]) best = cls;
    if (best == data_->labels[static_cast<std::size_t>(rows[i])]) ++correct;
  }
  result.accuracy = rows.empty()
                        ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(rows.size());
  result.seconds =
      ctx_.device == Device::kGpuSim ? ctx_.sim_seconds : timer.seconds();
  result.peak_bytes = ctx_.peak_bytes;
  return result;
}

MinibatchInferResult Trainer::infer_minibatch(
    const MinibatchInferOptions& options) {
  return infer_minibatch(options, data_->test_rows);
}

serve::BatchComputeFn Trainer::make_serve_compute(
    sample::BlockScheduleCache* schedule_cache, bool tune_schedules) {
  return [this, schedule_cache, tune_schedules](
             const sample::MinibatchBlocks& blocks,
             tensor::Tensor input_feats) {
    // Route the block launches through the shape-class memo for the call,
    // then restore — mirrors infer_minibatch's discipline (schedules served
    // from the cache never partition, part of the solo-vs-coalesced
    // bit-identity contract: partitioned folds regroup a destination row's
    // accumulation by source bucket, which depends on the merged block's
    // column count).
    sample::BlockScheduleCache* prev_cache = ctx_.schedule_cache;
    const bool prev_tune = ctx_.tune_block_schedules;
    ctx_.schedule_cache = schedule_cache;
    ctx_.tune_block_schedules = tune_schedules;
    Var x = make_leaf(std::move(input_feats), false, "request_feats");
    Var lp = model_.forward(ctx_, blocks, x);
    ctx_.schedule_cache = prev_cache;
    ctx_.tune_block_schedules = prev_tune;
    return lp->value();
  };
}

ServeRequestsResult Trainer::serve_requests(
    const ServeRequestsOptions& options,
    const std::vector<std::vector<std::int64_t>>& request_seeds) {
  ServeRequestsResult result;
  ctx_.reset_accounting();
  support::Timer timer;

  sample::NeighborSampler sampler(data_->graph.in_csr(), options.sampler);
  serve::FeatureCache cache(options.feature_cache_rows,
                            data_->features.row_size());
  sample::BlockScheduleCache schedule_cache;

  // Run every served block launch under the caller's Schedule-IR program
  // (e.g. shard(S) for the shard-parallel serving path), restored on exit —
  // the same set/restore discipline make_serve_compute applies to the
  // schedule cache. The program hash keys the cache, so batches served
  // under different programs never alias one shape class.
  std::shared_ptr<const core::ScheduleIr> prev_ir = ctx_.block_schedule_ir;
  if (options.block_schedule_ir != nullptr)
    ctx_.block_schedule_ir = options.block_schedule_ir;

  serve::ServeOptions admission = options.admission;
  admission.num_threads = ctx_.num_threads;
  serve::ServingEngine engine(
      sampler, data_->features,
      make_serve_compute(&schedule_cache, options.tune_schedules), admission,
      options.feature_cache_rows > 0 ? &cache : nullptr);

  // Deterministic grouping: coalesce packs requests into batches in order
  // under the admission caps (what a fully-loaded live server converges
  // to); solo serves each alone — the baseline the coalesced outputs are
  // pinned bitwise against.
  std::vector<serve::Request> pending;
  pending.reserve(request_seeds.size());
  for (std::size_t r = 0; r < request_seeds.size(); ++r) {
    serve::Request req;
    req.id = static_cast<std::int64_t>(r);
    req.seeds.reserve(request_seeds[r].size());
    for (const std::int64_t s : request_seeds[r])
      req.seeds.push_back(static_cast<graph::vid_t>(s));
    pending.push_back(std::move(req));
  }

  result.outputs.reserve(pending.size());
  std::size_t i = 0;
  while (i < pending.size()) {
    std::vector<serve::Request> group;
    std::int64_t seeds_taken = 0;
    while (i < pending.size() &&
           static_cast<int>(group.size()) <
               (options.coalesce ? admission.max_requests_per_batch : 1) &&
           (group.empty() ||
            seeds_taken + static_cast<std::int64_t>(pending[i].seeds.size()) <=
                admission.max_seeds_per_batch)) {
      seeds_taken += static_cast<std::int64_t>(pending[i].seeds.size());
      group.push_back(std::move(pending[i]));
      ++i;
    }
    std::vector<tensor::Tensor> outs = engine.serve_batch(std::move(group));
    for (auto& o : outs) result.outputs.push_back(std::move(o));
  }

  ctx_.block_schedule_ir = prev_ir;
  result.stats = engine.stats();
  result.cache = cache.stats();
  result.schedule_cache_hits = schedule_cache.hits();
  result.schedule_cache_misses = schedule_cache.misses();
  result.seconds =
      ctx_.device == Device::kGpuSim ? ctx_.sim_seconds : timer.seconds();
  return result;
}

double Trainer::test_accuracy() {
  // Shared-storage view: Tensor copies alias the buffer, the leaf never
  // requires grad, and no lazy-graph step mutates leaf storage — so the
  // former defensive clone() was a pure |V| x d copy per epoch.
  Var x = make_leaf(data_->features, false, "features");
  Var log_probs = model_.forward(ctx_, data_->graph, x);
  return accuracy(log_probs->value(), data_->labels, data_->test_rows);
}

std::vector<EpochResult> train(Trainer& trainer, int epochs) {
  std::vector<EpochResult> history;
  history.reserve(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) history.push_back(trainer.train_epoch());
  return history;
}

}  // namespace featgraph::minidgl
