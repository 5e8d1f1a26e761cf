// End-to-end benchmark of the FeatGraph stack. README.md in this directory
// lists the workloads, every metric with its unit and bound, and which
// end-to-end metric each per-layer metric should move.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-json <path>]
//   bench_e2e --self-test
//
// The run generates its inputs from --seed, builds the trainer or serving
// engine (set-up), then repeats the workload's iteration for --seconds,
// calling only the layers' public functions. It checks the outputs, prints
// every metric by name with its unit, and ends stdout with one JSON line.
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// alternates traced and untraced iterations, runs the per-layer probes and
// reports the per-layer metrics; --trace-json names the Chrome trace file
// of its last iteration and probes. The exit code is 0 only when every
// check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/attention.hpp"
#include "core/partition_cache.hpp"
#include "core/spmm.hpp"
#include "core/tuner.hpp"
#include "e2e_stats.hpp"
#include "minidgl/train.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sample/feature_loader.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "tensor/ops.hpp"

namespace fg = featgraph;
using fg::e2e::Metric;
using fg::minidgl::Trainer;

namespace {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_json;
  /// Kernel, sampling and serving threads: min(4, nproc). The pool gets
  /// threads - 1 workers, so workers plus the caller never exceed nproc.
  int threads = 1;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Repetitions of each per-layer probe; its metric is their median.
constexpr int kProbeReps = 3;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares, in print order. Every workload
// reports every name; a per-layer metric of a layer the workload never
// enters reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"p50_ms", "ms"},           {"tail_ms", "ms"},
    {"throughput_per_s", "1/s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"minidgl.forward_ms", "ms"},
    {"minidgl.backward_step_ms", "ms"},
    {"lazy.fusions_per_run", "count"},
    {"lazy.peak_mb", "MB"},
    {"tensor.allocs_per_iter", "count"},
    {"tensor.matmul_ms", "ms"},
    {"core.spmm_ms", "ms"},
    {"core.spmm_gflops", "GFLOP/s"},
    {"core.spmm_gbytes_per_s", "GB/s"},
    {"core.attention_ms", "ms"},
    {"core.spmm_launches_per_iter", "count"},
    {"core.spmm_nnz_per_iter", "count"},
    {"core.us_per_launch", "us"},
    {"shard.shards_per_iter", "count"},
    {"shard.steals_per_iter", "count"},
    {"sample.ms_per_batch", "ms"},
    {"gather.ms_per_batch", "ms"},
    {"gather.gbytes_per_s", "GB/s"},
    {"pipeline.produce_s", "s"},
    {"pipeline.consume_s", "s"},
    {"pipeline.overlap_gain", "ratio"},
    {"pipeline.overlapped_frac", "ratio"},
    {"cache.schedule.hit_rate", "ratio"},
    {"serve.requests_per_batch", "count"},
    {"serve.dedup_frac", "ratio"},
    {"serve.sample_ms_per_batch", "ms"},
    {"serve.gather_ms_per_batch", "ms"},
    {"serve.compute_ms_per_batch", "ms"},
    {"serve.coalesce_self_ms_per_batch", "ms"},
    {"serve.scatter_self_ms_per_batch", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"cache.feature.hit_rate", "ratio"},
    {"cache.feature.evictions_per_insert", "ratio"},
    {"cache.feature.mb_saved_per_iter", "MB"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.dropped_spans", "count"},
};

using Values = std::map<std::string, double>;

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Counts checked units — epochs, requests, final evaluations — for the
/// result line's attempted and failed.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void expect(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what);
    }
  }
};

bool bitwise_equal(const fg::tensor::Tensor& a, const fg::tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

class Workload {
 public:
  Workload(const Config& cfg, fg::minidgl::ClassificationData data,
           std::int64_t hidden)
      : data_(std::move(data)), hidden_(hidden) {
    ctx_.num_threads = cfg.threads;
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds a new trainer or serving engine and runs its first,
  /// untimed iteration.
  virtual void setup() = 0;
  /// Called once between the last set-up and the first timed iteration.
  virtual void start_timed() {}
  /// One timed iteration.
  virtual void iterate() = 0;
  /// Checks the outputs and fills the end-to-end metrics (from the wall
  /// time of every timed iteration) and the workload's own per-layer ones.
  virtual void finish(const std::vector<double>& iter_s, Checks& checks,
                      Values& e2e, Values& layer) = 0;
  /// Fewest timed iterations, however long they take.
  virtual int min_iterations() const = 0;

  const fg::minidgl::ClassificationData& data() const { return data_; }
  std::int64_t hidden() const { return hidden_; }
  Trainer& trainer() { return *trainer_; }

 protected:
  fg::minidgl::ClassificationData data_;
  std::int64_t hidden_;
  fg::minidgl::ExecContext ctx_;
  std::unique_ptr<Trainer> trainer_;
};

// --- train-gcn / train-gat ---------------------------------------------------

/// Full-batch 2-layer training on an SBM with n = 40,000, average degree 64,
/// 128-d features and 8 classes; an iteration is one Trainer::train_epoch.
class TrainWorkload : public Workload {
 public:
  TrainWorkload(const Config& cfg, const char* kind, std::int64_t hidden,
                double min_accuracy)
      : Workload(cfg,
                 fg::minidgl::make_sbm_classification(40000, 64.0, 8, 0.85,
                                                      128, 1.5f, cfg.seed),
                 hidden),
        kind_(kind),
        min_accuracy_(min_accuracy),
        seed_(cfg.seed) {}

  void setup() override {
    trainer_ = std::make_unique<Trainer>(
        data_,
        fg::minidgl::Model(kind_, data_.features.row_size(), hidden_,
                           data_.num_classes, seed_),
        ctx_);
    losses_.assign(1, trainer_->train_epoch().loss);
  }
  void iterate() override { losses_.push_back(trainer_->train_epoch().loss); }

  void finish(const std::vector<double>& iter_s, Checks& checks, Values& e2e,
              Values&) override {
    for (std::size_t e = 1; e < losses_.size(); ++e)
      checks.expect(std::isfinite(losses_[e]), "epoch loss is finite");
    checks.expect(losses_.back() < losses_.front(), "loss decreased");
    const double acc = trainer_->test_accuracy();
    std::printf("final loss %.4f (first epoch %.4f), test accuracy %.4f\n",
                losses_.back(), losses_.front(), acc);
    checks.expect(acc >= min_accuracy_, "test accuracy above the floor");

    const fg::e2e::Summary s = fg::e2e::summarize(iter_s);
    e2e["p50_ms"] = s.median * 1e3;
    e2e["tail_ms"] = s.p90 * 1e3;
    e2e["throughput_per_s"] =
        static_cast<double>(data_.graph.num_vertices()) / s.median;
  }

  int min_iterations() const override { return 20; }

 private:
  const char* kind_;
  double min_accuracy_;
  std::uint64_t seed_;
  std::vector<float> losses_;
};

// --- infer-minibatch / serve-zipf --------------------------------------------

/// A SAGE-mean model trained for 6 full-graph epochs on an SBM with
/// n = 65,536, average degree 16, 64-d features, hidden 64 and 8 classes.
/// Training is input generation, so it is not timed.
class SageWorkload : public Workload {
 public:
  explicit SageWorkload(const Config& cfg)
      : Workload(cfg,
                 fg::minidgl::make_sbm_classification(65536, 16.0, 8, 0.85,
                                                      64, 1.5f, cfg.seed),
                 64),
        model_("sage-mean", 64, hidden_, data_.num_classes, cfg.seed) {
    Trainer pretrain(data_, model_, ctx_, kLearningRate);
    for (int e = 0; e < 6; ++e) pretrain.train_epoch();
    full_graph_accuracy_ = pretrain.test_accuracy();
  }

 protected:
  static constexpr float kLearningRate = 0.05f;

  /// A fresh trainer over the shared, already trained parameters.
  void rebuild_trainer() {
    trainer_ = std::make_unique<Trainer>(data_, model_, ctx_, kLearningRate);
  }

  fg::minidgl::Model model_;
  double full_graph_accuracy_ = 0.0;
};

/// Block inference over every vertex with fanouts {10, 10} and batch size
/// 512 (128 batches), pipelined; an iteration is one infer_minibatch epoch.
class InferWorkload : public SageWorkload {
 public:
  explicit InferWorkload(const Config& cfg) : SageWorkload(cfg) {
    options_.sampler.fanouts = {10, 10};
    options_.sampler.seed = cfg.seed;
    options_.batch_size = 512;
    rows_.resize(static_cast<std::size_t>(data_.graph.num_vertices()));
    for (std::size_t i = 0; i < rows_.size(); ++i)
      rows_[i] = static_cast<std::int64_t>(i);
  }

  void setup() override {
    rebuild_trainer();
    first_ = trainer_->infer_minibatch(options_, rows_);
  }
  void iterate() override {
    fg::minidgl::MinibatchInferResult r =
        trainer_->infer_minibatch(options_, rows_);
    epochs_.push_back(
        {bitwise_equal(r.log_probs, first_.log_probs), r.pipeline});
  }

  void finish(const std::vector<double>& iter_s, Checks& checks, Values& e2e,
              Values& layer) override {
    std::vector<double> produce, consume, gain;
    double overlapped = 0.0;
    for (const Epoch& e : epochs_) {
      checks.expect(e.same_as_first,
                    "epoch log_probs bitwise equal to the first epoch's");
      produce.push_back(e.pipeline.produce_seconds);
      consume.push_back(e.pipeline.consume_seconds);
      gain.push_back(ratio(
          e.pipeline.produce_seconds + e.pipeline.consume_seconds,
          e.pipeline.total_seconds));
      if (e.pipeline.overlapped) overlapped += 1.0;
    }
    std::printf("minibatch accuracy %.4f, full-graph test accuracy %.4f\n",
                first_.accuracy, full_graph_accuracy_);
    checks.expect(first_.accuracy >= full_graph_accuracy_ - 0.05,
                  "minibatch accuracy within 0.05 of full-graph accuracy");

    const fg::e2e::Summary s = fg::e2e::summarize(iter_s);
    e2e["p50_ms"] = s.median * 1e3;
    e2e["tail_ms"] = s.p90 * 1e3;
    e2e["throughput_per_s"] = static_cast<double>(rows_.size()) / s.median;

    layer["pipeline.produce_s"] = fg::e2e::summarize(produce).median;
    layer["pipeline.consume_s"] = fg::e2e::summarize(consume).median;
    layer["pipeline.overlap_gain"] = fg::e2e::summarize(gain).median;
    layer["pipeline.overlapped_frac"] =
        ratio(overlapped, static_cast<double>(epochs_.size()));
  }

  int min_iterations() const override { return 5; }

 private:
  struct Epoch {
    bool same_as_first;
    fg::sample::PipelineStats pipeline;
  };

  fg::minidgl::MinibatchInferOptions options_;
  std::vector<std::int64_t> rows_;
  fg::minidgl::MinibatchInferResult first_;
  std::vector<Epoch> epochs_;
};

/// Open-loop Poisson arrivals of 1-4 seed requests, half the seeds from a
/// 1% hot set, replayed through a coalescing ServingEngine (1 ms latency
/// bound, 64-request cap) with a 4096-row feature cache. An iteration is
/// one replay at 2000 requests/s; after the timed iterations, saturated
/// replays measure capacity.
class ServeWorkload : public SageWorkload {
 public:
  explicit ServeWorkload(const Config& cfg) : SageWorkload(cfg), cfg_(cfg) {}

  void setup() override {
    engine_.reset();
    rebuild_trainer();
    fg::sample::SamplerConfig sc;
    sc.fanouts = {10, 10};
    sc.seed = cfg_.seed;
    sampler_ =
        std::make_unique<fg::sample::NeighborSampler>(data_.graph.in_csr(), sc);
    cache_ = std::make_unique<fg::serve::FeatureCache>(
        kFeatureCacheRows, data_.features.row_size());
    schedules_ = std::make_unique<fg::sample::BlockScheduleCache>();
    fg::serve::ServeOptions opts;
    opts.num_threads = cfg_.threads;
    engine_ = std::make_unique<fg::serve::ServingEngine>(
        *sampler_, data_.features,
        trainer_->make_serve_compute(schedules_.get(), false), opts,
        cache_.get());
    fg::serve::replay_trace(*engine_,
                            make_trace(kRateQps, kWarmupRequests, 0));
  }

  void start_timed() override {
    engine_->reset_stats();
    cache_->reset_stats();
  }

  void iterate() override {
    const auto paced = make_trace(kRateQps, kReplayRequests, next_trace_++);
    const fg::serve::TraceResult res = fg::serve::replay_trace(*engine_, paced);
    answered_ += count_answered(paced, res);
    attempted_ += static_cast<std::int64_t>(paced.size());
    p50_s_.push_back(fg::serve::percentile(res.latency_s, 50));
    p99_s_.push_back(fg::serve::percentile(res.latency_s, 99));
    if (solo_trace_.empty()) {
      solo_trace_.assign(paced.begin(), paced.begin() + kSoloChecked);
      solo_outputs_.assign(res.outputs.begin(),
                           res.outputs.begin() + kSoloChecked);
    }
  }

  void finish(const std::vector<double>&, Checks& checks, Values& e2e,
              Values& layer) override {
    // The layer figures cover the paced replays only: they come first.
    const fg::serve::ServeStats st = engine_->stats();
    layer["serve.requests_per_batch"] = ratio(
        static_cast<double>(st.requests), static_cast<double>(st.batches));
    layer["serve.dedup_frac"] = ratio(static_cast<double>(st.shared_seed_rows),
                                      static_cast<double>(st.seed_rows));
    const fg::serve::FeatureCache::Stats cs = cache_->stats();
    layer["cache.feature.hit_rate"] =
        ratio(static_cast<double>(cs.hits),
              static_cast<double>(cs.hits + cs.misses));
    layer["cache.feature.evictions_per_insert"] = ratio(
        static_cast<double>(cs.evictions), static_cast<double>(cs.insertions));
    layer["cache.feature.mb_saved_per_iter"] =
        static_cast<double>(cs.bytes_saved) / 1e6 /
        static_cast<double>(p50_s_.size());

    // Capacity: completed requests over the makespan of replays offered far
    // beyond it, so the coalescer always finds a full backlog.
    std::vector<double> capacity_qps;
    for (int k = 0; k < kSaturatedReplays; ++k) {
      const auto saturated = make_trace(kSaturationQps, kReplayRequests,
                                        kSaturatedStream + k);
      const fg::serve::TraceResult res =
          fg::serve::replay_trace(*engine_, saturated);
      const std::int64_t done = count_answered(saturated, res);
      answered_ += done;
      attempted_ += static_cast<std::int64_t>(saturated.size());
      capacity_qps.push_back(static_cast<double>(done) / res.makespan_s);
    }
    checks.attempted += attempted_;
    checks.failed += attempted_ - answered_;
    if (answered_ != attempted_)
      std::fprintf(stderr, "check failed: %lld requests unanswered\n",
                   static_cast<long long>(attempted_ - answered_));

    // Solo serving of the first requests of the first timed replay: every
    // coalesced output must match it bit for bit.
    fg::serve::ServeOptions solo_opts;
    solo_opts.latency_bound_s = 0.0;
    solo_opts.max_requests_per_batch = 1;
    solo_opts.num_threads = cfg_.threads;
    fg::sample::BlockScheduleCache solo_schedules;
    fg::serve::ServingEngine solo(
        *sampler_, data_.features,
        trainer_->make_serve_compute(&solo_schedules, false), solo_opts);
    for (std::size_t k = 0; k < solo_trace_.size(); ++k) {
      const auto out = solo.serve_batch({solo_trace_[k].request});
      checks.expect(bitwise_equal(out.front(), solo_outputs_[k]),
                    "coalesced output bitwise equal to solo serving");
    }

    e2e["p50_ms"] = fg::e2e::summarize(p50_s_).median * 1e3;
    e2e["tail_ms"] = fg::e2e::summarize(p99_s_).median * 1e3;
    e2e["throughput_per_s"] = fg::e2e::summarize(capacity_qps).median;
  }

  int min_iterations() const override { return 3; }

 private:
  static constexpr double kRateQps = 2000.0;
  static constexpr int kReplayRequests = 5000;
  static constexpr int kWarmupRequests = 1000;
  static constexpr std::size_t kSoloChecked = 512;
  static constexpr double kSaturationQps = 40000.0;
  static constexpr int kSaturatedReplays = 8;
  /// Trace indices of the saturated replays, clear of the paced ones.
  static constexpr std::uint64_t kSaturatedStream = std::uint64_t{1} << 32;
  static constexpr std::int64_t kFeatureCacheRows = 4096;

  /// Trace `index` of this run: a pure function of (seed, index, rate).
  std::vector<fg::serve::TraceRequest> make_trace(double rate_qps, int count,
                                                  std::uint64_t index) const {
    fg::support::Rng rng(cfg_.seed, index);
    const auto n = static_cast<std::uint64_t>(data_.graph.num_vertices());
    const std::uint64_t hot = std::max<std::uint64_t>(1, n / 100);
    std::vector<fg::serve::TraceRequest> trace(static_cast<std::size_t>(count));
    double arrival = 0.0;
    for (int r = 0; r < count; ++r) {
      fg::serve::TraceRequest& t = trace[static_cast<std::size_t>(r)];
      t.request.id = r;
      const std::size_t size = 1 + rng.uniform(4);
      while (t.request.seeds.size() < size) {
        const auto v = static_cast<fg::graph::vid_t>(
            rng.uniform(2) == 0 ? rng.uniform(hot) : rng.uniform(n));
        if (std::find(t.request.seeds.begin(), t.request.seeds.end(), v) ==
            t.request.seeds.end())
          t.request.seeds.push_back(v);
      }
      arrival += -std::log(1.0 - rng.uniform_real()) / rate_qps;
      t.arrival_s = arrival;
    }
    return trace;
  }

  std::int64_t count_answered(const std::vector<fg::serve::TraceRequest>& trace,
                              const fg::serve::TraceResult& res) const {
    std::int64_t answered = 0;
    for (std::size_t k = 0; k < trace.size(); ++k) {
      const fg::tensor::Tensor& out = res.outputs[k];
      if (out.defined() &&
          out.rows() ==
              static_cast<std::int64_t>(trace[k].request.seeds.size()) &&
          out.row_size() == data_.num_classes)
        ++answered;
    }
    return answered;
  }

  const Config& cfg_;
  std::unique_ptr<fg::sample::NeighborSampler> sampler_;
  std::unique_ptr<fg::serve::FeatureCache> cache_;
  std::unique_ptr<fg::sample::BlockScheduleCache> schedules_;
  std::unique_ptr<fg::serve::ServingEngine> engine_;
  std::uint64_t next_trace_ = 1;
  std::int64_t attempted_ = 0;
  std::int64_t answered_ = 0;
  std::vector<double> p50_s_, p99_s_;
  std::vector<fg::serve::TraceRequest> solo_trace_;
  std::vector<fg::tensor::Tensor> solo_outputs_;
};

std::unique_ptr<Workload> make_workload(const Config& cfg) {
  if (cfg.workload == "train-gcn")
    return std::make_unique<TrainWorkload>(cfg, "gcn", 128, 0.95);
  if (cfg.workload == "train-gat")
    return std::make_unique<TrainWorkload>(cfg, "gat", 64, 0.90);
  if (cfg.workload == "infer-minibatch")
    return std::make_unique<InferWorkload>(cfg);
  if (cfg.workload == "serve-zipf") return std::make_unique<ServeWorkload>(cfg);
  return nullptr;
}

// --- timing, tracing and probes -----------------------------------------------

double run_iteration(Workload& w) {
  fg::support::Timer t;
  {
    FG_TRACE_SCOPE("bench.iter");
    w.iterate();
  }
  return t.seconds();
}

/// Collects the spans of the current trace session into `spans`.
void keep_spans(std::vector<fg::obs::SpanRecord>& spans,
                std::int64_t& dropped) {
  const std::vector<fg::obs::SpanRecord> got = fg::obs::collect_spans();
  spans.insert(spans.end(), got.begin(), got.end());
  dropped += fg::obs::trace_dropped_spans();
}

/// Per-layer probes on the workload's own graph, each call in its own
/// bench.probe.* span. Returns the bytes the gather probe copied.
double run_probes(Workload& w, const Config& cfg) {
  const fg::minidgl::ClassificationData& data = w.data();
  const fg::graph::Csr& adj = data.graph.in_csr();
  const std::int64_t d = w.hidden();
  const fg::tensor::Tensor x = fg::tensor::Tensor::randn(
      {data.graph.num_vertices(), d}, cfg.seed + 101);
  const fg::core::CpuSpmmSchedule sched =
      fg::core::heuristic_spmm_schedule(adj, d, cfg.threads);

  fg::core::SpmmOperands spmm_ops;
  spmm_ops.src_feat = &x;
  fg::core::AttentionOperands attn_ops;
  attn_ops.src_feat = &x;
  attn_ops.logit_scale = 1.0f / std::sqrt(static_cast<float>(d));
  const fg::tensor::Tensor weight = fg::tensor::Tensor::randn(
      {data.features.row_size(), d}, cfg.seed + 102);
  for (int r = 0; r < kProbeReps; ++r) {
    {
      FG_TRACE_SCOPE("bench.probe.spmm");
      fg::core::spmm(adj, "copy_u", "sum", sched, spmm_ops);
    }
    {
      FG_TRACE_SCOPE("bench.probe.attention");
      fg::core::attention(adj, "copy_u", sched, attn_ops);
    }
    {
      FG_TRACE_SCOPE("bench.probe.matmul");
      fg::tensor::matmul(data.features, weight, cfg.threads);
    }
    {
      FG_TRACE_SCOPE("bench.probe.forward");
      w.trainer().infer();
    }
  }

  // One epoch of minibatches as infer-minibatch draws them.
  fg::sample::SamplerConfig sc;
  sc.fanouts = {10, 10};
  sc.seed = cfg.seed;
  const fg::sample::NeighborSampler sampler(adj, sc);
  const std::int64_t n = data.graph.num_vertices();
  double gathered_bytes = 0.0;
  for (std::int64_t b = 0; b * 512 < n; ++b) {
    std::vector<fg::graph::vid_t> seeds;
    for (std::int64_t v = b * 512; v < std::min(n, (b + 1) * 512); ++v)
      seeds.push_back(static_cast<fg::graph::vid_t>(v));
    fg::sample::MinibatchBlocks blocks;
    {
      FG_TRACE_SCOPE("bench.probe.sample");
      blocks = sampler.sample(seeds, static_cast<std::uint64_t>(b),
                              cfg.threads);
    }
    FG_TRACE_SCOPE("bench.probe.gather");
    const fg::tensor::Tensor feats =
        fg::sample::gather_rows(data.features, blocks.input_nodes(),
                                cfg.threads);
    gathered_bytes += static_cast<double>(feats.numel()) * sizeof(float);
  }
  return gathered_bytes;
}

/// Per-layer metrics computed from the traced spans, the registry and
/// allocation diffs over the timed iterations, and the probes.
void span_metrics(const std::vector<fg::obs::SpanRecord>& spans,
                  const Workload& w, double gathered_bytes, Values& layer) {
  const std::vector<std::int64_t> self = fg::e2e::self_times_ns(spans);
  std::vector<std::pair<std::int64_t, std::int64_t>> iters;
  double iter_dur = 0.0, iter_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) != "bench.iter") continue;
    iters.emplace_back(spans[i].t0_ns, spans[i].t1_ns);
    iter_dur += static_cast<double>(spans[i].t1_ns - spans[i].t0_ns);
    iter_self += static_cast<double>(self[i]);
  }
  std::sort(iters.begin(), iters.end());
  // A span belongs to the timed iterations when a bench.iter span on any
  // thread encloses it (pipeline producers run on pool workers).
  const auto in_iteration = [&](const fg::obs::SpanRecord& s) {
    auto it = std::upper_bound(
        iters.begin(), iters.end(),
        std::make_pair(s.t0_ns, std::numeric_limits<std::int64_t>::max()));
    return it != iters.begin() && std::prev(it)->second >= s.t1_ns;
  };

  struct Totals {
    double count = 0.0, dur_ms = 0.0, self_ms = 0.0;
  };
  std::map<std::string_view, Totals> in_iter;
  std::map<std::string_view, std::vector<double>> probe_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string_view name = spans[i].name;
    const double dur_ms =
        static_cast<double>(spans[i].t1_ns - spans[i].t0_ns) / 1e6;
    if (name.substr(0, 12) == "bench.probe.") {
      probe_ms[name].push_back(dur_ms);
    } else if (in_iteration(spans[i])) {
      Totals& t = in_iter[name];
      t.count += 1.0;
      t.dur_ms += dur_ms;
      t.self_ms += static_cast<double>(self[i]) / 1e6;
    }
  }
  const auto median_ms = [&](const char* probe) {
    return fg::e2e::summarize(probe_ms[probe]).median;
  };

  const fg::graph::Csr& adj = w.data().graph.in_csr();
  const double nnz = static_cast<double>(adj.nnz());
  const double rows = static_cast<double>(adj.num_rows);
  const double d = static_cast<double>(w.hidden());
  const double spmm_ms = median_ms("bench.probe.spmm");
  layer["core.spmm_ms"] = spmm_ms;
  // copy_u/sum: one add per edge and feature. Bytes are computed from the
  // sizes, not measured: row offsets, column indices, one source row per
  // edge (no reuse) and the output rows.
  layer["core.spmm_gflops"] = ratio(nnz * d, spmm_ms * 1e6);
  layer["core.spmm_gbytes_per_s"] =
      ratio((rows + 1) * 8 + nnz * 4 + nnz * d * 4 + rows * d * 4,
            spmm_ms * 1e6);
  layer["core.attention_ms"] = median_ms("bench.probe.attention");
  layer["tensor.matmul_ms"] = median_ms("bench.probe.matmul");
  layer["minidgl.forward_ms"] = median_ms("bench.probe.forward");
  layer["sample.ms_per_batch"] = median_ms("bench.probe.sample");
  layer["gather.ms_per_batch"] = median_ms("bench.probe.gather");
  const std::vector<double>& gathers = probe_ms["bench.probe.gather"];
  layer["gather.gbytes_per_s"] =
      ratio(gathered_bytes,
            std::accumulate(gathers.begin(), gathers.end(), 0.0) * 1e6);

  const Totals& launches = in_iter["spmm.launch"];
  layer["core.us_per_launch"] = ratio(launches.self_ms * 1e3, launches.count);
  const double batches = in_iter["serve.batch"].count;
  layer["serve.sample_ms_per_batch"] =
      ratio(in_iter["serve.sample"].dur_ms, batches);
  layer["serve.gather_ms_per_batch"] =
      ratio(in_iter["serve.gather"].dur_ms, batches);
  layer["serve.compute_ms_per_batch"] =
      ratio(in_iter["serve.compute"].dur_ms, batches);
  layer["serve.coalesce_self_ms_per_batch"] =
      ratio(in_iter["serve.coalesce"].self_ms, batches);
  layer["serve.scatter_self_ms_per_batch"] =
      ratio(in_iter["serve.scatter"].self_ms, batches);
  layer["trace.unattributed_frac"] = ratio(iter_self, iter_dur);
}

void registry_metrics(const fg::obs::MetricsSnapshot& before,
                      const fg::obs::MetricsSnapshot& after,
                      double iterations, Values& layer) {
  const fg::obs::MetricsSnapshot diff = after.since(before);
  const auto counter = [&](const char* name) {
    const auto it = diff.counters.find(name);
    return it == diff.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto per_iter = [&](const char* name) {
    return ratio(counter(name), iterations);
  };
  layer["core.spmm_launches_per_iter"] = per_iter("spmm.launch.count");
  layer["core.spmm_nnz_per_iter"] = per_iter("spmm.nnz.swept");
  layer["shard.shards_per_iter"] = per_iter("shard.shards.executed");
  layer["shard.steals_per_iter"] = per_iter("shard.steal.count");
  layer["lazy.fusions_per_run"] =
      ratio(counter("lazy.fusion.count"), counter("lazy.run.count"));
  const auto peak = after.gauges.find("lazy.peak_bytes");
  layer["lazy.peak_mb"] =
      peak == after.gauges.end() ? 0.0 : static_cast<double>(peak->second) / 1e6;
  const double hits = counter("cache.schedule.hit");
  layer["cache.schedule.hit_rate"] =
      ratio(hits, hits + counter("cache.schedule.miss"));
  const auto queue = diff.histograms.find("serve.queue_latency.seconds");
  if (queue != diff.histograms.end() && queue->second.total > 0) {
    layer["serve.queue_wait_ms_p50"] = queue->second.percentile(50) * 1e3;
    layer["serve.queue_wait_ms_p99"] = queue->second.percentile(99) * 1e3;
  }
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_summary(const char* what, const std::vector<double>& samples_s) {
  const fg::e2e::Summary s = fg::e2e::summarize(samples_s);
  std::printf("%s: n=%lld median=%.4f s min=%.4f s IQR=%.4f s p90=%.4f s",
              what, static_cast<long long>(s.n), s.median, s.min, s.iqr(),
              s.p90);
  if (s.supported_p > 0.0)
    std::printf(" (highest percentile with 10 samples above: p%g=%.4f s)",
                s.supported_p, s.supported_value);
  std::printf("\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <train-gcn|train-gat|"
               "infer-minibatch|serve-zipf> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-json <path>]\n"
               "       bench_e2e --self-test\n");
  return 2;
}

bool parse_args(int argc, char** argv, Config& cfg) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(cfg.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1")
        return false;
      cfg.trace = std::string_view(value) == "1";
    } else if (flag == "--trace-json") {
      cfg.trace_json = value;
    } else {
      return false;
    }
  }
  return !cfg.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--self-test") {
    const int failures = fg::e2e::self_test();
    std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  Config cfg;
  if (!parse_args(argc, argv, cfg)) return usage();

  // Thread policy, fixed before anything starts the pool. Tracing is only
  // ever enabled by this program's own sessions.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads = static_cast<int>(std::min(4u, hw));
  setenv("FEATGRAPH_WORKERS", std::to_string(cfg.threads - 1).c_str(), 1);
  unsetenv("FEATGRAPH_TRACE");

  fg::support::Timer gen_timer;
  std::unique_ptr<Workload> w = make_workload(cfg);
  if (w == nullptr) return usage();
  std::printf("bench_e2e workload=%s seed=%llu threads=%d seconds=%g "
              "trace=%d host=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.threads, cfg.seconds, cfg.trace ? 1 : 0,
              fg::bench::host_info_json().c_str());
  std::printf("inputs: %d vertices, %lld edges, %lld-d features, generated "
              "in %.2f s\n",
              w->data().graph.num_vertices(),
              static_cast<long long>(w->data().graph.num_edges()),
              static_cast<long long>(w->data().features.row_size()),
              gen_timer.seconds());

  // Set-up from cold caches, several times; the last one is kept.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    fg::core::clear_partition_cache();
    fg::support::Timer t;
    w->setup();
    setup_s.push_back(t.seconds());
  }
  print_summary("setup", setup_s);
  w->start_timed();

  const fg::obs::MetricsSnapshot before = fg::obs::Registry::global().snapshot();
  const std::int64_t allocs_before = fg::tensor::allocation_count();
  std::vector<double> iter_s, traced_s, untraced_s;
  std::vector<fg::obs::SpanRecord> spans;
  std::int64_t dropped = 0;
  fg::support::Timer timed;
  for (int i = 0; timed.seconds() < cfg.seconds || i < w->min_iterations();
       ++i) {
    if (cfg.trace && i % 2 == 1) {
      fg::obs::TraceSession session;
      traced_s.push_back(run_iteration(*w));
      keep_spans(spans, dropped);
      iter_s.push_back(traced_s.back());
    } else {
      untraced_s.push_back(run_iteration(*w));
      iter_s.push_back(untraced_s.back());
    }
  }

  Values e2e, layer;
  double gathered_bytes = 0.0;
  fg::obs::MetricsSnapshot after;
  std::int64_t allocs_after = 0;
  if (cfg.trace) {
    // One more traced iteration, then the probes, in the session whose
    // Chrome trace is written out.
    fg::obs::TraceSession session(cfg.trace_json);
    traced_s.push_back(run_iteration(*w));
    iter_s.push_back(traced_s.back());
    after = fg::obs::Registry::global().snapshot();
    allocs_after = fg::tensor::allocation_count();
    gathered_bytes = run_probes(*w, cfg);
    keep_spans(spans, dropped);
  }
  print_summary(cfg.trace ? "iterations (traced and untraced)" : "iterations",
                iter_s);

  Checks checks;
  w->finish(iter_s, checks, e2e, layer);
  e2e["setup_s"] = fg::e2e::summarize(setup_s).median;
  e2e["peak_rss_mb"] = peak_rss_mb();

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    for (const MetricSpec& m : kEndToEnd)
      metrics.push_back({m.name, e2e.at(m.name), m.unit});
  } else {
    const auto iterations = static_cast<double>(iter_s.size());
    span_metrics(spans, *w, gathered_bytes, layer);
    registry_metrics(before, after, iterations, layer);
    layer["tensor.allocs_per_iter"] =
        ratio(static_cast<double>(allocs_after - allocs_before), iterations);
    if (cfg.workload.rfind("train-", 0) == 0)
      layer["minidgl.backward_step_ms"] =
          e2e.at("p50_ms") - layer["minidgl.forward_ms"];
    layer["trace.overhead_frac"] =
        ratio(fg::e2e::summarize(traced_s).median,
              fg::e2e::summarize(untraced_s).median) -
        1.0;
    layer["trace.dropped_spans"] = static_cast<double>(dropped);
    for (const MetricSpec& m : kPerLayer) {
      const auto it = layer.find(m.name);
      metrics.push_back({m.name, it == layer.end() ? 0.0 : it->second, m.unit});
    }
  }
  for (const Metric& m : metrics)
    std::printf("%-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  const bool correct = checks.failed == 0;
  std::printf("%s\n", fg::e2e::result_json(correct, checks.attempted,
                                           checks.failed, metrics)
                          .c_str());
  return correct ? 0 : 1;
}
