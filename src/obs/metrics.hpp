// Named counters / gauges / histograms — the aggregate half of the
// observability layer (obs/trace.hpp is the per-span half).
//
// Everything is lock-free on the hot path: a Counter/Gauge is one relaxed
// atomic, a Histogram observe is one atomic bump of a fixed bucket. The
// process-wide Registry maps names to metric objects; registration takes a
// mutex once, after which call sites hold a stable reference (the idiom is
// a function-local `static obs::Counter& c = obs::Registry::global()
// .counter("spmm.launch.count");`). Registry::reset() zeroes values but
// never invalidates references.
//
// Naming scheme: `subsystem.noun.verb` — e.g. spmm.launch.count,
// serve.request.admitted, cache.feature.bytes_saved, shard.steal.count.
// Gauges name the level they report (lazy.peak_bytes); histograms the
// quantity they bin (serve.queue_latency.seconds).
//
// Snapshots are plain maps; `since(baseline)` diffs two snapshots so a
// bench or test can attribute counts to one region ("one GCN epoch", "one
// serving trace"). render_profile_report() renders a snapshot with
// support/table — the `profile report` the acceptance criteria name.
//
// Percentiles use the SAME nearest-rank definition as serve::percentile
// (server.cpp): rank = ceil(p/100 * n), 1-indexed; a histogram returns the
// upper bound of the bucket holding that rank, so values that sit exactly
// on bucket bounds reproduce the exact-values percentile
// (Metrics.HistogramPercentileMatchesServeNearestRank pins this).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace featgraph::obs {

/// Monotonic counter. add() is a relaxed fetch_add — safe from any thread,
/// including detached serving lanes racing a stats() reader.
class Counter {
 public:
  void add(std::int64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Point-in-time level (queue depth, peak bytes). set/add/set_max all
/// atomic; set_max is the monotone high-water update.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void set_max(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

struct HistogramSnapshot {
  /// Ascending finite bucket upper bounds; counts has one extra overflow
  /// bucket for values above bounds.back().
  std::vector<double> bounds;
  std::vector<std::int64_t> counts;
  std::int64_t total = 0;
  double sum = 0.0;

  /// Nearest-rank percentile (see file comment). Returns the containing
  /// bucket's upper bound; overflow-bucket ranks return the largest
  /// observed-bucket bound (bounds.back()). 0 on empty.
  double percentile(double p) const;
  double mean() const { return total > 0 ? sum / static_cast<double>(total) : 0.0; }
};

/// Fixed-bucket histogram. observe() is two relaxed atomic bumps plus a
/// CAS-loop sum update — no lock, no allocation.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  void observe(double v);
  HistogramSnapshot snapshot() const;
  void reset();
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> counts_;  // bounds_+1 slots
  std::atomic<std::int64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// 1-2-5 log-spaced latency bounds from 1 us to 50 s (seconds).
const std::vector<double>& default_latency_buckets_s();

struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter/histogram deltas vs `baseline` (gauges pass through — a level
  /// has no meaningful delta). Names absent from the baseline keep their
  /// full value; zero-delta counters are omitted.
  MetricsSnapshot since(const MetricsSnapshot& baseline) const;
};

/// The process-wide metric registry.
class Registry {
 public:
  static Registry& global();

  /// Get-or-create by name. References are stable for the process
  /// lifetime; requesting an existing name returns the same object (a name
  /// registered as one kind aborts if re-requested as another).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Histogram with default_latency_buckets_s(), or explicit bounds.
  Histogram& histogram(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;
  /// Zeroes every metric's value; never removes or invalidates objects.
  void reset();

 private:
  Registry() = default;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Renders counters, gauges, and histogram percentiles as aligned ASCII
/// tables (support/table) — the `profile report`.
std::string render_profile_report(const MetricsSnapshot& snap);

}  // namespace featgraph::obs
