// Pure helpers of the end-to-end benchmark: sample summaries, span self
// times and the result line. They hold no workload state, so
// `bench_e2e --self-test` can pin them on fixed inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace featgraph::e2e {

/// Order statistics of one metric's samples.
struct Summary {
  std::int64_t n = 0;
  double median = 0.0;  // mean of the two middle values when n is even
  double min = 0.0;
  /// First and third quartile by the exclusive method (Python's
  /// statistics.quantiles(values, n=4) default); both equal the sample
  /// when n == 1.
  double q1 = 0.0;
  double q3 = 0.0;
  /// Nearest-rank percentile, identical to serve::percentile.
  double p90 = 0.0;
  /// Highest of {50, 75, 90, 99, 99.9} with at least ten samples above its
  /// rank, and its value; 0 and 0 when n < 20.
  double supported_p = 0.0;
  double supported_value = 0.0;

  double iqr() const { return q3 - q1; }
};

/// Summarizes `samples`; all-zero Summary on empty input.
Summary summarize(std::vector<double> samples);

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of it covered by its direct children on the same thread (spans
/// one level deeper that lie inside it).
std::vector<std::int64_t> self_times_ns(
    const std::vector<obs::SpanRecord>& spans);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result: one JSON object on one line, values printed with
/// every significant digit (non-finite values print as null).
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics);

/// Runs the helpers above on fixed inputs; prints each failed case to
/// stderr and returns the number of failures.
int self_test();

}  // namespace featgraph::e2e
