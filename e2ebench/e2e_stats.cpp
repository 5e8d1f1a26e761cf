#include "e2e_stats.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "serve/server.hpp"

namespace featgraph::e2e {

Summary summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<std::int64_t>(samples.size());
  s.n = n;
  s.min = samples.front();
  s.median = n % 2 == 1 ? samples[static_cast<std::size_t>(n / 2)]
                        : (samples[static_cast<std::size_t>(n / 2 - 1)] +
                           samples[static_cast<std::size_t>(n / 2)]) /
                              2.0;
  if (n == 1) {
    s.q1 = s.q3 = s.min;
  } else {
    // Exclusive-method quartiles, clamped exactly as Python's
    // statistics.quantiles does, so a reader can recompute them.
    const auto quartile = [&](std::int64_t i) {
      std::int64_t j = i * (n + 1) / 4;
      j = std::clamp<std::int64_t>(j, 1, n - 1);
      const std::int64_t delta = i * (n + 1) - j * 4;
      return (samples[static_cast<std::size_t>(j - 1)] *
                  static_cast<double>(4 - delta) +
              samples[static_cast<std::size_t>(j)] *
                  static_cast<double>(delta)) /
             4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
  }
  s.p90 = serve::percentile(samples, 90);
  for (const double p : {99.9, 99.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::int64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n - rank >= 10) {
      s.supported_p = p;
      s.supported_value = serve::percentile(samples, p);
      break;
    }
  }
  return s;
}

std::vector<std::int64_t> self_times_ns(
    const std::vector<obs::SpanRecord>& spans) {
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Per thread, parents sort before the children they enclose.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const obs::SpanRecord& x = spans[a];
    const obs::SpanRecord& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.t0_ns != y.t0_ns) return x.t0_ns < y.t0_ns;
    return x.depth < y.depth;
  });
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].t1_ns - spans[i].t0_ns;

  struct Open {
    std::size_t index;
    std::int64_t covered_until;  // children cover [.., covered_until)
  };
  std::vector<Open> stack;
  int tid = -1;
  for (const std::size_t i : order) {
    const obs::SpanRecord& s = spans[i];
    if (s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty()) {
      const obs::SpanRecord& top = spans[stack.back().index];
      if (top.depth < s.depth && top.t0_ns <= s.t0_ns && s.t0_ns < top.t1_ns)
        break;
      stack.pop_back();
    }
    if (!stack.empty() && spans[stack.back().index].depth + 1 == s.depth) {
      Open& parent = stack.back();
      const std::int64_t begin = std::max(s.t0_ns, parent.covered_until);
      const std::int64_t end =
          std::min(s.t1_ns, spans[parent.index].t1_ns);
      if (end > begin) {
        self[parent.index] -= end - begin;
        parent.covered_until = end;
      }
    }
    stack.push_back({i, s.t0_ns});
  }
  return self;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      // Shortest representation that reads back as the same double.
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof buf, m.value);
      out.append(buf, res.ptr);
    } else {
      out += "null";
    }
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {

int expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)))
    return 0;
  std::fprintf(stderr, "self-test: %s = %.17g, want %.17g\n", what, got,
               want);
  return 1;
}

obs::SpanRecord span(int tid, int depth, std::int64_t t0, std::int64_t t1) {
  obs::SpanRecord r;
  r.name = "span";
  r.tid = tid;
  r.depth = depth;
  r.t0_ns = t0;
  r.t1_ns = t1;
  return r;
}

}  // namespace

int self_test() {
  int failures = 0;

  // Python: statistics.quantiles([1, 2, 3, 4, 5]) == [1.5, 3.0, 4.5].
  const Summary five = summarize({5, 1, 4, 2, 3});
  failures += expect_near("five.n", static_cast<double>(five.n), 5);
  failures += expect_near("five.median", five.median, 3);
  failures += expect_near("five.min", five.min, 1);
  failures += expect_near("five.q1", five.q1, 1.5);
  failures += expect_near("five.q3", five.q3, 4.5);
  failures += expect_near("five.p90", five.p90, 5);
  failures += expect_near("five.supported_p", five.supported_p, 0);

  // Python: statistics.quantiles(range(1, 101)) == [25.25, 50.5, 75.75].
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  std::reverse(hundred.begin(), hundred.end());
  const Summary h = summarize(hundred);
  failures += expect_near("hundred.median", h.median, 50.5);
  failures += expect_near("hundred.q1", h.q1, 25.25);
  failures += expect_near("hundred.q3", h.q3, 75.75);
  failures += expect_near("hundred.p90", h.p90, serve::percentile(hundred, 90));
  // p99 leaves one sample above its rank, p90 leaves ten.
  failures += expect_near("hundred.supported_p", h.supported_p, 90);
  failures += expect_near("hundred.supported_value", h.supported_value, 90);

  // Python extrapolates past the ends: quantiles([2, 4]) == [1.5, 3.0, 4.5].
  const Summary two = summarize({2, 4});
  failures += expect_near("two.q1", two.q1, 1.5);
  failures += expect_near("two.q3", two.q3, 4.5);
  failures += expect_near("empty.n", static_cast<double>(summarize({}).n), 0);

  // Completion order, as thread buffers hold them: children before parents.
  const std::vector<obs::SpanRecord> spans = {
      span(0, 2, 45, 50),   // grandchild inside b
      span(0, 1, 10, 30),   // child a
      span(1, 0, 20, 60),   // other thread: no parent here
      span(0, 1, 40, 70),   // child b
      span(0, 0, 0, 100),   // parent
      span(0, 0, 120, 130)  // later root on thread 0
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  const double want[] = {5, 20, 40, 25, 50, 10};
  for (std::size_t i = 0; i < spans.size(); ++i)
    failures += expect_near("self_time", static_cast<double>(self[i]),
                            want[i]);

  const std::string json = result_json(
      true, 3, 0,
      {{"a_ms", 1.5, "ms"}, {"b", 2, "count"}, {"c", std::nan(""), "s"}});
  const std::string want_json =
      "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
      "{\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, "
      "\"unit\": \"count\"}, \"c\": {\"value\": null, \"unit\": \"s\"}}}";
  if (json != want_json) {
    std::fprintf(stderr, "self-test: result_json = %s\n", json.c_str());
    ++failures;
  }
  return failures;
}

}  // namespace featgraph::e2e
