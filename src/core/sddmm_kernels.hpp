// Generalized SDDMM kernel templates (paper Sec. III-B, Fig. 4).
//
// out[e, :] = EDGEFN(u, e, v)   for every edge u -e-> v
//
// The coarse-grained template owns edge traversal (optionally in
// Hilbert-curve order, Sec. III-C-1, which keeps both endpoint feature rows
// hot) and splits edges across threads. The fine-grained UDF exposes its
// reduce axis through `partial`, which the FDS tiles: with a reduce tile the
// edge list is swept once per tile and partial sums accumulate in the output
// (the SDDMM analog of Fig. 6b's trade-off: more topology traffic for better
// feature locality).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "core/schedule_ir.hpp"
#include "core/simd.hpp"
#include "graph/csr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace featgraph::core {

template <class EdgeFn>
void generalized_sddmm(const graph::Coo& coo,
                       const std::vector<graph::eid_t>* order,
                       const EdgeFn& fn, float* out,
                       const CpuSddmmSchedule& sched) {
  const graph::eid_t m = coo.num_edges();
  const std::int64_t n_out = fn.num_out();
  const std::int64_t len = fn.reduce_len();
  if (m == 0 || n_out == 0) return;
  FG_CHECK(order == nullptr ||
           static_cast<graph::eid_t>(order->size()) == m);

  static obs::Counter& obs_launches =
      obs::Registry::global().counter("sddmm.launch.count");
  static obs::Counter& obs_edges =
      obs::Registry::global().counter("sddmm.edges.swept");
  obs_launches.add(1);
  obs_edges.add(static_cast<std::int64_t>(m));
  obs::TraceScope obs_span("sddmm.launch");
  if (obs_span.active()) {
    obs_span.arg("edges", static_cast<std::int64_t>(m))
        .arg("n_out", n_out)
        .arg("reduce_len", len)
        .arg("isa", simd::isa_name(simd::active_isa()))
        .arg("hilbert", order != nullptr ? 1 : 0);
  }

  // The schedule's Schedule-IR program lowers once per launch.
  const LoweredSddmmPlan plan =
      lower_sddmm_schedule(sched, m, len, simd::active_isa());
  const std::int64_t tile =
      (plan.reduce_tile > 0 && plan.reduce_tile < len) ? plan.reduce_tile
                                                       : len;
  const bool tiled = tile < len;
  // Edge-position chunking (IR chunk transform): a pure split of the
  // per-thread edge loop — same edges, same order, bit-identical — that
  // bounds the stream of endpoint feature rows touched between revisits.
  const std::int64_t edge_chunk = plan.edge_chunk;
  const graph::vid_t* src = coo.src.data();
  const graph::vid_t* dst = coo.dst.data();
  const graph::eid_t* perm = order != nullptr ? order->data() : nullptr;
  // Span dispatch resolved once per launch, width-aware (see
  // spmm_kernels.hpp): a narrow reduce axis resolves the AVX2 table.
  const simd::SpanOps& span = simd::span_ops_for_width(tile);

  if (tiled) {
    // Partial sums accumulate across reduce-axis tiles; zero-init first.
    std::fill(out, out + m * n_out, 0.0f);
  }
  for (std::int64_t k0 = 0; k0 < len; k0 += tile) {
    const std::int64_t k1 = std::min(k0 + tile, len);
    parallel::parallel_for_ranges(
        0, m, sched.num_threads, [&](std::int64_t i0, std::int64_t i1) {
          const std::int64_t step = edge_chunk > 0 ? edge_chunk : i1 - i0;
          for (std::int64_t c0 = i0; c0 < i1;
               c0 += std::max<std::int64_t>(step, 1)) {
            const std::int64_t c1 = std::min(c0 + step, i1);
            for (std::int64_t i = c0; i < c1; ++i) {
              const graph::eid_t e = perm != nullptr ? perm[i] : i;
              const graph::vid_t u = src[e];
              const graph::vid_t v = dst[e];
              float* out_e = out + e * n_out;
              for (std::int64_t h = 0; h < n_out; ++h) {
                const float p = fn.partial(span, u, e, v, h, k0, k1);
                if (tiled) {
                  out_e[h] += p;
                } else {
                  out_e[h] = p;
                }
              }
            }
          }
        });
  }
}

}  // namespace featgraph::core
