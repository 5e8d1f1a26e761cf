// Graph-attention inference pipeline: the paper's edge-wise computation
// story end to end (Sec. II-A, Fig. 4), composed AND fused.
//
// A single GAT-style attention layer without the training framework:
//   1. project features              (dense matmul)
//   2. attention logits per edge     (generalized SDDMM: dot / multi-head)
//   3. normalize per destination     (fused edge softmax)
//   4. attention-weighted aggregate  (generalized SpMM: u_mul_e + sum)
// ...and then steps 2-4 again as ONE launch of the fused attention kernel
// (core/attention.hpp): per destination row the logits, the numerically-
// stable softmax, and the alpha-weighted aggregation all happen while the
// row is hot — no logits tensor, no separate softmax sweep, no third
// traversal. The same SDDMM -> softmax -> SpMM chain is what GAT training
// differentiates through; minidgl's kFused backend runs this fused kernel.
//
//   $ ./gat_attention
#include <cmath>
#include <cstdio>

#include "featgraph.hpp"
#include "support/timer.hpp"

namespace fg = featgraph;
using fg::tensor::Tensor;

int main() {
  fg::graph::Graph g(fg::graph::gen_community(15000, 25.0, 15, 0.8, /*seed=*/4));
  const std::int64_t d_in = 64, d_out = 64;
  const Tensor x = Tensor::randn({g.num_vertices(), d_in}, 5);
  const Tensor w = Tensor::randn({d_in, d_out}, 6, 0.1f);

  // 1. Dense projection z = x W.
  const Tensor z = fg::tensor::matmul(x, w, /*threads=*/2);

  // --- composed pipeline (three launches, two |E| intermediates) -----------
  fg::support::Timer composed_timer;

  // 2. Edge logits via SDDMM (dot-product attention, Fig. 4a).
  fg::core::CpuSddmmSchedule sddmm_fds;
  sddmm_fds.num_threads = 2;
  sddmm_fds.hilbert_order = true;   // locality over both endpoints
  sddmm_fds.ir = std::make_shared<const fg::core::ScheduleIr>(
      fg::core::ScheduleIr().tile(32));  // FDS: tile the reduction axis
  const Tensor logits = fg::core::sddmm(g.coo(), "dot", sddmm_fds, {&z, nullptr});

  // 3. Per-destination softmax over in-edges (fused threaded segment pass).
  const Tensor alpha = fg::core::edge_softmax(g.in_csr(), logits, 2);

  // 4. Attention-weighted aggregation via generalized SpMM (u_mul_e + sum) —
  //    the |E| x d weighted messages are never materialized.
  const fg::core::CpuSpmmSchedule spmm_fds = fg::core::spmm_schedule(
      fg::core::ScheduleIr().partition(8).tile(32), /*num_threads=*/2);
  const Tensor h = fg::core::spmm(g.in_csr(), "u_mul_e", "sum", spmm_fds,
                                  {&z, &alpha, nullptr});
  const double composed_ms = composed_timer.millis();

  // --- fused pipeline (steps 2-4 in one per-row pass) ----------------------
  fg::support::Timer fused_timer;
  fg::core::AttentionOperands attn_ops;
  attn_ops.src_feat = &z;  // values AND dot-product logits (self-attention)
  fg::core::CpuSpmmSchedule attn_fds;
  attn_fds.num_threads = 2;
  const fg::core::AttentionResult fused =
      fg::core::attention(g.in_csr(), "copy_u", attn_fds, attn_ops);
  const double fused_ms = fused_timer.millis();

  float max_diff = 0.0f;
  for (std::int64_t i = 0; i < h.numel(); ++i)
    max_diff = std::max(max_diff, std::fabs(h.at(i) - fused.out.at(i)));

  std::printf("GAT attention layer over %d vertices / %lld edges\n",
              g.num_vertices(), static_cast<long long>(g.num_edges()));
  std::printf("  composed (SDDMM -> softmax -> SpMM): %.1f ms\n", composed_ms);
  std::printf("  fused attention kernel:              %.1f ms (%.2fx)\n",
              fused_ms, composed_ms / fused_ms);
  std::printf("  max |composed - fused| = %.2e\n", max_diff);
  std::printf("h[0][0..3] = %.4f %.4f %.4f %.4f\n", h.at(0, 0), h.at(0, 1),
              h.at(0, 2), h.at(0, 3));

  // Multi-head variant of step 2 (Fig. 4b): 4 heads over the same features.
  const Tensor z4 = z.reshape({g.num_vertices(), 4, d_out / 4});
  // Each head reduces d_out / 4 = 16 features, narrower than the 32-wide
  // reduce tile above, so the per-head dots run untiled.
  fg::core::CpuSddmmSchedule mh_fds = sddmm_fds;
  mh_fds.ir = nullptr;
  const Tensor mh =
      fg::core::sddmm(g.coo(), "multihead_dot", mh_fds, {&z4, nullptr});
  std::printf("multi-head logits: %lld edges x %lld heads, mh[0] = %.4f\n",
              static_cast<long long>(mh.rows()),
              static_cast<long long>(mh.row_size()), mh.at(0, 0));
  return 0;
}
