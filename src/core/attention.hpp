// Fused generalized-attention kernel: SDDMM logits -> numerically-stable
// segment softmax -> attention-weighted generalized SpMM, in ONE pass over
// each destination row (the paper's "messages are never materialized"
// promise applied to its hardest workload, the GAT layer of Sec. V-E and the
// GAT-OOM footnote of Table VI).
//
//   logit_e = <q_u, k_v> * logit_scale        (or a precomputed edge scalar)
//   alpha_e = exp(logit_e - max_row) / sum_row exp(...)
//   out[v]  = sum over in-edges (u -e-> v) of alpha_e * MSG(u, e, v)
//
// MSG is any builtin SpMM message op (copy_u for classic GAT, but also
// copy_e, u_op_v, u_op_e and mlp). Per destination row the kernel (1)
// computes the row's edge logits with the existing SDDMM span partial
// (simd::dot), (2) softmaxes them in a per-thread scratch buffer sized by
// the row degree (row max via simd::hmax, exponentials + denominator via
// simd::exp_scale, then the same per-element division the composed
// edge-softmax performs), and (3) folds alpha_e * MSG directly into the
// output row with the weighted-accumulate span primitives (simd::axpy /
// waxpy_binop) — no |E| x d message tensor, no separate softmax launch.
//
// Schedule: `CpuSpmmSchedule`'s Schedule-IR program is lowered into the same
// plan the SpMM template runs. split_nnz picks the per-thread row split
// (rows are owned by threads, so alpha writes are race-free), tile(W) tiles
// the aggregation axis (per row, innermost — the softmax state is per-row),
// and partition(P) with P > 1 switches to a two-phase launch: alpha is
// computed for all rows first (one threaded row sweep), then the
// aggregation runs as a regular partitioned generalized SpMM over
// weighted-message functors reading alpha by edge id — the partition loop's
// cache story (Sec. IV-A) applies to the d-wide aggregation where the
// traffic is. alpha values are
// identical between the two launches (the per-row softmax order never
// changes); only the aggregation's edge-visit order reassociates, exactly
// as partitioned SpMM already does.
#pragma once

#include <string_view>

#include "core/schedule.hpp"
#include "graph/csr.hpp"
#include "tensor/tensor.hpp"

namespace featgraph::core {

/// Dense operands of the fused attention kernel. The message half mirrors
/// SpmmOperands; the logit half picks ONE of: dot-product logits from
/// query/key (query defaults to src_feat, key defaults to query — classic
/// self-attention passes just src_feat), or precomputed per-edge scalar
/// logits. logit_scale multiplies every logit before the softmax (GAT's
/// 1/sqrt(d)).
struct AttentionOperands {
  const tensor::Tensor* src_feat = nullptr;    // x: message operand, n x d
  const tensor::Tensor* edge_feat = nullptr;   // copy_e / u_op_e messages
  const tensor::Tensor* weight = nullptr;      // mlp message weight
  const tensor::Tensor* query = nullptr;       // logit a (by edge source)
  const tensor::Tensor* key = nullptr;         // logit b (by edge destination)
  const tensor::Tensor* edge_logits = nullptr; // precomputed |E| logits
  float logit_scale = 1.0f;
};

struct AttentionResult {
  tensor::Tensor out;    // num_rows x d_out; empty rows produce zeros
  tensor::Tensor alpha;  // |E| softmax weights by edge id (autograd needs
                         // them; the |E| x d messages stay unmaterialized)
};

/// Runs the fused attention kernel over the destination-major CSR. `msg_op`
/// is any builtin SpMM message op (spmm.hpp). Edges of empty rows don't
/// exist, so every alpha entry is written exactly once.
AttentionResult attention(const graph::Csr& adj, std::string_view msg_op,
                          const CpuSpmmSchedule& fds,
                          const AttentionOperands& operands);

/// Standalone fused segment softmax over each destination's in-edges:
/// alpha[e] = exp(l[e] - rowmax) / rowsum. Threaded over rows and span-
/// accelerated — this is what minidgl::edge_softmax routes through (the old
/// path was a single-threaded scalar triple sweep). Empty rows contribute
/// nothing; logits of length |E| are indexed by edge id.
tensor::Tensor edge_softmax(const graph::Csr& adj,
                            const tensor::Tensor& logits,
                            int num_threads = 1);

/// Backward of edge_softmax: dl[e] = alpha[e] * (dalpha[e] - <alpha, dalpha>
/// over e's destination segment).
tensor::Tensor edge_softmax_backward(const graph::Csr& adj,
                                     const tensor::Tensor& alpha,
                                     const tensor::Tensor& dalpha,
                                     int num_threads = 1);

}  // namespace featgraph::core
