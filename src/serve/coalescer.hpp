// Cross-request coalescing — the pure half of the multi-tenant serving
// front-end (src/serve/server.hpp is the concurrent half).
//
// A production GNN service receives millions of small concurrent queries,
// each a set of seed vertices wanting their model outputs (TF-GNN's
// serving framing: the unit of work is a per-request seed set, not an
// epoch). Serving each request alone wastes the memory-bound phases —
// power-law traffic concentrates on a few hot vertices, so concurrent
// requests overlap heavily in seeds AND in sampled frontiers. The
// coalescer merges whatever arrived within the admission window into ONE
// minibatch:
//
//   requests    r0: [a, b]   r1: [b, c]   r2: [a]
//   merged seeds     [a, b, c]            (first appearance, deduped)
//   row_of           r0 -> {0, 1}  r1 -> {1, 2}  r2 -> {0}
//
// One shared sample -> gather -> compute pass then serves every request;
// scatter_back copies each request its output rows. Frontier dedup across
// requests comes for free: the merged seed list flows through the existing
// MinibatchBlocks relabeling, whose first-appearance de-dup collapses the
// shared neighborhoods the same way it collapses shared neighbors inside
// one batch.
//
// Determinism: because the neighbor sampler keys its RNG streams on
// (batch, hop, destination VERTEX) — not seed position — and block SpMM
// accumulates each destination row independently in CSR row order
// (no partition transform on the serving path), every per-request output
// row of the coalesced batch is BIT-IDENTICAL to serving that request
// alone under the same sampler stream (Serve.CoalescedMatchesSoloBitForBit
// pins this per ISA).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "tensor/tensor.hpp"

namespace featgraph::serve {

/// One tenant query: a small set of seed (output) vertices. Seeds must be
/// duplicate-free WITHIN a request — the same precondition solo serving has
/// (block destinations are duplicate-free); duplicates ACROSS requests are
/// exactly what the coalescer dedups.
struct Request {
  std::int64_t id = 0;
  std::vector<graph::vid_t> seeds;
};

/// A group of requests merged into one shared minibatch.
struct CoalescedBatch {
  std::vector<Request> requests;
  /// Merged seed list: first-appearance order over the concatenated request
  /// seed lists, duplicate-free — the dst list of the shared sample.
  std::vector<graph::vid_t> seeds;
  /// row_of[r][k] = row of the merged output holding requests[r].seeds[k].
  std::vector<std::vector<std::int64_t>> row_of;
  /// Seed rows saved by cross-request dedup (sum of request seed counts
  /// minus merged rows) — sampling + gather + compute skipped entirely.
  std::int64_t shared_seed_rows = 0;

  std::int64_t total_request_seeds() const {
    return static_cast<std::int64_t>(seeds.size()) + shared_seed_rows;
  }
};

/// Merges `requests` into one batch (see file comment for the row mapping).
CoalescedBatch coalesce(std::vector<Request> requests);

/// Splits the merged (batch.seeds.size() x d) output back per request:
/// result[r].row(k) is bitwise merged_out.row(batch.row_of[r][k]).
std::vector<tensor::Tensor> scatter_back(const CoalescedBatch& batch,
                                         const tensor::Tensor& merged_out);

}  // namespace featgraph::serve
