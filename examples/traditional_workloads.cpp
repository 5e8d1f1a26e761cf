// Traditional graph workloads on the same substrate — the paper's framing
// (Sec. II-B, VI): BFS and PageRank are what existing systems were built
// for (scalar per vertex), and they map onto frontier engines (Ligra) or
// sparse linear algebra (GraphBLAS-style SpMV). GNN workloads differ by the
// feature dimension; FeatGraph's SpMM degenerates to exactly these classics
// when the feature length is 1.
//
//   $ ./traditional_workloads
#include <cstdio>
#include <numeric>

#include "baselines/ligra.hpp"
#include "baselines/vendor_spmm.hpp"
#include "featgraph.hpp"
#include "graph/stats.hpp"
#include "support/timer.hpp"

namespace fg = featgraph;

int main() {
  fg::graph::Graph g(fg::graph::gen_community(50000, 16.0, 25, 0.6, /*seed=*/3));
  const auto stats = fg::graph::source_degree_stats(g.in_csr());
  std::printf("graph: %d vertices, %lld edges; %s\n", g.num_vertices(),
              static_cast<long long>(g.num_edges()),
              fg::graph::describe(stats).c_str());

  // 1. BFS on the Ligra-style frontier engine (push/pull switching).
  fg::support::Timer t1;
  const auto levels = fg::baselines::ligra::bfs(g, /*root=*/0, /*threads=*/2);
  std::int64_t reached = 0;
  std::int32_t max_level = 0;
  for (auto l : levels) {
    if (l >= 0) {
      ++reached;
      max_level = std::max(max_level, l);
    }
  }
  std::printf("BFS: reached %lld vertices, eccentricity %d, %.1f ms\n",
              static_cast<long long>(reached), max_level, t1.millis());

  // 2. PageRank, vertex-centric (Ligra-style pull iterations).
  fg::support::Timer t2;
  const auto pr = fg::baselines::ligra::pagerank(g, /*iters=*/20, 0.85, 2);
  const auto top = std::max_element(pr.begin(), pr.end()) - pr.begin();
  std::printf("PageRank (vertex-centric): top vertex %lld (%.2e), %.1f ms\n",
              static_cast<long long>(top), pr[static_cast<std::size_t>(top)],
              t2.millis());

  // 3. PageRank as sparse linear algebra (GraphBLAS formulation): each
  //    iteration is one SpMV — r' = (1-d)/n + d * A^T (r / outdeg).
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<float> rank(n, 1.0f / static_cast<float>(n));
  fg::support::Timer t3;
  for (int it = 0; it < 20; ++it) {
    std::vector<float> contrib(n, 0.0f);
    for (fg::graph::vid_t u = 0; u < g.num_vertices(); ++u) {
      const auto deg = g.out_csr().degree(u);
      if (deg > 0)
        contrib[static_cast<std::size_t>(u)] =
            rank[static_cast<std::size_t>(u)] / static_cast<float>(deg);
    }
    const auto agg = fg::baselines::vendor::csr_spmv(g.in_csr(), contrib, 2);
    for (std::size_t v = 0; v < n; ++v)
      rank[v] = 0.15f / static_cast<float>(n) + 0.85f * agg[v];
  }
  std::printf("PageRank (SpMV formulation):   top vertex %lld (%.2e), %.1f ms\n",
              static_cast<long long>(
                  std::max_element(rank.begin(), rank.end()) - rank.begin()),
              *std::max_element(rank.begin(), rank.end()), t3.millis());

  // 4. The same computation through FeatGraph's generalized SpMM with
  //    feature length 1 — the degenerate case where GNN kernels meet
  //    traditional workloads (u_mul_e aggregates rank/deg over in-edges).
  fg::tensor::Tensor r({g.num_vertices(), 1});
  for (std::size_t v = 0; v < n; ++v) r.at(static_cast<std::int64_t>(v)) = 1.0f / n;
  fg::tensor::Tensor inv_deg({g.num_edges()});
  for (fg::graph::eid_t e = 0; e < g.num_edges(); ++e) {
    const auto deg = g.out_csr().degree(g.coo().src[static_cast<std::size_t>(e)]);
    inv_deg.at(e) = deg > 0 ? 1.0f / static_cast<float>(deg) : 0.0f;
  }
  fg::support::Timer t4;
  for (int it = 0; it < 20; ++it) {
    auto agg = fg::core::spmm(g.in_csr(), "u_mul_e", "sum",
                              {.num_threads = 2, .ir = nullptr},
                              {&r, &inv_deg, nullptr});
    for (std::size_t v = 0; v < n; ++v)
      r.at(static_cast<std::int64_t>(v)) =
          0.15f / static_cast<float>(n) +
          0.85f * agg.at(static_cast<std::int64_t>(v));
  }
  std::printf("PageRank (FeatGraph d=1):      top vertex %lld (%.2e), %.1f ms\n",
              static_cast<long long>(
                  std::max_element(r.data(), r.data() + n) - r.data()),
              *std::max_element(r.data(), r.data() + n), t4.millis());
  return 0;
}
