// Quickstart: express GCN aggregation with the FeatGraph API and tune its
// schedule — the C++ rendering of the paper's Fig. 3a.
//
//   $ ./quickstart
#include <cstdio>

#include "featgraph.hpp"

namespace fg = featgraph;
using fg::core::CpuSpmmSchedule;
using fg::tensor::Tensor;

int main() {
  // 1. A graph: 10K vertices with community structure, ~40 edges each.
  fg::graph::Graph g(fg::graph::gen_community(10000, 40.0, 10, 0.7, /*seed=*/1));
  std::printf("graph: %d vertices, %lld edges\n", g.num_vertices(),
              static_cast<long long>(g.num_edges()));

  // 2. Vertex features: 10K x 128.
  const Tensor x = Tensor::randn({g.num_vertices(), 128}, /*seed=*/2);

  // 3. GCN aggregation = SpMM template + copy_u message + sum reducer.
  //    The schedule is the two-level optimization handle, one Schedule-IR
  //    program: graph partitions (template half) and feature tiling (FDS
  //    half), run on 2 threads.
  const CpuSpmmSchedule fds = fg::core::spmm_schedule(
      fg::core::ScheduleIr().partition(4).tile(64), /*num_threads=*/2);
  const Tensor h = fg::core::spmm(g.in_csr(), "copy_u", "sum", fds,
                                  {&x, nullptr, nullptr});
  std::printf("aggregated features: %lld x %lld, h[0][0..3] = %.3f %.3f %.3f %.3f\n",
              static_cast<long long>(h.rows()),
              static_cast<long long>(h.row_size()), h.at(0, 0), h.at(0, 1),
              h.at(0, 2), h.at(0, 3));

  // 4. Let the grid-search tuner pick the best schedule in the paper's
  //    partition x tile x row-split space for this topology and feature
  //    length (paper Sec. IV-A), timing each candidate on the real kernel.
  const auto tuned = fg::core::tune(
      fg::core::paper_spmm_space(x.row_size(), /*num_threads=*/2),
      fg::core::spmm_measure(g.in_csr(), "copy_u", "sum",
                             {&x, nullptr, nullptr}));
  std::printf("tuned schedule: %s (%zu trials, %.3f ms)\n",
              tuned.best.ir != nullptr ? tuned.best.ir->describe().c_str()
                                       : "<default>",
              tuned.trials.size(), tuned.best_seconds * 1e3);

  // 5. Edge-wise computation: dot-product attention (Fig. 4a) via SDDMM.
  fg::core::CpuSddmmSchedule sfds;
  sfds.hilbert_order = true;
  sfds.num_threads = 2;
  const Tensor att = fg::core::sddmm(g.coo(), "dot", sfds, {&x, nullptr});
  std::printf("attention scores on %lld edges, att[0] = %.3f\n",
              static_cast<long long>(att.numel()), att.at(0));
  return 0;
}
