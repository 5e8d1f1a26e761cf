// Figure 14: sensitivity of FeatGraph CPU performance to the two schedule
// axes — number of graph partitions x number of feature partitions — for
// GCN aggregation on reddit, feature length 128 (the paper's 4x4 heat map).
//
// Paper headline: the optimum sits in the interior (16 graph partitions x
// 4 feature partitions at full scale), degrading toward both corners —
// too few partitions thrash the cache, too many pay merge cost.
#include <cstdio>

#include "common.hpp"

namespace fb = featgraph::bench;
namespace fg = featgraph;
using fg::support::Table;
using fg::tensor::Tensor;

int main() {
  fb::print_banner("Figure 14",
                   "schedule sensitivity grid (GCN aggregation, reddit-like, "
                   "feat len 128, 1 thread)");
  // Sized so the feature matrix (100K x 128 floats = 51 MB) exceeds a 25 MB
  // LLC ~2x like the paper's (119 MB vs 25 MB) and the degree is high
  // enough for per-partition merge cost to amortize — otherwise every
  // schedule is equally cache-resident and the grid is flat.
  const fg::graph::Dataset d{
      "reddit-like",
      fg::graph::Graph(fg::graph::gen_community(100000, 128.0, 50, 0.7, 22))};
  constexpr std::int64_t kFeatLen = 128;
  const Tensor x = Tensor::randn({d.graph.num_vertices(), kFeatLen}, 1);

  const int graph_parts[] = {1, 4, 16, 64};
  const int feat_parts[] = {1, 2, 4, 8};

  Table t({"", "# graph parts = 1", "= 4", "= 16", "= 64"});
  double best = 1e30;
  int best_gp = 0, best_fp = 0;
  for (int fp : feat_parts) {
    std::vector<std::string> row = {"# feature parts = " + std::to_string(fp)};
    for (int gp : graph_parts) {
      fg::core::ScheduleIr ir;
      if (gp > 1) ir.partition(gp);
      ir.tile(kFeatLen / fp);
      const fg::core::CpuSpmmSchedule sched = fg::core::spmm_schedule(ir);
      const double secs = fb::measure_seconds([&] {
        (void)fg::core::spmm(d.graph.in_csr(), "copy_u", "sum", sched,
                             {&x, nullptr, nullptr});
      });
      if (secs < best) {
        best = secs;
        best_gp = gp;
        best_fp = fp;
      }
      row.push_back(Table::num(secs * 1e3, 1) + " ms");
    }
    t.add_row(row);
  }
  t.print();
  std::printf("\nbest: %d graph partitions x %d feature partitions (%.1f ms)\n",
              best_gp, best_fp, best * 1e3);
  std::printf("paper (full scale): best at 16 graph x 4 feature partitions\n");
  return 0;
}
