// Figure 11: effect of graph partitioning and feature-dimension tiling on
// the CPU performance of GCN aggregation (reddit-like, single thread).
//
// Paper headline at feature length 512: tiling alone 1.2x, partitioning
// alone 1.7x, combined 2.2x over the unoptimized kernel.
//
// The experiment regime matters (Fig. 6): the feature matrix must exceed
// the LLC several times (so the baseline misses), the average degree must
// be high (so source rows are re-read often and out-row merge cost
// amortizes), and — exactly as Fig. 6b argues — tiling lets the combined
// config use FEWER graph partitions than partitioning alone, trading one
// extra adjacency sweep per tile for cheaper merges. The dataset is sized
// to reproduce those ratios on a ~25 MB-LLC host: 50K vertices, degree 250
// (vs the paper's 233K / 493 at a 25 MB LLC).
#include <cstdio>

#include "common.hpp"

namespace fb = featgraph::bench;
namespace fg = featgraph;
using fg::support::Table;
using fg::tensor::Tensor;

namespace {

constexpr double kLlcShare = 12.5 * 1024 * 1024;  // half of a 25 MB LLC

int partitions_for(std::int64_t num_vertices, std::int64_t width) {
  const double bytes = static_cast<double>(num_vertices) * width * 4.0;
  return std::max(1, static_cast<int>(std::ceil(bytes / kLlcShare)));
}

}  // namespace

int main() {
  fb::print_banner("Figure 11",
                   "graph partitioning x feature tiling ablation "
                   "(GCN aggregation, reddit-like, 1 thread)");
  const fg::graph::Dataset d{
      "reddit-like",
      fg::graph::Graph(fg::graph::gen_community(50000, 250.0, 50, 0.7, 22))};
  std::printf("dataset: %d vertices, %lld edges (sized so features span "
              "1-4x a 25 MB LLC and merge cost amortizes; see header)\n\n",
              d.graph.num_vertices(),
              static_cast<long long>(d.graph.num_edges()));

  constexpr std::int64_t kTile = 64;
  Table t({"feat len", "config", "schedule", "seconds",
           "speedup vs baseline"});
  for (std::int64_t len : {std::int64_t{128}, std::int64_t{256},
                           std::int64_t{512}}) {
    const Tensor x = Tensor::randn({d.graph.num_vertices(), len}, 1);
    const int parts_full = partitions_for(d.graph.num_vertices(), len);
    const int parts_tiled = partitions_for(d.graph.num_vertices(), kTile);

    struct Config {
      const char* name;
      int partitions;
      std::int64_t tile;
    };
    // Fig. 6b: tiling reduces the number of partitions needed (paper: 4 -> 2).
    const Config configs[] = {
        {"baseline", 1, 0},
        {"feature tiling", 1, kTile},
        {"graph partitioning", parts_full, 0},
        {"tiling + partitioning", parts_tiled, kTile},
    };

    double baseline = 0.0;
    for (const auto& cfg : configs) {
      const std::int64_t tile = std::min<std::int64_t>(cfg.tile, len);
      fg::core::ScheduleIr ir;
      if (cfg.partitions > 1) ir.partition(cfg.partitions);
      if (tile > 0) ir.tile(tile);
      const fg::core::CpuSpmmSchedule sched = fg::core::spmm_schedule(ir);
      const double secs = fb::measure_seconds([&] {
        (void)fg::core::spmm(d.graph.in_csr(), "copy_u", "sum", sched,
                             {&x, nullptr, nullptr});
      });
      if (baseline == 0.0) baseline = secs;
      char sched_str[48];
      std::snprintf(sched_str, sizeof(sched_str), "parts=%d tile=%lld",
                    cfg.partitions, static_cast<long long>(tile));
      t.add_row({std::to_string(len), cfg.name, sched_str,
                 Table::num(secs, 4), fb::speedup_str(baseline, secs)});
    }
  }
  t.print();
  std::printf("\npaper @512: tiling 1.2x, partitioning 1.7x, combined 2.2x\n");
  return 0;
}
