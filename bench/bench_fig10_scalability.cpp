// Figure 10: multi-threaded scalability of GCN aggregation on reddit with
// feature length 512, 1..16 threads, FeatGraph vs Ligra vs MKL.
//
// Paper headline: at 16 threads FeatGraph reaches 12.6x over its own
// single-threaded execution vs 9.5x (Ligra) and 9.8x (MKL), because
// (1) threads cooperate on one graph partition at a time (no LLC
// contention) and (2) the TVM-style thread pool is lightweight.
//
// Method (see DESIGN.md §1): this host may have fewer than 16 cores, so the
// curve comes from the calibrated scaling model: per-chunk single-thread
// costs are MEASURED on the mini-scale dataset, projected to the paper-scale
// graph, and scheduled onto k virtual workers with an LLC-contention +
// bandwidth-roofline model of the paper's 18-core Xeon.
#include <cstdio>

#include "baselines/ligra.hpp"
#include "baselines/vendor_spmm.hpp"
#include "common.hpp"
#include "parallel/scaling_model.hpp"

namespace fb = featgraph::bench;
namespace fg = featgraph;
using fg::parallel::SchedulingMode;
using fg::parallel::WorkChunk;
using fg::support::Table;
using fg::tensor::Tensor;

namespace {

constexpr std::int64_t kFeatLen = 512;

struct SystemProfile {
  const char* name;
  SchedulingMode mode;
  std::vector<WorkChunk> chunks;  // projected to paper scale
};

}  // namespace

int main() {
  fb::print_banner("Figure 10",
                   "scalability of GCN aggregation (reddit, feat len 512)");

  // Mini-scale measurement to calibrate per-edge-per-feature cost.
  const auto mini = fg::graph::make_reddit_like(fb::dataset_scale());
  const Tensor x = Tensor::randn({mini.graph.num_vertices(), kFeatLen}, 1);
  const double mini_work =
      static_cast<double>(mini.graph.num_edges()) * kFeatLen;

  const double ligra_per_unit =
      fb::measure_seconds(
          [&] { (void)fg::baselines::ligra::gcn_aggregate(mini.graph, x, 1); }) /
      mini_work;
  const double mkl_per_unit =
      fb::measure_seconds([&] {
        (void)fg::baselines::vendor::csr_spmm(mini.graph.in_csr(), x, 1);
      }) /
      mini_work;
  const fg::core::CpuSpmmSchedule fg_sched =
      fg::core::spmm_schedule(fg::core::ScheduleIr().partition(16).tile(64));
  const double fg_per_unit =
      fb::measure_seconds([&] {
        (void)fg::core::spmm(mini.graph.in_csr(), "copy_u", "sum", fg_sched,
                             {&x, nullptr, nullptr});
      }) /
      mini_work;

  // Paper-scale reddit: 233K vertices, 114.8M edges, d = 512.
  const double n_full = 233000.0, m_full = 114.8e6;
  const double work_full = m_full * kFeatLen;
  const double feat_bytes = n_full * kFeatLen * 4.0;  // 477 MB of features

  // FeatGraph: 16 partitions x 8 feature tiles of 64; each chunk touches one
  // partition's source slice (fits the LLC by construction).
  std::vector<WorkChunk> fg_chunks;
  for (int c = 0; c < 16 * 8; ++c)
    fg_chunks.push_back({fg_per_unit * work_full / (16 * 8),
                         feat_bytes / 16 / 8 + m_full * 4.0 / 16});
  // Ligra / MKL: 64 destination-row blocks; every block streams scattered
  // source rows, so its working set is the whole feature matrix slice it
  // touches (no tiling, no partitioning).
  auto row_block_chunks = [&](double per_unit) {
    std::vector<WorkChunk> chunks;
    for (int c = 0; c < 64; ++c)
      chunks.push_back({per_unit * work_full / 64,
                        m_full / 64 * kFeatLen * 4.0});
    return chunks;
  };

  SystemProfile systems[] = {
      {"FeatGraph", SchedulingMode::kCooperative, fg_chunks},
      {"Ligra", SchedulingMode::kIndependent, row_block_chunks(ligra_per_unit)},
      {"MKL-like", SchedulingMode::kIndependent, row_block_chunks(mkl_per_unit)},
  };

  Table t({"threads", "FeatGraph speedup", "Ligra speedup", "MKL speedup"});
  fg::parallel::ScalingModelParams params;
  std::vector<double> base(3);
  for (int s = 0; s < 3; ++s)
    base[static_cast<std::size_t>(s)] = fg::parallel::predict_parallel_seconds(
        systems[s].chunks, 1, systems[s].mode, params);
  for (int k : {1, 2, 4, 8, 16}) {
    std::vector<std::string> row = {std::to_string(k)};
    for (int s = 0; s < 3; ++s) {
      const double tk = fg::parallel::predict_parallel_seconds(
          systems[s].chunks, k, systems[s].mode, params);
      row.push_back(Table::num(base[static_cast<std::size_t>(s)] / tk, 2) + "x");
    }
    t.add_row(row);
  }
  t.print();
  std::printf("\npaper @16 threads: FeatGraph 12.6x, MKL 9.8x, Ligra 9.5x\n");
  return 0;
}
