// Ablation: naive grid search (the paper's tuner, Sec. IV-A) vs budgeted
// hill climbing (the paper's future-work item), both over the paper space
// (core/tuner.hpp). Reports trials used and the quality of the found
// schedule on real kernels across feature lengths.
#include <cstdio>

#include "common.hpp"
#include "core/tuner.hpp"

namespace fb = featgraph::bench;
namespace fg = featgraph;
using fg::support::Table;
using fg::tensor::Tensor;

int main() {
  fb::print_banner("Tuner ablation",
                   "grid search vs budgeted hill climbing (GCN aggregation)");
  const auto d = fg::graph::make_reddit_like(fb::dataset_scale());

  Table t({"feat len", "grid trials", "grid best (ms)", "smart trials",
           "smart best (ms)", "smart vs grid"});
  for (std::int64_t len : {std::int64_t{64}, std::int64_t{128},
                           std::int64_t{256}}) {
    const Tensor x = Tensor::randn({d.graph.num_vertices(), len}, 1);
    const fg::core::SpmmOperands ops{&x, nullptr, nullptr};

    const auto space = fg::core::paper_spmm_space(len, 1);
    const auto measure =
        fg::core::spmm_measure(d.graph.in_csr(), "copy_u", "sum", ops);
    const auto grid_result = fg::core::tune(space, measure);
    const auto smart = fg::core::tune(
        space, measure,
        {.strategy = fg::core::TuneStrategy::kHillClimb, .max_trials = 10});

    t.add_row({std::to_string(len), std::to_string(grid_result.trials.size()),
               Table::num(grid_result.best_seconds * 1e3, 2),
               std::to_string(smart.trials.size()),
               Table::num(smart.best_seconds * 1e3, 2),
               fb::speedup_str(smart.best_seconds,
                               grid_result.best_seconds)});
  }
  t.print();
  std::printf("\nfuture-work claim: a budget of ~10 trials reaches grid-search "
              "quality with ~1/3 of the measurements\n");
  return 0;
}
