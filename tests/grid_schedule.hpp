// Test shorthand for the paper's schedule grid spelled as a Schedule-IR
// program: partition(P).tile(W).split_nnz(lb), each transform omitted at its
// default (P = 1, W = 0 = whole feature vector, nnz-balanced); and the
// points of a tuner space, in grid order.
#pragma once

#include <cstdint>
#include <vector>

#include "core/schedule_ir.hpp"
#include "core/tuner.hpp"

namespace featgraph::testing {

inline core::CpuSpmmSchedule grid_schedule(
    int parts, std::int64_t tile, int threads = 1,
    core::LoadBalance lb = core::LoadBalance::kNnzBalanced) {
  core::ScheduleIr ir;
  if (parts > 1) ir.partition(parts);
  if (tile > 0) ir.tile(tile);
  if (lb != core::LoadBalance::kNnzBalanced) ir.split_nnz(lb);
  return core::spmm_schedule(ir, threads);
}

/// Every point of `space`, enumerated by a grid tune with a no-op measure.
template <class S>
std::vector<S> grid_points(const core::TuneSpace<S>& space) {
  std::vector<S> points;
  (void)core::tune(space, [&](const S& s) {
    points.push_back(s);
    return 0.0;
  });
  return points;
}

}  // namespace featgraph::testing
