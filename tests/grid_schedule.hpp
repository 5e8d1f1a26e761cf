// Test shorthand for the paper's schedule grid spelled as a Schedule-IR
// program: partition(P).tile(W).split_nnz(lb), each transform omitted at its
// default (P = 1, W = 0 = whole feature vector, nnz-balanced).
#pragma once

#include <cstdint>

#include "core/schedule_ir.hpp"

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

}  // namespace featgraph::testing
