#include "core/sddmm.hpp"

#include <map>
#include <memory>
#include <mutex>

#include "core/sddmm_kernels.hpp"
#include "graph/hilbert.hpp"

namespace featgraph::core {

namespace {

using tensor::Tensor;

std::mutex g_order_mutex;
// Keyed by the COO's process-unique uid (addresses get recycled, uids not).
std::map<std::uint64_t, std::unique_ptr<std::vector<graph::eid_t>>>
    g_order_cache;

template <class EdgeFn>
Tensor run_sddmm(const graph::Coo& coo, const EdgeFn& fn,
                 const CpuSddmmSchedule& fds) {
  const std::int64_t n_out = fn.num_out();
  Tensor out = n_out == 1 ? Tensor({coo.num_edges()})
                          : Tensor({coo.num_edges(), n_out});
  const std::vector<graph::eid_t>* order =
      fds.hilbert_order ? cached_hilbert_order(coo) : nullptr;
  generalized_sddmm(coo, order, fn, out.data(), fds);
  return out;
}

const Tensor& require(const Tensor* t, const char* what) {
  FG_CHECK_MSG(t != nullptr && t->defined(), what);
  return *t;
}

}  // namespace

const std::vector<graph::eid_t>* cached_hilbert_order(const graph::Coo& coo) {
  std::lock_guard<std::mutex> lock(g_order_mutex);
  auto it = g_order_cache.find(coo.uid);
  if (it == g_order_cache.end()) {
    auto order = std::make_unique<std::vector<graph::eid_t>>(
        graph::hilbert_edge_order(coo));
    it = g_order_cache.emplace(coo.uid, std::move(order)).first;
  }
  return it->second.get();
}

Tensor sddmm(const graph::Coo& coo, std::string_view edge_op,
             const CpuSddmmSchedule& fds, const SddmmOperands& ops) {
  const Tensor& a = require(ops.src_feat, "sddmm requires src_feat");
  const Tensor& b = ops.dst_feat != nullptr ? *ops.dst_feat : a;
  FG_CHECK(a.rows() == coo.num_src);
  FG_CHECK(b.rows() == coo.num_dst);
  FG_CHECK_MSG(a.row_size() == b.row_size(),
               "sddmm operand feature widths must match");

  if (edge_op == "dot") {
    return run_sddmm(coo, DotUV{a.data(), b.data(), a.row_size()}, fds);
  }
  if (edge_op == "multihead_dot") {
    FG_CHECK_MSG(a.rank() == 3, "multihead_dot expects (n x heads x dim)");
    return run_sddmm(
        coo, MultiHeadDotUV{a.data(), b.data(), a.shape(1), a.shape(2)}, fds);
  }
  if (edge_op == "u_add_v") {
    return run_sddmm(coo, UOpVEdge<OpAdd>{a.data(), b.data(), a.row_size(), {}},
                     fds);
  }
  if (edge_op == "u_mul_v") {
    return run_sddmm(coo, UOpVEdge<OpMul>{a.data(), b.data(), a.row_size(), {}},
                     fds);
  }
  FG_CHECK_MSG(false, "unknown sddmm edge op");
}

namespace {

struct GenericEdgeAdapter {
  const GenericEdgeFn* fn;
  std::int64_t d_out;
  std::int64_t num_out() const { return d_out; }
  std::int64_t reduce_len() const { return 1; }
  float partial(const simd::SpanOps&, graph::vid_t u, graph::eid_t e,
                graph::vid_t v, std::int64_t h, std::int64_t,
                std::int64_t) const {
    thread_local std::vector<float> buf;
    if (static_cast<std::int64_t>(buf.size()) < d_out) buf.resize(d_out);
    // The template calls partial once per output element; recomputing the
    // whole vector per element would be quadratic, so cache the last edge.
    thread_local graph::eid_t cached_edge = -1;
    thread_local const GenericEdgeFn* cached_fn = nullptr;
    if (cached_edge != e || cached_fn != fn) {
      (*fn)(u, e, v, buf.data());
      cached_edge = e;
      cached_fn = fn;
    }
    return buf[h];
  }
};

}  // namespace

Tensor sddmm_generic(const graph::Coo& coo, const GenericEdgeFn& fn,
                     std::int64_t d_out, const CpuSddmmSchedule& fds) {
  // Blackbox UDFs have no visible reduce axis: drop the program's reduce
  // tile, keep its edge chunking.
  CpuSddmmSchedule sched = fds;
  if (sched.ir != nullptr)
    sched.ir = std::make_shared<const ScheduleIr>(
        sched.ir->without(IrTransformKind::kTileFeat));
  return run_sddmm(coo, GenericEdgeAdapter{&fn, d_out}, sched);
}

}  // namespace featgraph::core
