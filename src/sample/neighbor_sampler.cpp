#include "sample/neighbor_sampler.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/shard_exec.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace featgraph::sample {

namespace {

/// Stream id of one (batch, hop, destination-VERTEX) draw: three chained
/// SplitMix64 avalanches so no two triples share a stream in practice, and
/// the id depends on nothing but the triple — the order-independence the
/// determinism contract rests on. Keying on the vertex id (not the
/// destination's position in the seed list) makes a vertex's sampled
/// neighborhood invariant to where it appears in the batch, which is what
/// lets the serving coalescer merge seed lists across requests and still
/// reproduce each request's solo sampling bit-for-bit (src/serve).
std::uint64_t stream_of(std::uint64_t batch, std::uint64_t hop,
                        std::uint64_t vertex) {
  std::uint64_t s = support::splitmix64(batch);
  s = support::splitmix64(s ^ (hop + 0x9e3779b97f4a7c15ULL));
  return support::splitmix64(s ^ vertex);
}

/// Chooses the sampled CSR positions [0, deg) for one destination row,
/// ascending (CSR order preserved — full fanout reproduces the row
/// verbatim).
std::vector<std::int64_t> pick_positions(std::int64_t deg, std::int64_t fanout,
                                         bool replace, support::Rng& rng) {
  std::vector<std::int64_t> pos;
  if (deg == 0) return pos;
  if (fanout < 0 || (!replace && deg <= fanout)) {
    // Full neighborhood: no RNG consumed, CSR order verbatim.
    pos.resize(static_cast<std::size_t>(deg));
    for (std::int64_t p = 0; p < deg; ++p)
      pos[static_cast<std::size_t>(p)] = p;
    return pos;
  }
  pos.reserve(static_cast<std::size_t>(fanout));
  if (replace) {
    for (std::int64_t k = 0; k < fanout; ++k)
      pos.push_back(
          static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(deg))));
  } else {
    // Floyd's algorithm: `fanout` DISTINCT positions in [0, deg) with
    // exactly `fanout` uniform draws. Membership is a linear scan of the
    // <= fanout picks so far — fanouts are small and bounded, and this is
    // every pipeline lane's hot path, so no per-row hash set allocation.
    for (std::int64_t j = deg - fanout; j < deg; ++j) {
      const auto t = static_cast<std::int64_t>(
          rng.uniform(static_cast<std::uint64_t>(j) + 1));
      const bool taken = std::find(pos.begin(), pos.end(), t) != pos.end();
      pos.push_back(taken ? j : t);
    }
  }
  std::sort(pos.begin(), pos.end());
  return pos;
}

}  // namespace

NeighborSampler::NeighborSampler(const graph::Csr& in_csr,
                                 SamplerConfig config)
    : csr_(&in_csr), config_(std::move(config)) {
  FG_CHECK_MSG(!config_.fanouts.empty(),
               "sampler needs at least one per-layer fanout");
}

MinibatchBlocks NeighborSampler::sample(const std::vector<graph::vid_t>& seeds,
                                        std::uint64_t batch_index,
                                        int num_threads) const {
  FG_CHECK(num_threads >= 1);
  const int num_layers = static_cast<int>(config_.fanouts.size());
  static obs::Counter& obs_samples =
      obs::Registry::global().counter("sample.khop.count");
  static obs::Counter& obs_seeds =
      obs::Registry::global().counter("sample.seeds.expanded");
  obs_samples.add(1);
  obs_seeds.add(static_cast<std::int64_t>(seeds.size()));
  FG_TRACE_SCOPE("sample.khop",
                 obs::arg("seeds", static_cast<std::int64_t>(seeds.size())),
                 obs::arg("layers", num_layers));
  MinibatchBlocks mfg;
  mfg.blocks.resize(static_cast<std::size_t>(num_layers));

  // Sample outward from the seeds: the LAST layer's block first, its source
  // frontier becoming the next (earlier) layer's destinations.
  std::vector<graph::vid_t> dst = seeds;
  for (int layer = num_layers - 1; layer >= 0; --layer) {
    const std::int64_t fanout = config_.fanouts[static_cast<std::size_t>(layer)];
    const std::uint64_t hop =
        static_cast<std::uint64_t>(num_layers - 1 - layer);
    std::vector<std::vector<std::int64_t>> picked(dst.size());
    const auto sample_range = [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const graph::vid_t v = dst[static_cast<std::size_t>(i)];
        FG_CHECK_MSG(v >= 0 && v < csr_->num_rows,
                     "minibatch seed out of range");
        support::Rng rng(config_.seed,
                         stream_of(batch_index, hop,
                                   static_cast<std::uint64_t>(v)));
        picked[static_cast<std::size_t>(i)] =
            pick_positions(csr_->degree(v), fanout, config_.replace, rng);
      }
    };
    const auto n = static_cast<std::int64_t>(dst.size());
    if (num_threads <= 1 || n < 2) {
      sample_range(0, n);
    } else {
      // Shard-local sampling with cross-shard stealing: destinations split
      // into contiguous shards (a destination writes only picked[i], and
      // its RNG stream depends only on the vertex id, so any lane-to-shard
      // assignment produces identical blocks). Over-decompose 4x per lane
      // so a shard of hub vertices migrates instead of straggling.
      const int shards = static_cast<int>(std::min<std::int64_t>(
          n, static_cast<std::int64_t>(4 * num_threads)));
      parallel::sharded_row_sweep(/*indptr=*/nullptr, n, shards,
                                  /*steal_grain=*/1, num_threads,
                                  sample_range);
    }
    mfg.blocks[static_cast<std::size_t>(layer)] =
        make_block(*csr_, std::move(dst), picked);
    dst = mfg.blocks[static_cast<std::size_t>(layer)].src_nodes;
  }
  return mfg;
}

}  // namespace featgraph::sample
