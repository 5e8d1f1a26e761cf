// Google-benchmark micro suite over kernel variants: SpMM and SDDMM under
// different schedules (unpartitioned / partitioned / tiled / Hilbert), SIMD
// backends (scalar / AVX2 / AVX-512) and row-split policies (static /
// nnz-balanced). Complements the paper-table binaries with statistically
// robust per-kernel timings.
//
// After the registered benchmarks run, main() records the canonical
// micro-kernel baseline — copy_u/sum SpMM on an R-MAT graph at d=64 and at
// d=100 (not a multiple of the vector width: the masked-tail workload),
// scalar vs avx2 vs avx512 and static vs nnz-balanced — to
// BENCH_kernels.json in the working directory, so successive PRs accumulate
// a perf trajectory. Pass --benchmark_filter='^$' to skip the
// google-benchmark suite and only refresh the baseline file.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string_view>
#include <thread>

#include "featgraph.hpp"
#include "common.hpp"
#include "gpusim/attention_gpu.hpp"

namespace fg = featgraph;
using fg::core::CpuSpmmSchedule;
using fg::core::LoadBalance;
using fg::simd::Isa;
using fg::tensor::Tensor;

namespace {

struct MicroFixture {
  fg::graph::Coo coo;
  fg::graph::Csr in_csr;
  Tensor x;

  MicroFixture()
      : coo(fg::graph::gen_community(20000, 32.0, 20, 0.7, 7)),
        in_csr(fg::graph::coo_to_in_csr(coo)),
        x(Tensor::randn({20000, 128}, 8)) {}

  static MicroFixture& get() {
    static MicroFixture f;
    return f;
  }
};

Isa isa_arg(std::int64_t v) {
  return v == 0 ? Isa::kScalar : v == 1 ? Isa::kAvx2 : Isa::kAvx512;
}

void BM_SpmmCopyUSum(benchmark::State& state) {
  auto& f = MicroFixture::get();
  fg::core::ScheduleIr ir;
  if (state.range(0) > 1) ir.partition(static_cast<int>(state.range(0)));
  if (state.range(1) > 0) ir.tile(state.range(1));
  if (state.range(3) == 0) ir.split_nnz(LoadBalance::kStaticRows);
  const CpuSpmmSchedule sched =
      fg::core::spmm_schedule(ir, static_cast<int>(state.range(4)));
  fg::simd::ScopedIsa pin(isa_arg(state.range(2)));
  for (auto _ : state) {
    auto out = fg::core::spmm(f.in_csr, "copy_u", "sum", sched,
                              {&f.x, nullptr, nullptr});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.in_csr.nnz());
}

void BM_SpmmMlpMax(benchmark::State& state) {
  auto& f = MicroFixture::get();
  static Tensor x8 = Tensor::randn({20000, 8}, 9);
  static Tensor w = Tensor::randn({8, 64}, 10);
  fg::core::ScheduleIr ir;
  if (state.range(0) > 1) ir.partition(static_cast<int>(state.range(0)));
  const CpuSpmmSchedule sched = fg::core::spmm_schedule(ir);
  fg::simd::ScopedIsa pin(isa_arg(state.range(1)));
  for (auto _ : state) {
    auto out = fg::core::spmm(f.in_csr, "mlp", "max", sched, {&x8, nullptr, &w});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.in_csr.nnz());
}

void BM_SddmmDot(benchmark::State& state) {
  auto& f = MicroFixture::get();
  fg::core::CpuSddmmSchedule sched;
  sched.hilbert_order = state.range(0) != 0;
  if (state.range(1) > 0)
    sched.ir = std::make_shared<const fg::core::ScheduleIr>(
        fg::core::ScheduleIr().tile(state.range(1)));
  fg::simd::ScopedIsa pin(isa_arg(state.range(2)));
  for (auto _ : state) {
    auto out = fg::core::sddmm(f.coo, "dot", sched, {&f.x, nullptr});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.coo.num_edges());
}

void BM_FusedAttention(benchmark::State& state) {
  // The fused SDDMM -> edge-softmax -> SpMM pipeline vs its composed form
  // (arg 0: 0 = composed chain, 1 = fused kernel), per ISA (arg 1).
  auto& f = MicroFixture::get();
  fg::simd::ScopedIsa pin(isa_arg(state.range(1)));
  const bool fused = state.range(0) != 0;
  for (auto _ : state) {
    if (fused) {
      fg::core::AttentionOperands ops;
      ops.src_feat = &f.x;
      auto r = fg::core::attention(f.in_csr, "copy_u", {}, ops);
      benchmark::DoNotOptimize(r.out.data());
    } else {
      auto logits = fg::core::sddmm(f.coo, "dot", {}, {&f.x, nullptr});
      auto alpha = fg::core::edge_softmax(f.in_csr, logits, 1);
      auto out = fg::core::spmm(f.in_csr, "u_mul_e", "sum", {},
                                {&f.x, &alpha, nullptr});
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * f.in_csr.nnz());
}

void BM_GenericUdfOverhead(benchmark::State& state) {
  // Blackbox std::function UDF vs the fused builtin: quantifies what the
  // paper gains by opening the UDF to the scheduler.
  auto& f = MicroFixture::get();
  fg::core::GenericMsgFn msg = [&](auto u, auto, auto, float* out) {
    const float* xu = f.x.row(u);
    for (std::int64_t j = 0; j < 128; ++j) out[j] = xu[j];
  };
  for (auto _ : state) {
    auto out = fg::core::spmm_generic(f.in_csr, msg, "sum", 128, {});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.in_csr.nnz());
}

// ---------------------------------------------------------------------------
// Recorded baseline (BENCH_kernels.json)
// ---------------------------------------------------------------------------

void record_baseline() {
  // The acceptance workloads: copy_u/sum SpMM on R-MAT skew at d=64 (the
  // historical trajectory row) and at d=100 (not a multiple of 16 — the
  // masked-tail row where AVX-512 removes the scalar tail loop outright).
  const auto coo = fg::graph::gen_rmat(32768, 16.0, 42);
  const auto in_csr = fg::graph::coo_to_in_csr(coo);
  const Tensor x64 = Tensor::randn({in_csr.num_cols, 64}, 43);
  const Tensor x100 = Tensor::randn({in_csr.num_cols, 100}, 44);

  const auto time_spmm = [&](const Tensor& x, Isa isa, LoadBalance lb,
                             int threads) {
    fg::simd::ScopedIsa pin(isa);
    fg::core::ScheduleIr ir;
    if (lb != LoadBalance::kNnzBalanced) ir.split_nnz(lb);
    const CpuSpmmSchedule sched = fg::core::spmm_schedule(ir, threads);
    const fg::core::SpmmOperands ops{&x, nullptr, nullptr};
    return fg::bench::measure_seconds(
        [&] { (void)fg::core::spmm(in_csr, "copy_u", "sum", sched, ops); });
  };

  const double scalar_static_1t =
      time_spmm(x64, Isa::kScalar, LoadBalance::kStaticRows, 1);
  const double scalar_nnz_1t =
      time_spmm(x64, Isa::kScalar, LoadBalance::kNnzBalanced, 1);
  const double simd_static_1t =
      time_spmm(x64, Isa::kAvx2, LoadBalance::kStaticRows, 1);
  const double simd_nnz_1t =
      time_spmm(x64, Isa::kAvx2, LoadBalance::kNnzBalanced, 1);
  const bool has512 = fg::simd::cpu_supports_avx512();
  const double avx512_static_1t =
      has512 ? time_spmm(x64, Isa::kAvx512, LoadBalance::kStaticRows, 1) : 0.0;
  const double avx512_nnz_1t =
      has512 ? time_spmm(x64, Isa::kAvx512, LoadBalance::kNnzBalanced, 1) : 0.0;

  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const double scalar_static_mt =
      time_spmm(x64, Isa::kScalar, LoadBalance::kStaticRows, hw);
  const double simd_static_mt =
      time_spmm(x64, Isa::kAvx2, LoadBalance::kStaticRows, hw);
  const double simd_nnz_mt =
      time_spmm(x64, Isa::kAvx2, LoadBalance::kNnzBalanced, hw);
  const double avx512_nnz_mt =
      has512 ? time_spmm(x64, Isa::kAvx512, LoadBalance::kNnzBalanced, hw)
             : 0.0;

  // Masked-tail row (d=100): 6 full 16-lane vectors + a 4-lane tail that
  // AVX2 runs as a scalar peel and AVX-512 as one masked op.
  const double d100_avx2 =
      time_spmm(x100, Isa::kAvx2, LoadBalance::kStaticRows, 1);
  const double d100_avx512 =
      has512 ? time_spmm(x100, Isa::kAvx512, LoadBalance::kStaticRows, 1) : 0.0;

  const auto time_mlp = [&](Isa isa) {
    fg::simd::ScopedIsa pin(isa);
    static const Tensor x8 = Tensor::randn({in_csr.num_cols, 8}, 45);
    static const Tensor w = Tensor::randn({8, 64}, 46);
    return fg::bench::measure_seconds([&] {
      (void)fg::core::spmm(in_csr, "mlp", "max", {}, {&x8, nullptr, &w});
    });
  };
  const double mlp_avx2 = time_mlp(Isa::kAvx2);
  const double mlp_avx512 = has512 ? time_mlp(Isa::kAvx512) : 0.0;

  const auto time_sddmm = [&](Isa isa) {
    fg::simd::ScopedIsa pin(isa);
    fg::core::CpuSddmmSchedule sched;
    return fg::bench::measure_seconds(
        [&] { (void)fg::core::sddmm(coo, "dot", sched, {&x64, nullptr}); });
  };
  const double sddmm_scalar = time_sddmm(Isa::kScalar);
  const double sddmm_simd = time_sddmm(Isa::kAvx2);
  const double sddmm_avx512 = has512 ? time_sddmm(Isa::kAvx512) : 0.0;

  // Fused GAT attention (one per-row SDDMM -> softmax -> SpMM pass) vs the
  // composed three-launch chain, both at d=64 on the R-MAT graph — the
  // acceptance row for the fused attention engine.
  const auto time_fused_attn = [&](Isa isa) {
    fg::simd::ScopedIsa pin(isa);
    fg::core::AttentionOperands ops;
    ops.src_feat = &x64;
    return fg::bench::measure_seconds([&] {
      (void)fg::core::attention(in_csr, "copy_u", {}, ops);
    });
  };
  const auto time_composed_attn = [&](Isa isa) {
    fg::simd::ScopedIsa pin(isa);
    return fg::bench::measure_seconds([&] {
      auto logits = fg::core::sddmm(coo, "dot", {}, {&x64, nullptr});
      auto alpha = fg::core::edge_softmax(in_csr, logits, 1);
      (void)fg::core::spmm(in_csr, "u_mul_e", "sum", {},
                           {&x64, &alpha, nullptr});
    });
  };
  const double attn_fused_scalar = time_fused_attn(Isa::kScalar);
  const double attn_composed_scalar = time_composed_attn(Isa::kScalar);
  const double attn_fused_avx2 = time_fused_attn(Isa::kAvx2);
  const double attn_composed_avx2 = time_composed_attn(Isa::kAvx2);
  const double attn_fused_avx512 =
      has512 ? time_fused_attn(Isa::kAvx512) : 0.0;
  const double attn_composed_avx512 =
      has512 ? time_composed_attn(Isa::kAvx512) : 0.0;

  // Fused gpusim attention vs the composed sddmm_gpu -> softmax -> spmm_gpu
  // chain — SIMULATED V100 seconds (deterministic, one evaluation) on the
  // same R-MAT graph at d=64 (the trajectory row) and d=8 (narrow features,
  // where the three launch overheads weigh relatively more).
  const auto gpu_attn = [&](const Tensor& x, bool fused) {
    fg::core::AttentionOperands aops;
    aops.src_feat = &x;
    fg::core::GpuSpmmSchedule sched;
    return fused
               ? fg::gpusim::attention_gpu(in_csr, "copy_u", sched, aops)
               : fg::gpusim::attention_gpu_composed(in_csr, "copy_u", sched,
                                                    aops);
  };
  const Tensor x8g = Tensor::randn({in_csr.num_cols, 8}, 48);
  const auto gpu_fused_d64 = gpu_attn(x64, true);
  const auto gpu_composed_d64 = gpu_attn(x64, false);
  const auto gpu_fused_d8 = gpu_attn(x8g, true);
  const auto gpu_composed_d8 = gpu_attn(x8g, false);

  // Narrow-feature row (d=8 < one 512-bit vector): the AVX-512 table routes
  // these spans to the AVX2 backend (the recorded 0.41x regression's fix),
  // so the row now pins avx512 >= avx2.
  const Tensor x8n = Tensor::randn({in_csr.num_cols, 8}, 47);
  const double d8_scalar =
      time_spmm(x8n, Isa::kScalar, LoadBalance::kStaticRows, 1);
  const double d8_avx2 = time_spmm(x8n, Isa::kAvx2, LoadBalance::kStaticRows, 1);
  const double d8_avx512 =
      has512 ? time_spmm(x8n, Isa::kAvx512, LoadBalance::kStaticRows, 1) : 0.0;

  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_kernels_baseline\",\n");
  std::fprintf(f,
               "  \"machine\": {\"hardware_concurrency\": %d, "
               "\"avx2\": %s, \"avx512\": %s, \"active_isa\": \"%s\"},\n",
               hw, fg::simd::cpu_supports_avx2() ? "true" : "false",
               has512 ? "true" : "false",
               fg::simd::isa_name(fg::simd::active_isa()));
  std::fprintf(f,
               "  \"graph\": {\"generator\": \"rmat\", \"n\": %d, "
               "\"avg_degree\": 16, \"nnz\": %lld, \"feature_dim\": 64},\n",
               static_cast<int>(in_csr.num_rows),
               static_cast<long long>(in_csr.nnz()));
  std::fprintf(f, "  \"reps\": %d,\n", fg::support::bench_reps());
  std::fprintf(f, "  \"mt_threads\": %d,\n", hw);
  std::fprintf(f, "  \"spmm_copy_u_sum\": {\n");
  std::fprintf(f, "    \"scalar_static_1t_sec\": %.6f,\n", scalar_static_1t);
  std::fprintf(f, "    \"scalar_nnz_1t_sec\": %.6f,\n", scalar_nnz_1t);
  std::fprintf(f, "    \"simd_static_1t_sec\": %.6f,\n", simd_static_1t);
  std::fprintf(f, "    \"simd_nnz_1t_sec\": %.6f,\n", simd_nnz_1t);
  std::fprintf(f, "    \"avx512_static_1t_sec\": %.6f,\n", avx512_static_1t);
  std::fprintf(f, "    \"avx512_nnz_1t_sec\": %.6f,\n", avx512_nnz_1t);
  std::fprintf(f, "    \"simd_speedup_1t\": %.2f,\n",
               scalar_static_1t / simd_static_1t);
  std::fprintf(f, "    \"avx512_vs_avx2_1t\": %.2f,\n",
               has512 ? simd_static_1t / avx512_static_1t : 0.0);
  std::fprintf(f, "    \"scalar_static_mt_sec\": %.6f,\n", scalar_static_mt);
  std::fprintf(f, "    \"simd_static_mt_sec\": %.6f,\n", simd_static_mt);
  std::fprintf(f, "    \"simd_nnz_mt_sec\": %.6f,\n", simd_nnz_mt);
  std::fprintf(f, "    \"avx512_nnz_mt_sec\": %.6f,\n", avx512_nnz_mt);
  std::fprintf(f, "    \"nnz_vs_static_speedup_mt\": %.2f\n",
               simd_static_mt / simd_nnz_mt);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"spmm_copy_u_sum_d100_masked_tail\": {\n");
  std::fprintf(f, "    \"avx2_1t_sec\": %.6f,\n", d100_avx2);
  std::fprintf(f, "    \"avx512_1t_sec\": %.6f,\n", d100_avx512);
  std::fprintf(f, "    \"avx512_vs_avx2\": %.2f\n",
               has512 ? d100_avx2 / d100_avx512 : 0.0);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"spmm_mlp_max\": {\n");
  std::fprintf(f, "    \"avx2_sec\": %.6f,\n", mlp_avx2);
  std::fprintf(f, "    \"avx512_sec\": %.6f,\n", mlp_avx512);
  std::fprintf(f, "    \"avx512_vs_avx2\": %.2f\n",
               has512 ? mlp_avx2 / mlp_avx512 : 0.0);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"sddmm_dot\": {\n");
  std::fprintf(f, "    \"scalar_sec\": %.6f,\n", sddmm_scalar);
  std::fprintf(f, "    \"simd_sec\": %.6f,\n", sddmm_simd);
  std::fprintf(f, "    \"avx512_sec\": %.6f,\n", sddmm_avx512);
  std::fprintf(f, "    \"simd_speedup\": %.2f,\n", sddmm_scalar / sddmm_simd);
  std::fprintf(f, "    \"avx512_vs_avx2\": %.2f\n",
               has512 ? sddmm_simd / sddmm_avx512 : 0.0);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"attention_fused_gat_d64\": {\n");
  std::fprintf(f, "    \"composed_scalar_sec\": %.6f,\n", attn_composed_scalar);
  std::fprintf(f, "    \"fused_scalar_sec\": %.6f,\n", attn_fused_scalar);
  std::fprintf(f, "    \"composed_avx2_sec\": %.6f,\n", attn_composed_avx2);
  std::fprintf(f, "    \"fused_avx2_sec\": %.6f,\n", attn_fused_avx2);
  std::fprintf(f, "    \"composed_avx512_sec\": %.6f,\n", attn_composed_avx512);
  std::fprintf(f, "    \"fused_avx512_sec\": %.6f,\n", attn_fused_avx512);
  std::fprintf(f, "    \"fused_speedup_scalar\": %.2f,\n",
               attn_composed_scalar / attn_fused_scalar);
  std::fprintf(f, "    \"fused_speedup_avx2\": %.2f,\n",
               attn_composed_avx2 / attn_fused_avx2);
  std::fprintf(f, "    \"fused_speedup_avx512\": %.2f\n",
               has512 ? attn_composed_avx512 / attn_fused_avx512 : 0.0);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"spmm_copy_u_sum_d8_narrow\": {\n");
  std::fprintf(f, "    \"scalar_1t_sec\": %.6f,\n", d8_scalar);
  std::fprintf(f, "    \"avx2_1t_sec\": %.6f,\n", d8_avx2);
  std::fprintf(f, "    \"avx512_1t_sec\": %.6f,\n", d8_avx512);
  std::fprintf(f, "    \"avx512_vs_avx2\": %.2f\n",
               has512 ? d8_avx2 / d8_avx512 : 0.0);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"attention_gpusim_fused\": {\n");
  std::fprintf(f, "    \"composed_d64_sim_sec\": %.6e,\n",
               gpu_composed_d64.cost.total_s);
  std::fprintf(f, "    \"fused_d64_sim_sec\": %.6e,\n",
               gpu_fused_d64.cost.total_s);
  std::fprintf(f, "    \"fused_speedup_d64\": %.2f,\n",
               gpu_composed_d64.cost.total_s / gpu_fused_d64.cost.total_s);
  std::fprintf(f, "    \"composed_d8_sim_sec\": %.6e,\n",
               gpu_composed_d8.cost.total_s);
  std::fprintf(f, "    \"fused_d8_sim_sec\": %.6e,\n",
               gpu_fused_d8.cost.total_s);
  std::fprintf(f, "    \"fused_speedup_d8\": %.2f,\n",
               gpu_composed_d8.cost.total_s / gpu_fused_d8.cost.total_s);
  std::fprintf(f, "    \"fused_load_transactions_d64\": %.0f,\n",
               gpu_fused_d64.stats.global_load_transactions);
  std::fprintf(f, "    \"composed_load_transactions_d64\": %.0f,\n",
               gpu_composed_d64.stats.global_load_transactions);
  std::fprintf(f, "    \"fused_launches\": 1,\n");
  std::fprintf(f, "    \"composed_launches\": 3\n");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf(
      "\nBENCH_kernels.json: copy_u/sum d=64 rmat — scalar %.4fs, "
      "avx2 %.4fs (%.2fx), avx512 %.4fs; d=100 tail avx512/avx2 %.2fx; "
      "sddmm dot %.2fx; fused GAT attention vs composed %.2fx (avx512 "
      "%.2fx); d=8 narrow avx512/avx2 %.2fx; gpusim fused attention "
      "%.2fx (d=64) / %.2fx (d=8) over the composed chain\n",
      scalar_static_1t, simd_static_1t, scalar_static_1t / simd_static_1t,
      avx512_static_1t, has512 ? d100_avx2 / d100_avx512 : 0.0,
      sddmm_scalar / sddmm_simd, attn_composed_avx2 / attn_fused_avx2,
      has512 ? attn_composed_avx512 / attn_fused_avx512 : 0.0,
      has512 ? d8_avx2 / d8_avx512 : 0.0,
      gpu_composed_d64.cost.total_s / gpu_fused_d64.cost.total_s,
      gpu_composed_d8.cost.total_s / gpu_fused_d8.cost.total_s);
}

}  // namespace

// (parts, tile, isa[0=scalar,1=avx2,2=avx512], load_balance[0=static,1=nnz],
//  threads). The static-vs-nnz pair runs at 4 threads — at 1 thread both
// policies execute the identical sweep and the comparison is vacuous.
// avx512 rows degrade to avx2 (one step) on hardware without it.
BENCHMARK(BM_SpmmCopyUSum)
    ->Args({1, 0, 0, 0, 1})
    ->Args({1, 0, 1, 0, 1})
    ->Args({1, 0, 2, 0, 1})
    ->Args({1, 0, 1, 0, 4})
    ->Args({1, 0, 1, 1, 4})
    ->Args({1, 0, 2, 1, 4})
    ->Args({8, 0, 1, 0, 1})
    ->Args({1, 32, 1, 0, 1})
    ->Args({1, 32, 2, 0, 1})
    ->Args({8, 32, 1, 1, 4})
    ->Unit(benchmark::kMillisecond);
// (parts, isa)
BENCHMARK(BM_SpmmMlpMax)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);
// (hilbert, reduce_tile, isa)
BENCHMARK(BM_SddmmDot)
    ->Args({0, 0, 0})
    ->Args({0, 0, 1})
    ->Args({0, 0, 2})
    ->Args({1, 0, 1})
    ->Args({0, 32, 1})
    ->Unit(benchmark::kMillisecond);
// (fused[0=composed,1=fused], isa)
BENCHMARK(BM_FusedAttention)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 2})
    ->Args({1, 2})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenericUdfOverhead)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  // Query-only invocations must not spend seconds re-measuring (and silently
  // overwriting) the recorded baseline; FEATGRAPH_SKIP_BASELINE=1 skips it
  // for any run.
  bool skip_baseline =
      fg::support::env_long("FEATGRAPH_SKIP_BASELINE", 0) != 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    // Exact spellings only: --benchmark_list_tests=false is a normal run.
    if (arg == "--benchmark_list_tests" ||
        arg == "--benchmark_list_tests=true")
      skip_baseline = true;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!skip_baseline) record_baseline();
  return 0;
}
