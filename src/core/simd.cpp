// Span primitive backends: portable scalar + AVX2/FMA + AVX-512 intrinsics.
//
// This translation unit is compiled with -ffp-contract=off (see
// CMakeLists.txt): the compiler must not fuse the mul+add in axpy /
// accum_binop into FMA on one backend but not the other, or the bit-for-bit
// cross-backend contract of simd.hpp breaks. `dot` uses explicit FMA
// intrinsics, which contraction settings leave untouched.
//
// The AVX-512 backend has NO scalar tail loops: the last n % 16 elements of
// a span are covered by one masked vector op (zero-filling `maskz` loads,
// write-suppressing `mask` stores), per the masked-tail contract documented
// in simd.hpp.
#include "core/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "support/env.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define FG_X86 1
#include <immintrin.h>
#else
#define FG_X86 0
#endif

#if FG_X86 && (defined(__GNUC__) || defined(__clang__))
#define FG_HAVE_AVX2_BACKEND 1
// Per-function target attribute: lets one TU hold AVX2 code while the rest
// of the library stays at the baseline ISA (no global -mavx2, so the binary
// still runs on non-AVX2 machines through the scalar table).
#define FG_AVX2_FN __attribute__((target("avx2,fma")))
// AVX-512 rides the same per-function-target mechanism: only the functions
// below carry the avx512 attribute, the rest of the binary stays baseline.
#define FG_HAVE_AVX512_BACKEND 1
#define FG_AVX512_FN __attribute__((target("avx512f,avx512dq")))
#else
#define FG_HAVE_AVX2_BACKEND 0
#define FG_HAVE_AVX512_BACKEND 0
#endif

// The scalar backend is the measured baseline for the SIMD speedup claims;
// keep it genuinely scalar instead of letting the compiler auto-vectorize
// it into an unnamed third backend. GCC takes a function attribute; clang
// ignores that attribute, so its loops carry a vectorize(disable) pragma.
#if defined(__clang__)
#define FG_SCALAR_FN
#define FG_SCALAR_LOOP \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define FG_SCALAR_FN __attribute__((optimize("no-tree-vectorize")))
#define FG_SCALAR_LOOP
#else
#define FG_SCALAR_FN
#define FG_SCALAR_LOOP
#endif

namespace featgraph::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar backend
// ---------------------------------------------------------------------------

namespace scalar {

inline float c_sum(float a, float b) { return a + b; }
inline float c_max(float a, float b) { return a > b ? a : b; }
inline float c_min(float a, float b) { return a < b ? a : b; }

inline float o_add(float a, float b) { return a + b; }
inline float o_sub(float a, float b) { return a - b; }
inline float o_mul(float a, float b) { return a * b; }
inline float o_div(float a, float b) { return a / b; }

FG_SCALAR_FN void fill(float* out, float v, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) out[j] = v;
}

FG_SCALAR_FN void scale(float* out, float s, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) out[j] *= s;
}

FG_SCALAR_FN void relu(float* out, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) out[j] = out[j] > 0.0f ? out[j] : 0.0f;
}

FG_SCALAR_FN void leaky_relu(float* out, float slope, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j)
    out[j] = out[j] > 0.0f ? out[j] : out[j] * slope;
}

FG_SCALAR_FN void bias_relu(float* out, const float* b, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) {
    const float t = out[j] + b[j];
    out[j] = t > 0.0f ? t : 0.0f;
  }
}

FG_SCALAR_FN void axpy(float* out, const float* x, float s, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) out[j] += x[j] * s;
}

FG_SCALAR_FN float dot(const float* a, const float* b, std::int64_t n) {
  float acc = 0.0f;
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) acc += a[j] * b[j];
  return acc;
}

#define FG_SCALAR_ACCUM(NAME, COMBINE)                                 \
  FG_SCALAR_FN void NAME(float* out, const float* x, std::int64_t n) { \
    FG_SCALAR_LOOP                                                     \
    for (std::int64_t j = 0; j < n; ++j) out[j] = COMBINE(out[j], x[j]); \
  }

FG_SCALAR_ACCUM(accum_sum, c_sum)
FG_SCALAR_ACCUM(accum_max, c_max)
FG_SCALAR_ACCUM(accum_min, c_min)
#undef FG_SCALAR_ACCUM

#define FG_SCALAR_ACCUM_BINOP(NAME, COMBINE, OP)                    \
  FG_SCALAR_FN void NAME(float* out, const float* a, const float* b, \
                         std::int64_t n) {                          \
    FG_SCALAR_LOOP                                                  \
    for (std::int64_t j = 0; j < n; ++j)                            \
      out[j] = COMBINE(out[j], OP(a[j], b[j]));                     \
  }

FG_SCALAR_ACCUM_BINOP(accum_sum_add, c_sum, o_add)
FG_SCALAR_ACCUM_BINOP(accum_sum_sub, c_sum, o_sub)
FG_SCALAR_ACCUM_BINOP(accum_sum_mul, c_sum, o_mul)
FG_SCALAR_ACCUM_BINOP(accum_sum_div, c_sum, o_div)
FG_SCALAR_ACCUM_BINOP(accum_max_add, c_max, o_add)
FG_SCALAR_ACCUM_BINOP(accum_max_sub, c_max, o_sub)
FG_SCALAR_ACCUM_BINOP(accum_max_mul, c_max, o_mul)
FG_SCALAR_ACCUM_BINOP(accum_max_div, c_max, o_div)
FG_SCALAR_ACCUM_BINOP(accum_min_add, c_min, o_add)
FG_SCALAR_ACCUM_BINOP(accum_min_sub, c_min, o_sub)
FG_SCALAR_ACCUM_BINOP(accum_min_mul, c_min, o_mul)
FG_SCALAR_ACCUM_BINOP(accum_min_div, c_min, o_div)
#undef FG_SCALAR_ACCUM_BINOP

#define FG_SCALAR_ACCUM_BINOP_S(NAME, COMBINE, OP)                     \
  FG_SCALAR_FN void NAME(float* out, const float* a, float s,          \
                         std::int64_t n) {                             \
    FG_SCALAR_LOOP                                                     \
    for (std::int64_t j = 0; j < n; ++j) out[j] = COMBINE(out[j], OP(a[j], s)); \
  }

FG_SCALAR_ACCUM_BINOP_S(accum_sum_add_s, c_sum, o_add)
FG_SCALAR_ACCUM_BINOP_S(accum_sum_sub_s, c_sum, o_sub)
FG_SCALAR_ACCUM_BINOP_S(accum_sum_mul_s, c_sum, o_mul)
FG_SCALAR_ACCUM_BINOP_S(accum_sum_div_s, c_sum, o_div)
FG_SCALAR_ACCUM_BINOP_S(accum_max_add_s, c_max, o_add)
FG_SCALAR_ACCUM_BINOP_S(accum_max_sub_s, c_max, o_sub)
FG_SCALAR_ACCUM_BINOP_S(accum_max_mul_s, c_max, o_mul)
FG_SCALAR_ACCUM_BINOP_S(accum_max_div_s, c_max, o_div)
FG_SCALAR_ACCUM_BINOP_S(accum_min_add_s, c_min, o_add)
FG_SCALAR_ACCUM_BINOP_S(accum_min_sub_s, c_min, o_sub)
FG_SCALAR_ACCUM_BINOP_S(accum_min_mul_s, c_min, o_mul)
FG_SCALAR_ACCUM_BINOP_S(accum_min_div_s, c_min, o_div)
#undef FG_SCALAR_ACCUM_BINOP_S

FG_SCALAR_FN float hmax(const float* x, std::int64_t n) {
  float m = -std::numeric_limits<float>::infinity();
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) m = x[j] > m ? x[j] : m;
  return m;
}

FG_SCALAR_FN float exp_scale(float* io, float shift, std::int64_t n) {
  float sum = 0.0f;
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) {
    const float e = std::exp(io[j] + shift);
    io[j] = e;
    sum += e;
  }
  return sum;
}

#define FG_SCALAR_WAXPY_BINOP(NAME, OP)                              \
  FG_SCALAR_FN void NAME(float* out, const float* a, const float* b, \
                         float s, std::int64_t n) {                  \
    FG_SCALAR_LOOP                                                   \
    for (std::int64_t j = 0; j < n; ++j) out[j] += OP(a[j], b[j]) * s; \
  }

FG_SCALAR_WAXPY_BINOP(waxpy_add, o_add)
FG_SCALAR_WAXPY_BINOP(waxpy_sub, o_sub)
FG_SCALAR_WAXPY_BINOP(waxpy_mul, o_mul)
FG_SCALAR_WAXPY_BINOP(waxpy_div, o_div)
#undef FG_SCALAR_WAXPY_BINOP

#define FG_SCALAR_WAXPY_BINOP_S(NAME, OP)                               \
  FG_SCALAR_FN void NAME(float* out, const float* a, float c, float s,  \
                         std::int64_t n) {                              \
    FG_SCALAR_LOOP                                                      \
    for (std::int64_t j = 0; j < n; ++j) out[j] += OP(a[j], c) * s;     \
  }

FG_SCALAR_WAXPY_BINOP_S(waxpy_add_s, o_add)
FG_SCALAR_WAXPY_BINOP_S(waxpy_sub_s, o_sub)
FG_SCALAR_WAXPY_BINOP_S(waxpy_mul_s, o_mul)
FG_SCALAR_WAXPY_BINOP_S(waxpy_div_s, o_div)
#undef FG_SCALAR_WAXPY_BINOP_S

FG_SCALAR_FN void gather_rows(float* out, const float* src,
                              const std::int32_t* idx, std::int64_t m,
                              std::int64_t d) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = src + static_cast<std::int64_t>(idx[i]) * d;
    float* dst = out + i * d;
    FG_SCALAR_LOOP
    for (std::int64_t j = 0; j < d; ++j) dst[j] = row[j];
  }
}

// Register-blocked row-group fold (Schedule-IR tile(W).unroll(U) path). The
// j-outer / i-inner nest keeps out[j]'s running value in a register across
// the whole row group; per (j) the combine chain visits i in order, which is
// exactly the fold a per-row accum() sequence produces — bit-identical to
// the unblocked per-edge path and to every unroll hint.
#define FG_SCALAR_ACCUM_ROWS(NAME, COMBINE)                                  \
  FG_SCALAR_FN void NAME(float* out, const float* src, std::int64_t stride,  \
                         const std::int32_t* idx, std::int64_t cnt,          \
                         std::int64_t n, int unroll) {                       \
    (void)unroll;                                                            \
    for (std::int64_t j = 0; j < n; ++j) {                                   \
      float acc = out[j];                                                    \
      FG_SCALAR_LOOP                                                         \
      for (std::int64_t i = 0; i < cnt; ++i)                                 \
        acc = COMBINE(acc,                                                   \
                      src[static_cast<std::int64_t>(idx[i]) * stride + j]);  \
      out[j] = acc;                                                          \
    }                                                                        \
  }

FG_SCALAR_ACCUM_ROWS(accum_rows_sum, c_sum)
FG_SCALAR_ACCUM_ROWS(accum_rows_max, c_max)
FG_SCALAR_ACCUM_ROWS(accum_rows_min, c_min)
#undef FG_SCALAR_ACCUM_ROWS

FG_SCALAR_FN void waxpy_rows(float* out, const float* src, std::int64_t stride,
                             const std::int32_t* idx, const float* w,
                             std::int64_t cnt, std::int64_t n, int unroll) {
  (void)unroll;
  for (std::int64_t j = 0; j < n; ++j) {
    float acc = out[j];
    FG_SCALAR_LOOP
    for (std::int64_t i = 0; i < cnt; ++i)
      acc += src[static_cast<std::int64_t>(idx[i]) * stride + j] * w[i];
    out[j] = acc;
  }
}

}  // namespace scalar

SpanOps make_scalar_ops() {
  SpanOps t;
  t.fill = scalar::fill;
  t.scale = scalar::scale;
  t.relu = scalar::relu;
  t.leaky_relu = scalar::leaky_relu;
  t.bias_relu = scalar::bias_relu;
  t.axpy = scalar::axpy;
  t.dot = scalar::dot;
  t.accum[0] = scalar::accum_sum;
  t.accum[1] = scalar::accum_max;
  t.accum[2] = scalar::accum_min;
  void (*const bin[kNumAccum][kNumBinOp])(float*, const float*, const float*,
                                          std::int64_t) = {
      {scalar::accum_sum_add, scalar::accum_sum_sub, scalar::accum_sum_mul,
       scalar::accum_sum_div},
      {scalar::accum_max_add, scalar::accum_max_sub, scalar::accum_max_mul,
       scalar::accum_max_div},
      {scalar::accum_min_add, scalar::accum_min_sub, scalar::accum_min_mul,
       scalar::accum_min_div}};
  void (*const bin_s[kNumAccum][kNumBinOp])(float*, const float*, float,
                                            std::int64_t) = {
      {scalar::accum_sum_add_s, scalar::accum_sum_sub_s,
       scalar::accum_sum_mul_s, scalar::accum_sum_div_s},
      {scalar::accum_max_add_s, scalar::accum_max_sub_s,
       scalar::accum_max_mul_s, scalar::accum_max_div_s},
      {scalar::accum_min_add_s, scalar::accum_min_sub_s,
       scalar::accum_min_mul_s, scalar::accum_min_div_s}};
  for (int r = 0; r < kNumAccum; ++r) {
    for (int o = 0; o < kNumBinOp; ++o) {
      t.accum_binop[r][o] = bin[r][o];
      t.accum_binop_scalar[r][o] = bin_s[r][o];
    }
  }
  t.hmax = scalar::hmax;
  t.exp_scale = scalar::exp_scale;
  t.waxpy_binop[0] = scalar::waxpy_add;
  t.waxpy_binop[1] = scalar::waxpy_sub;
  t.waxpy_binop[2] = scalar::waxpy_mul;
  t.waxpy_binop[3] = scalar::waxpy_div;
  t.waxpy_binop_scalar[0] = scalar::waxpy_add_s;
  t.waxpy_binop_scalar[1] = scalar::waxpy_sub_s;
  t.waxpy_binop_scalar[2] = scalar::waxpy_mul_s;
  t.waxpy_binop_scalar[3] = scalar::waxpy_div_s;
  t.gather_rows = scalar::gather_rows;
  t.accum_rows[0] = scalar::accum_rows_sum;
  t.accum_rows[1] = scalar::accum_rows_max;
  t.accum_rows[2] = scalar::accum_rows_min;
  t.waxpy_rows = scalar::waxpy_rows;
  return t;
}

// ---------------------------------------------------------------------------
// AVX2/FMA backend
// ---------------------------------------------------------------------------

#if FG_HAVE_AVX2_BACKEND

namespace avx2 {

// _mm256_max_ps(a, b) computes a > b ? a : b (returns b on NaN/±0 ties),
// exactly the scalar reducer combines above — NaN behavior included.

FG_AVX2_FN void fill(float* out, float v, std::int64_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) _mm256_storeu_ps(out + j, vv);
  for (; j < n; ++j) out[j] = v;
}

FG_AVX2_FN void scale(float* out, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(out + j, _mm256_mul_ps(_mm256_loadu_ps(out + j), vs));
  }
  for (; j < n; ++j) out[j] *= s;
}

FG_AVX2_FN void relu(float* out, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(out + j, _mm256_max_ps(_mm256_loadu_ps(out + j), zero));
  }
  for (; j < n; ++j) out[j] = out[j] > 0.0f ? out[j] : 0.0f;
}

FG_AVX2_FN void leaky_relu(float* out, float slope, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vs = _mm256_set1_ps(slope);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 v = _mm256_loadu_ps(out + j);
    const __m256 scaled = _mm256_mul_ps(v, vs);
    const __m256 pos = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + j, _mm256_blendv_ps(scaled, v, pos));
  }
  for (; j < n; ++j) out[j] = out[j] > 0.0f ? out[j] : out[j] * slope;
}

FG_AVX2_FN void bias_relu(float* out, const float* b, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 t =
        _mm256_add_ps(_mm256_loadu_ps(out + j), _mm256_loadu_ps(b + j));
    _mm256_storeu_ps(out + j, _mm256_max_ps(t, zero));
  }
  for (; j < n; ++j) {
    const float t = out[j] + b[j];
    out[j] = t > 0.0f ? t : 0.0f;
  }
}

FG_AVX2_FN void axpy(float* out, const float* x, float s, std::int64_t n) {
  // mul + add (not fmadd): keeps per-element rounding identical to the
  // scalar backend (see the header's rounding contract).
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(x + j), vs);
    _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), prod));
  }
  for (; j < n; ++j) out[j] += x[j] * s;
}

FG_AVX2_FN float dot(const float* a, const float* b, std::int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  std::int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j),
                           _mm256_loadu_ps(b + j), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 8),
                           _mm256_loadu_ps(b + j + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 16),
                           _mm256_loadu_ps(b + j + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 24),
                           _mm256_loadu_ps(b + j + 24), acc3);
  }
  for (; j + 8 <= n; j += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j),
                           _mm256_loadu_ps(b + j), acc0);
  }
  acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
  __m128 lo = _mm256_castps256_ps128(acc0);
  __m128 hi = _mm256_extractf128_ps(acc0, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  float acc = _mm_cvtss_f32(lo);
  for (; j < n; ++j) acc += a[j] * b[j];
  return acc;
}

#define FG_AVX2_ACCUM(NAME, VCOMBINE, SCOMBINE)                           \
  FG_AVX2_FN void NAME(float* out, const float* x, std::int64_t n) {      \
    std::int64_t j = 0;                                                   \
    for (; j + 16 <= n; j += 16) {                                        \
      _mm256_storeu_ps(out + j, VCOMBINE(_mm256_loadu_ps(out + j),        \
                                         _mm256_loadu_ps(x + j)));        \
      _mm256_storeu_ps(out + j + 8,                                       \
                       VCOMBINE(_mm256_loadu_ps(out + j + 8),             \
                                _mm256_loadu_ps(x + j + 8)));             \
    }                                                                     \
    for (; j + 8 <= n; j += 8) {                                          \
      _mm256_storeu_ps(out + j, VCOMBINE(_mm256_loadu_ps(out + j),        \
                                         _mm256_loadu_ps(x + j)));        \
    }                                                                     \
    for (; j < n; ++j) out[j] = SCOMBINE(out[j], x[j]);                   \
  }

FG_AVX2_ACCUM(accum_sum, _mm256_add_ps, scalar::c_sum)
FG_AVX2_ACCUM(accum_max, _mm256_max_ps, scalar::c_max)
FG_AVX2_ACCUM(accum_min, _mm256_min_ps, scalar::c_min)
#undef FG_AVX2_ACCUM

#define FG_AVX2_ACCUM_BINOP(NAME, VCOMBINE, VOP, SCOMBINE, SOP)           \
  FG_AVX2_FN void NAME(float* out, const float* a, const float* b,        \
                       std::int64_t n) {                                  \
    std::int64_t j = 0;                                                   \
    for (; j + 8 <= n; j += 8) {                                          \
      const __m256 msg = VOP(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j)); \
      _mm256_storeu_ps(out + j, VCOMBINE(_mm256_loadu_ps(out + j), msg)); \
    }                                                                     \
    for (; j < n; ++j) out[j] = SCOMBINE(out[j], SOP(a[j], b[j]));        \
  }

FG_AVX2_ACCUM_BINOP(accum_sum_add, _mm256_add_ps, _mm256_add_ps, scalar::c_sum, scalar::o_add)
FG_AVX2_ACCUM_BINOP(accum_sum_sub, _mm256_add_ps, _mm256_sub_ps, scalar::c_sum, scalar::o_sub)
FG_AVX2_ACCUM_BINOP(accum_sum_mul, _mm256_add_ps, _mm256_mul_ps, scalar::c_sum, scalar::o_mul)
FG_AVX2_ACCUM_BINOP(accum_sum_div, _mm256_add_ps, _mm256_div_ps, scalar::c_sum, scalar::o_div)
FG_AVX2_ACCUM_BINOP(accum_max_add, _mm256_max_ps, _mm256_add_ps, scalar::c_max, scalar::o_add)
FG_AVX2_ACCUM_BINOP(accum_max_sub, _mm256_max_ps, _mm256_sub_ps, scalar::c_max, scalar::o_sub)
FG_AVX2_ACCUM_BINOP(accum_max_mul, _mm256_max_ps, _mm256_mul_ps, scalar::c_max, scalar::o_mul)
FG_AVX2_ACCUM_BINOP(accum_max_div, _mm256_max_ps, _mm256_div_ps, scalar::c_max, scalar::o_div)
FG_AVX2_ACCUM_BINOP(accum_min_add, _mm256_min_ps, _mm256_add_ps, scalar::c_min, scalar::o_add)
FG_AVX2_ACCUM_BINOP(accum_min_sub, _mm256_min_ps, _mm256_sub_ps, scalar::c_min, scalar::o_sub)
FG_AVX2_ACCUM_BINOP(accum_min_mul, _mm256_min_ps, _mm256_mul_ps, scalar::c_min, scalar::o_mul)
FG_AVX2_ACCUM_BINOP(accum_min_div, _mm256_min_ps, _mm256_div_ps, scalar::c_min, scalar::o_div)
#undef FG_AVX2_ACCUM_BINOP

#define FG_AVX2_ACCUM_BINOP_S(NAME, VCOMBINE, VOP, SCOMBINE, SOP)         \
  FG_AVX2_FN void NAME(float* out, const float* a, float s,               \
                       std::int64_t n) {                                  \
    const __m256 vs = _mm256_set1_ps(s);                                  \
    std::int64_t j = 0;                                                   \
    for (; j + 8 <= n; j += 8) {                                          \
      const __m256 msg = VOP(_mm256_loadu_ps(a + j), vs);                 \
      _mm256_storeu_ps(out + j, VCOMBINE(_mm256_loadu_ps(out + j), msg)); \
    }                                                                     \
    for (; j < n; ++j) out[j] = SCOMBINE(out[j], SOP(a[j], s));           \
  }

FG_AVX2_ACCUM_BINOP_S(accum_sum_add_s, _mm256_add_ps, _mm256_add_ps, scalar::c_sum, scalar::o_add)
FG_AVX2_ACCUM_BINOP_S(accum_sum_sub_s, _mm256_add_ps, _mm256_sub_ps, scalar::c_sum, scalar::o_sub)
FG_AVX2_ACCUM_BINOP_S(accum_sum_mul_s, _mm256_add_ps, _mm256_mul_ps, scalar::c_sum, scalar::o_mul)
FG_AVX2_ACCUM_BINOP_S(accum_sum_div_s, _mm256_add_ps, _mm256_div_ps, scalar::c_sum, scalar::o_div)
FG_AVX2_ACCUM_BINOP_S(accum_max_add_s, _mm256_max_ps, _mm256_add_ps, scalar::c_max, scalar::o_add)
FG_AVX2_ACCUM_BINOP_S(accum_max_sub_s, _mm256_max_ps, _mm256_sub_ps, scalar::c_max, scalar::o_sub)
FG_AVX2_ACCUM_BINOP_S(accum_max_mul_s, _mm256_max_ps, _mm256_mul_ps, scalar::c_max, scalar::o_mul)
FG_AVX2_ACCUM_BINOP_S(accum_max_div_s, _mm256_max_ps, _mm256_div_ps, scalar::c_max, scalar::o_div)
FG_AVX2_ACCUM_BINOP_S(accum_min_add_s, _mm256_min_ps, _mm256_add_ps, scalar::c_min, scalar::o_add)
FG_AVX2_ACCUM_BINOP_S(accum_min_sub_s, _mm256_min_ps, _mm256_sub_ps, scalar::c_min, scalar::o_sub)
FG_AVX2_ACCUM_BINOP_S(accum_min_mul_s, _mm256_min_ps, _mm256_mul_ps, scalar::c_min, scalar::o_mul)
FG_AVX2_ACCUM_BINOP_S(accum_min_div_s, _mm256_min_ps, _mm256_div_ps, scalar::c_min, scalar::o_div)
#undef FG_AVX2_ACCUM_BINOP_S

FG_AVX2_FN float hmax(const float* x, std::int64_t n) {
  float m = -std::numeric_limits<float>::infinity();
  std::int64_t j = 0;
  if (n >= 8) {
    __m256 vm = _mm256_loadu_ps(x);
    for (j = 8; j + 8 <= n; j += 8)
      vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + j));
    __m128 lo = _mm_max_ps(_mm256_castps256_ps128(vm),
                           _mm256_extractf128_ps(vm, 1));
    lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
    m = _mm_cvtss_f32(lo);
  }
  for (; j < n; ++j) m = x[j] > m ? x[j] : m;
  return m;
}

// Cephes-derived polynomial exp, the classic avx_mathfun kernel: clamp to
// the finite-result range, split x = n*ln2 + r with the two-constant
// Cook-style reduction, evaluate a degree-5 polynomial of r, scale by 2^n
// via exponent-field arithmetic. ~2 ulp vs libm inside [-87.33, 87.9]; the
// hi clamp sits at 87.9 (not expf's 88.72 overflow point) so n never
// reaches 128, where the exponent-field construction would wrap to inf —
// softmax arguments are <= 0 after the row-max shift, so the narrowed
// saturation range is unreachable there. The AVX-512 twin below runs the
// IDENTICAL per-lane operation sequence, so on full vector blocks the two
// vector backends agree lane-for-lane; span TAILS still differ by ~2 ulp
// (AVX2's exp_scale peels them into a libm loop, AVX-512 runs the
// polynomial under a mask), which the tolerance contract absorbs.
FG_AVX2_FN __m256 exp256(__m256 x) {
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-87.3365478515625f)),
                    _mm256_set1_ps(87.9f));
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256i n = _mm256_cvtps_epi32(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)));
  const __m256 fx = _mm256_cvtepi32_ps(n);  // round-to-nearest of x*log2(e)
  __m256 r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(r, r),
                      _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
  const __m256i pow2n = _mm256_slli_epi32(_mm256_add_epi32(n, bias), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

FG_AVX2_FN float exp_scale(float* io, float shift, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(shift);
  __m256 acc = _mm256_setzero_ps();
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 e = exp256(_mm256_add_ps(_mm256_loadu_ps(io + j), vs));
    _mm256_storeu_ps(io + j, e);
    acc = _mm256_add_ps(acc, e);
  }
  __m128 lo = _mm_add_ps(_mm256_castps256_ps128(acc),
                         _mm256_extractf128_ps(acc, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  float sum = _mm_cvtss_f32(lo);
  for (; j < n; ++j) {
    const float e = std::exp(io[j] + shift);
    io[j] = e;
    sum += e;
  }
  return sum;
}

// mul + add (not fmadd) after the message op: keeps per-element rounding
// identical to the scalar backend (the waxpy exact contract).
#define FG_AVX2_WAXPY_BINOP(NAME, VOP, SOP)                                 \
  FG_AVX2_FN void NAME(float* out, const float* a, const float* b, float s, \
                       std::int64_t n) {                                    \
    const __m256 vs = _mm256_set1_ps(s);                                    \
    std::int64_t j = 0;                                                     \
    for (; j + 8 <= n; j += 8) {                                            \
      const __m256 msg =                                                    \
          _mm256_mul_ps(VOP(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j)), \
                        vs);                                                \
      _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j),     \
                                              msg));                        \
    }                                                                       \
    for (; j < n; ++j) out[j] += SOP(a[j], b[j]) * s;                       \
  }

FG_AVX2_WAXPY_BINOP(waxpy_add, _mm256_add_ps, scalar::o_add)
FG_AVX2_WAXPY_BINOP(waxpy_sub, _mm256_sub_ps, scalar::o_sub)
FG_AVX2_WAXPY_BINOP(waxpy_mul, _mm256_mul_ps, scalar::o_mul)
FG_AVX2_WAXPY_BINOP(waxpy_div, _mm256_div_ps, scalar::o_div)
#undef FG_AVX2_WAXPY_BINOP

#define FG_AVX2_WAXPY_BINOP_S(NAME, VOP, SOP)                               \
  FG_AVX2_FN void NAME(float* out, const float* a, float c, float s,        \
                       std::int64_t n) {                                    \
    const __m256 vc = _mm256_set1_ps(c);                                    \
    const __m256 vs = _mm256_set1_ps(s);                                    \
    std::int64_t j = 0;                                                     \
    for (; j + 8 <= n; j += 8) {                                            \
      const __m256 msg = _mm256_mul_ps(VOP(_mm256_loadu_ps(a + j), vc), vs); \
      _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j),     \
                                              msg));                        \
    }                                                                       \
    for (; j < n; ++j) out[j] += SOP(a[j], c) * s;                          \
  }

FG_AVX2_WAXPY_BINOP_S(waxpy_add_s, _mm256_add_ps, scalar::o_add)
FG_AVX2_WAXPY_BINOP_S(waxpy_sub_s, _mm256_sub_ps, scalar::o_sub)
FG_AVX2_WAXPY_BINOP_S(waxpy_mul_s, _mm256_mul_ps, scalar::o_mul)
FG_AVX2_WAXPY_BINOP_S(waxpy_div_s, _mm256_div_ps, scalar::o_div)
#undef FG_AVX2_WAXPY_BINOP_S

// Row-group fold with the output tile held in vector registers: one load +
// one store of out per feature group for the WHOLE row group, instead of one
// per gathered row. `unroll` picks how many accumulator vectors stay live
// (4 / 2 / 1); per (j) the i-fold order is unchanged in every shape, so all
// unroll values are bit-identical to the flat per-row accum() chain.
#define FG_AVX2_ACCUM_ROWS(NAME, VCOMBINE, SCOMBINE)                         \
  FG_AVX2_FN void NAME(float* out, const float* src, std::int64_t stride,    \
                       const std::int32_t* idx, std::int64_t cnt,            \
                       std::int64_t n, int unroll) {                         \
    std::int64_t j = 0;                                                      \
    if (unroll >= 4) {                                                       \
      for (; j + 32 <= n; j += 32) {                                         \
        __m256 a0 = _mm256_loadu_ps(out + j);                                \
        __m256 a1 = _mm256_loadu_ps(out + j + 8);                            \
        __m256 a2 = _mm256_loadu_ps(out + j + 16);                           \
        __m256 a3 = _mm256_loadu_ps(out + j + 24);                           \
        for (std::int64_t i = 0; i < cnt; ++i) {                             \
          const float* row =                                                 \
              src + static_cast<std::int64_t>(idx[i]) * stride;              \
          a0 = VCOMBINE(a0, _mm256_loadu_ps(row + j));                       \
          a1 = VCOMBINE(a1, _mm256_loadu_ps(row + j + 8));                   \
          a2 = VCOMBINE(a2, _mm256_loadu_ps(row + j + 16));                  \
          a3 = VCOMBINE(a3, _mm256_loadu_ps(row + j + 24));                  \
        }                                                                    \
        _mm256_storeu_ps(out + j, a0);                                       \
        _mm256_storeu_ps(out + j + 8, a1);                                   \
        _mm256_storeu_ps(out + j + 16, a2);                                  \
        _mm256_storeu_ps(out + j + 24, a3);                                  \
      }                                                                      \
    }                                                                        \
    if (unroll >= 2) {                                                       \
      for (; j + 16 <= n; j += 16) {                                         \
        __m256 a0 = _mm256_loadu_ps(out + j);                                \
        __m256 a1 = _mm256_loadu_ps(out + j + 8);                            \
        for (std::int64_t i = 0; i < cnt; ++i) {                             \
          const float* row =                                                 \
              src + static_cast<std::int64_t>(idx[i]) * stride;              \
          a0 = VCOMBINE(a0, _mm256_loadu_ps(row + j));                       \
          a1 = VCOMBINE(a1, _mm256_loadu_ps(row + j + 8));                   \
        }                                                                    \
        _mm256_storeu_ps(out + j, a0);                                       \
        _mm256_storeu_ps(out + j + 8, a1);                                   \
      }                                                                      \
    }                                                                        \
    for (; j + 8 <= n; j += 8) {                                             \
      __m256 a0 = _mm256_loadu_ps(out + j);                                  \
      for (std::int64_t i = 0; i < cnt; ++i)                                 \
        a0 = VCOMBINE(                                                       \
            a0, _mm256_loadu_ps(                                             \
                    src + static_cast<std::int64_t>(idx[i]) * stride + j));  \
      _mm256_storeu_ps(out + j, a0);                                         \
    }                                                                        \
    for (; j < n; ++j) {                                                     \
      float acc = out[j];                                                    \
      for (std::int64_t i = 0; i < cnt; ++i)                                 \
        acc = SCOMBINE(acc,                                                  \
                       src[static_cast<std::int64_t>(idx[i]) * stride + j]); \
      out[j] = acc;                                                          \
    }                                                                        \
  }

FG_AVX2_ACCUM_ROWS(accum_rows_sum, _mm256_add_ps, scalar::c_sum)
FG_AVX2_ACCUM_ROWS(accum_rows_max, _mm256_max_ps, scalar::c_max)
FG_AVX2_ACCUM_ROWS(accum_rows_min, _mm256_min_ps, scalar::c_min)
#undef FG_AVX2_ACCUM_ROWS

// Weighted row-group fold: mul + add (not fmadd) per (i, j), matching the
// per-row axpy chain element for element.
FG_AVX2_FN void waxpy_rows(float* out, const float* src, std::int64_t stride,
                           const std::int32_t* idx, const float* w,
                           std::int64_t cnt, std::int64_t n, int unroll) {
  std::int64_t j = 0;
  if (unroll >= 2) {
    for (; j + 16 <= n; j += 16) {
      __m256 a0 = _mm256_loadu_ps(out + j);
      __m256 a1 = _mm256_loadu_ps(out + j + 8);
      for (std::int64_t i = 0; i < cnt; ++i) {
        const float* row = src + static_cast<std::int64_t>(idx[i]) * stride;
        const __m256 vw = _mm256_set1_ps(w[i]);
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_loadu_ps(row + j), vw));
        a1 = _mm256_add_ps(a1,
                           _mm256_mul_ps(_mm256_loadu_ps(row + j + 8), vw));
      }
      _mm256_storeu_ps(out + j, a0);
      _mm256_storeu_ps(out + j + 8, a1);
    }
  }
  for (; j + 8 <= n; j += 8) {
    __m256 a0 = _mm256_loadu_ps(out + j);
    for (std::int64_t i = 0; i < cnt; ++i) {
      const float* row = src + static_cast<std::int64_t>(idx[i]) * stride;
      a0 = _mm256_add_ps(
          a0, _mm256_mul_ps(_mm256_loadu_ps(row + j), _mm256_set1_ps(w[i])));
    }
    _mm256_storeu_ps(out + j, a0);
  }
  for (; j < n; ++j) {
    float acc = out[j];
    for (std::int64_t i = 0; i < cnt; ++i)
      acc += src[static_cast<std::int64_t>(idx[i]) * stride + j] * w[i];
    out[j] = acc;
  }
}

FG_AVX2_FN void gather_rows(float* out, const float* src,
                            const std::int32_t* idx, std::int64_t m,
                            std::int64_t d) {
  // Pure copy: 256-bit loads/stores plus a scalar peel — bitwise by nature,
  // so any lane width satisfies the exact contract.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = src + static_cast<std::int64_t>(idx[i]) * d;
    float* dst = out + i * d;
    std::int64_t j = 0;
    for (; j + 8 <= d; j += 8)
      _mm256_storeu_ps(dst + j, _mm256_loadu_ps(row + j));
    for (; j < d; ++j) dst[j] = row[j];
  }
}

}  // namespace avx2

SpanOps make_avx2_ops() {
  SpanOps t;
  t.fill = avx2::fill;
  t.scale = avx2::scale;
  t.relu = avx2::relu;
  t.leaky_relu = avx2::leaky_relu;
  t.bias_relu = avx2::bias_relu;
  t.axpy = avx2::axpy;
  t.dot = avx2::dot;
  t.accum[0] = avx2::accum_sum;
  t.accum[1] = avx2::accum_max;
  t.accum[2] = avx2::accum_min;
  void (*const bin[kNumAccum][kNumBinOp])(float*, const float*, const float*,
                                          std::int64_t) = {
      {avx2::accum_sum_add, avx2::accum_sum_sub, avx2::accum_sum_mul,
       avx2::accum_sum_div},
      {avx2::accum_max_add, avx2::accum_max_sub, avx2::accum_max_mul,
       avx2::accum_max_div},
      {avx2::accum_min_add, avx2::accum_min_sub, avx2::accum_min_mul,
       avx2::accum_min_div}};
  void (*const bin_s[kNumAccum][kNumBinOp])(float*, const float*, float,
                                            std::int64_t) = {
      {avx2::accum_sum_add_s, avx2::accum_sum_sub_s, avx2::accum_sum_mul_s,
       avx2::accum_sum_div_s},
      {avx2::accum_max_add_s, avx2::accum_max_sub_s, avx2::accum_max_mul_s,
       avx2::accum_max_div_s},
      {avx2::accum_min_add_s, avx2::accum_min_sub_s, avx2::accum_min_mul_s,
       avx2::accum_min_div_s}};
  for (int r = 0; r < kNumAccum; ++r) {
    for (int o = 0; o < kNumBinOp; ++o) {
      t.accum_binop[r][o] = bin[r][o];
      t.accum_binop_scalar[r][o] = bin_s[r][o];
    }
  }
  t.hmax = avx2::hmax;
  t.exp_scale = avx2::exp_scale;
  t.waxpy_binop[0] = avx2::waxpy_add;
  t.waxpy_binop[1] = avx2::waxpy_sub;
  t.waxpy_binop[2] = avx2::waxpy_mul;
  t.waxpy_binop[3] = avx2::waxpy_div;
  t.waxpy_binop_scalar[0] = avx2::waxpy_add_s;
  t.waxpy_binop_scalar[1] = avx2::waxpy_sub_s;
  t.waxpy_binop_scalar[2] = avx2::waxpy_mul_s;
  t.waxpy_binop_scalar[3] = avx2::waxpy_div_s;
  t.gather_rows = avx2::gather_rows;
  t.accum_rows[0] = avx2::accum_rows_sum;
  t.accum_rows[1] = avx2::accum_rows_max;
  t.accum_rows[2] = avx2::accum_rows_min;
  t.waxpy_rows = avx2::waxpy_rows;
  return t;
}

#endif  // FG_HAVE_AVX2_BACKEND

// ---------------------------------------------------------------------------
// AVX-512 backend (masked tails — no scalar tail loops)
// ---------------------------------------------------------------------------

#if FG_HAVE_AVX512_BACKEND

namespace avx512 {

// Narrow-span reroute (the BENCH_kernels.json d=8 regression): a span with
// n < 16 never fills one 512-bit vector, so the "masked tail" IS the whole
// op — mask materialization + maskz loads made it ~2.4x slower than one
// full 256-bit AVX2 vector. Every primitive therefore routes n < 16 to its
// AVX2 twin (the one-step intra-table fallback the ROADMAP called for).
// Bit-exactness is unaffected: the accumulation primitives are bit-for-bit
// identical across backends by contract, and for n < 16 the rerouted
// dot/exp_scale/hmax now run literally the AVX2 code, so those become
// bit-identical to AVX2 on narrow spans too (they remain tolerance-class
// versus scalar).
#define FG_AVX512_NARROW(call) \
  if (n < 16) return avx2::call;

// Lane mask covering the last `rem` (1..15) elements of a span. Masked-off
// lanes read zeros (maskz loads) and their results are never stored, so the
// live lanes execute exactly the one IEEE op the scalar loop would.
inline __mmask16 tail_mask(std::int64_t rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

// _mm512_max_ps/_mm512_min_ps keep the SSE operand-order contract (return
// the second operand on NaN / ±0 ties), matching the scalar `a > b ? a : b`
// reducer combines — NaN behavior included.

FG_AVX512_FN void fill(float* out, float v, std::int64_t n) {
  FG_AVX512_NARROW(fill(out, v, n))
  const __m512 vv = _mm512_set1_ps(v);
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) _mm512_storeu_ps(out + j, vv);
  if (j < n) _mm512_mask_storeu_ps(out + j, tail_mask(n - j), vv);
}

FG_AVX512_FN void scale(float* out, float s, std::int64_t n) {
  FG_AVX512_NARROW(scale(out, s, n))
  const __m512 vs = _mm512_set1_ps(s);
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm512_storeu_ps(out + j, _mm512_mul_ps(_mm512_loadu_ps(out + j), vs));
  }
  if (j < n) {
    const __mmask16 m = tail_mask(n - j);
    const __m512 o = _mm512_maskz_loadu_ps(m, out + j);
    _mm512_mask_storeu_ps(out + j, m, _mm512_maskz_mul_ps(m, o, vs));
  }
}

FG_AVX512_FN void relu(float* out, std::int64_t n) {
  FG_AVX512_NARROW(relu(out, n))
  const __m512 zero = _mm512_setzero_ps();
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm512_storeu_ps(out + j, _mm512_max_ps(_mm512_loadu_ps(out + j), zero));
  }
  if (j < n) {
    const __mmask16 m = tail_mask(n - j);
    const __m512 o = _mm512_maskz_loadu_ps(m, out + j);
    _mm512_mask_storeu_ps(out + j, m, _mm512_maskz_max_ps(m, o, zero));
  }
}

FG_AVX512_FN void leaky_relu(float* out, float slope, std::int64_t n) {
  FG_AVX512_NARROW(leaky_relu(out, slope, n))
  const __m512 zero = _mm512_setzero_ps();
  const __m512 vs = _mm512_set1_ps(slope);
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512 v = _mm512_loadu_ps(out + j);
    const __mmask16 pos = _mm512_cmp_ps_mask(v, zero, _CMP_GT_OQ);
    _mm512_storeu_ps(out + j,
                     _mm512_mask_mov_ps(_mm512_mul_ps(v, vs), pos, v));
  }
  if (j < n) {
    const __mmask16 m = tail_mask(n - j);
    const __m512 v = _mm512_maskz_loadu_ps(m, out + j);
    const __mmask16 pos = _mm512_mask_cmp_ps_mask(m, v, zero, _CMP_GT_OQ);
    _mm512_mask_storeu_ps(
        out + j, m, _mm512_mask_mov_ps(_mm512_maskz_mul_ps(m, v, vs), pos, v));
  }
}

FG_AVX512_FN void bias_relu(float* out, const float* b, std::int64_t n) {
  FG_AVX512_NARROW(bias_relu(out, b, n))
  const __m512 zero = _mm512_setzero_ps();
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512 t =
        _mm512_add_ps(_mm512_loadu_ps(out + j), _mm512_loadu_ps(b + j));
    _mm512_storeu_ps(out + j, _mm512_max_ps(t, zero));
  }
  if (j < n) {
    const __mmask16 m = tail_mask(n - j);
    const __m512 t = _mm512_maskz_add_ps(m, _mm512_maskz_loadu_ps(m, out + j),
                                         _mm512_maskz_loadu_ps(m, b + j));
    _mm512_mask_storeu_ps(out + j, m, _mm512_maskz_max_ps(m, t, zero));
  }
}

FG_AVX512_FN void axpy(float* out, const float* x, float s, std::int64_t n) {
  FG_AVX512_NARROW(axpy(out, x, s, n))
  // mul + add (not fmadd): keeps per-element rounding identical to the
  // scalar backend (see the header's rounding contract).
  const __m512 vs = _mm512_set1_ps(s);
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512 prod = _mm512_mul_ps(_mm512_loadu_ps(x + j), vs);
    _mm512_storeu_ps(out + j, _mm512_add_ps(_mm512_loadu_ps(out + j), prod));
  }
  if (j < n) {
    const __mmask16 m = tail_mask(n - j);
    const __m512 prod =
        _mm512_maskz_mul_ps(m, _mm512_maskz_loadu_ps(m, x + j), vs);
    const __m512 o = _mm512_maskz_loadu_ps(m, out + j);
    _mm512_mask_storeu_ps(out + j, m, _mm512_maskz_add_ps(m, o, prod));
  }
}

FG_AVX512_FN float dot(const float* a, const float* b, std::int64_t n) {
  FG_AVX512_NARROW(dot(a, b, n))
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps();
  __m512 acc3 = _mm512_setzero_ps();
  std::int64_t j = 0;
  for (; j + 64 <= n; j += 64) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + j),
                           _mm512_loadu_ps(b + j), acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + j + 16),
                           _mm512_loadu_ps(b + j + 16), acc1);
    acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(a + j + 32),
                           _mm512_loadu_ps(b + j + 32), acc2);
    acc3 = _mm512_fmadd_ps(_mm512_loadu_ps(a + j + 48),
                           _mm512_loadu_ps(b + j + 48), acc3);
  }
  for (; j + 16 <= n; j += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + j),
                           _mm512_loadu_ps(b + j), acc0);
  }
  if (j < n) {
    // mask3 form: active lanes run a*b+acc, masked lanes pass acc through —
    // one fmadd instead of a scalar tail loop, and EVEX masking suppresses
    // any FP flag a masked-off lane would have raised.
    const __mmask16 m = tail_mask(n - j);
    acc0 = _mm512_mask3_fmadd_ps(_mm512_maskz_loadu_ps(m, a + j),
                                 _mm512_maskz_loadu_ps(m, b + j), acc0, m);
  }
  acc0 = _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3));
  // Horizontal reduce spelled out (the _mm512_reduce_add_ps pseudo-op
  // expands through _mm256_undefined_pd and trips GCC's -Wuninitialized).
  __m256 half = _mm256_add_ps(_mm512_castps512_ps256(acc0),
                              _mm512_extractf32x8_ps(acc0, 1));
  __m128 lo = _mm256_castps256_ps128(half);
  lo = _mm_add_ps(lo, _mm256_extractf128_ps(half, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

// Tail ops use the maskz combine form (MZCOMBINE): active lanes compute the
// identical IEEE op, masked-off lanes are zeroed with their FP exceptions
// suppressed (EVEX masking) — the scalar/AVX2 backends never touch those
// elements, so neither may the AVX-512 tail, flags included.
#define FG_AVX512_ACCUM(NAME, VCOMBINE, MZCOMBINE)                           \
  FG_AVX512_FN void NAME(float* out, const float* x, std::int64_t n) {       \
    FG_AVX512_NARROW(NAME(out, x, n))                                        \
    std::int64_t j = 0;                                                      \
    for (; j + 32 <= n; j += 32) {                                           \
      _mm512_storeu_ps(out + j, VCOMBINE(_mm512_loadu_ps(out + j),           \
                                         _mm512_loadu_ps(x + j)));           \
      _mm512_storeu_ps(out + j + 16,                                         \
                       VCOMBINE(_mm512_loadu_ps(out + j + 16),               \
                                _mm512_loadu_ps(x + j + 16)));               \
    }                                                                        \
    for (; j + 16 <= n; j += 16) {                                           \
      _mm512_storeu_ps(out + j, VCOMBINE(_mm512_loadu_ps(out + j),           \
                                         _mm512_loadu_ps(x + j)));           \
    }                                                                        \
    if (j < n) {                                                             \
      const __mmask16 m = tail_mask(n - j);                                  \
      _mm512_mask_storeu_ps(out + j, m,                                      \
                            MZCOMBINE(m, _mm512_maskz_loadu_ps(m, out + j),  \
                                      _mm512_maskz_loadu_ps(m, x + j)));     \
    }                                                                        \
  }

FG_AVX512_ACCUM(accum_sum, _mm512_add_ps, _mm512_maskz_add_ps)
FG_AVX512_ACCUM(accum_max, _mm512_max_ps, _mm512_maskz_max_ps)
FG_AVX512_ACCUM(accum_min, _mm512_min_ps, _mm512_maskz_min_ps)
#undef FG_AVX512_ACCUM

// The tail's message op ALSO runs in maskz form: a full-width div would
// evaluate 0/0 on masked-off (zero-filled) lanes and raise FE_INVALID that
// no other backend raises; EVEX masking suppresses it.
#define FG_AVX512_ACCUM_BINOP(NAME, VCOMBINE, MZCOMBINE, VOP, MZOP)          \
  FG_AVX512_FN void NAME(float* out, const float* a, const float* b,         \
                         std::int64_t n) {                                   \
    FG_AVX512_NARROW(NAME(out, a, b, n))                                     \
    std::int64_t j = 0;                                                      \
    for (; j + 16 <= n; j += 16) {                                           \
      const __m512 msg = VOP(_mm512_loadu_ps(a + j), _mm512_loadu_ps(b + j)); \
      _mm512_storeu_ps(out + j, VCOMBINE(_mm512_loadu_ps(out + j), msg));    \
    }                                                                        \
    if (j < n) {                                                             \
      const __mmask16 m = tail_mask(n - j);                                  \
      const __m512 msg = MZOP(m, _mm512_maskz_loadu_ps(m, a + j),            \
                              _mm512_maskz_loadu_ps(m, b + j));              \
      _mm512_mask_storeu_ps(out + j, m,                                      \
                            MZCOMBINE(m, _mm512_maskz_loadu_ps(m, out + j),  \
                                      msg));                                 \
    }                                                                        \
  }

#define FG_AVX512_BINOP_TABLE(EMIT)                                          \
  EMIT(accum_sum_add, _mm512_add_ps, _mm512_maskz_add_ps, _mm512_add_ps,     \
       _mm512_maskz_add_ps)                                                  \
  EMIT(accum_sum_sub, _mm512_add_ps, _mm512_maskz_add_ps, _mm512_sub_ps,     \
       _mm512_maskz_sub_ps)                                                  \
  EMIT(accum_sum_mul, _mm512_add_ps, _mm512_maskz_add_ps, _mm512_mul_ps,     \
       _mm512_maskz_mul_ps)                                                  \
  EMIT(accum_sum_div, _mm512_add_ps, _mm512_maskz_add_ps, _mm512_div_ps,     \
       _mm512_maskz_div_ps)                                                  \
  EMIT(accum_max_add, _mm512_max_ps, _mm512_maskz_max_ps, _mm512_add_ps,     \
       _mm512_maskz_add_ps)                                                  \
  EMIT(accum_max_sub, _mm512_max_ps, _mm512_maskz_max_ps, _mm512_sub_ps,     \
       _mm512_maskz_sub_ps)                                                  \
  EMIT(accum_max_mul, _mm512_max_ps, _mm512_maskz_max_ps, _mm512_mul_ps,     \
       _mm512_maskz_mul_ps)                                                  \
  EMIT(accum_max_div, _mm512_max_ps, _mm512_maskz_max_ps, _mm512_div_ps,     \
       _mm512_maskz_div_ps)                                                  \
  EMIT(accum_min_add, _mm512_min_ps, _mm512_maskz_min_ps, _mm512_add_ps,     \
       _mm512_maskz_add_ps)                                                  \
  EMIT(accum_min_sub, _mm512_min_ps, _mm512_maskz_min_ps, _mm512_sub_ps,     \
       _mm512_maskz_sub_ps)                                                  \
  EMIT(accum_min_mul, _mm512_min_ps, _mm512_maskz_min_ps, _mm512_mul_ps,     \
       _mm512_maskz_mul_ps)                                                  \
  EMIT(accum_min_div, _mm512_min_ps, _mm512_maskz_min_ps, _mm512_div_ps,     \
       _mm512_maskz_div_ps)

FG_AVX512_BINOP_TABLE(FG_AVX512_ACCUM_BINOP)
#undef FG_AVX512_ACCUM_BINOP

#define FG_AVX512_ACCUM_BINOP_S(NAME, VCOMBINE, MZCOMBINE, VOP, MZOP)       \
  FG_AVX512_FN void NAME##_s(float* out, const float* a, float s,            \
                             std::int64_t n) {                               \
    FG_AVX512_NARROW(NAME##_s(out, a, s, n))                                 \
    const __m512 vs = _mm512_set1_ps(s);                                     \
    std::int64_t j = 0;                                                      \
    for (; j + 16 <= n; j += 16) {                                           \
      const __m512 msg = VOP(_mm512_loadu_ps(a + j), vs);                    \
      _mm512_storeu_ps(out + j, VCOMBINE(_mm512_loadu_ps(out + j), msg));    \
    }                                                                        \
    if (j < n) {                                                             \
      const __mmask16 m = tail_mask(n - j);                                  \
      const __m512 msg = MZOP(m, _mm512_maskz_loadu_ps(m, a + j), vs);       \
      _mm512_mask_storeu_ps(out + j, m,                                      \
                            MZCOMBINE(m, _mm512_maskz_loadu_ps(m, out + j),  \
                                      msg));                                 \
    }                                                                        \
  }

FG_AVX512_BINOP_TABLE(FG_AVX512_ACCUM_BINOP_S)
#undef FG_AVX512_ACCUM_BINOP_S
#undef FG_AVX512_BINOP_TABLE

FG_AVX512_FN float hmax(const float* x, std::int64_t n) {
  FG_AVX512_NARROW(hmax(x, n))
  if (n <= 0) return -std::numeric_limits<float>::infinity();
  __m512 vm = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16)
    vm = _mm512_max_ps(vm, _mm512_loadu_ps(x + j));
  if (j < n) {
    const __mmask16 m = tail_mask(n - j);
    // mask (not maskz) max: dead lanes keep the running -inf identity.
    vm = _mm512_mask_max_ps(vm, m, vm, _mm512_maskz_loadu_ps(m, x + j));
  }
  return _mm512_reduce_max_ps(vm);
}

// The 512-bit twin of avx2::exp256 — same constants (including the 87.9
// overflow-safe hi clamp), same per-lane op sequence, so both vector
// backends produce identical lane results.
FG_AVX512_FN __m512 exp512(__m512 x) {
  x = _mm512_min_ps(_mm512_max_ps(x, _mm512_set1_ps(-87.3365478515625f)),
                    _mm512_set1_ps(87.9f));
  const __m512i bias = _mm512_set1_epi32(127);
  const __m512i n = _mm512_cvtps_epi32(
      _mm512_mul_ps(x, _mm512_set1_ps(1.44269504088896341f)));
  const __m512 fx = _mm512_cvtepi32_ps(n);
  __m512 r = _mm512_fnmadd_ps(fx, _mm512_set1_ps(0.693359375f), x);
  r = _mm512_fnmadd_ps(fx, _mm512_set1_ps(-2.12194440e-4f), r);
  __m512 y = _mm512_set1_ps(1.9875691500e-4f);
  y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(1.3981999507e-3f));
  y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(8.3334519073e-3f));
  y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(4.1665795894e-2f));
  y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(1.6666665459e-1f));
  y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(5.0000001201e-1f));
  y = _mm512_fmadd_ps(y, _mm512_mul_ps(r, r),
                      _mm512_add_ps(r, _mm512_set1_ps(1.0f)));
  const __m512i pow2n = _mm512_slli_epi32(_mm512_add_epi32(n, bias), 23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(pow2n));
}

FG_AVX512_FN float exp_scale(float* io, float shift, std::int64_t n) {
  FG_AVX512_NARROW(exp_scale(io, shift, n))
  const __m512 vs = _mm512_set1_ps(shift);
  __m512 acc = _mm512_setzero_ps();
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512 e = exp512(_mm512_add_ps(_mm512_loadu_ps(io + j), vs));
    _mm512_storeu_ps(io + j, e);
    acc = _mm512_add_ps(acc, e);
  }
  if (j < n) {
    // Dead lanes run exp on zero-filled inputs — finite and flag-free (the
    // poly is mul/add of clamped finite values) — and are excluded from both
    // the store and the accumulator by the masked forms.
    const __mmask16 m = tail_mask(n - j);
    const __m512 e = exp512(
        _mm512_maskz_add_ps(m, _mm512_maskz_loadu_ps(m, io + j), vs));
    _mm512_mask_storeu_ps(io + j, m, e);
    acc = _mm512_mask_add_ps(acc, m, acc, e);
  }
  return _mm512_reduce_add_ps(acc);
}

#define FG_AVX512_WAXPY_BINOP(NAME, VOP, MZOP)                               \
  FG_AVX512_FN void NAME(float* out, const float* a, const float* b,         \
                         float s, std::int64_t n) {                          \
    FG_AVX512_NARROW(NAME(out, a, b, s, n))                                  \
    const __m512 vs = _mm512_set1_ps(s);                                     \
    std::int64_t j = 0;                                                      \
    for (; j + 16 <= n; j += 16) {                                           \
      const __m512 msg = _mm512_mul_ps(                                      \
          VOP(_mm512_loadu_ps(a + j), _mm512_loadu_ps(b + j)), vs);          \
      _mm512_storeu_ps(out + j,                                              \
                       _mm512_add_ps(_mm512_loadu_ps(out + j), msg));        \
    }                                                                        \
    if (j < n) {                                                             \
      const __mmask16 m = tail_mask(n - j);                                  \
      const __m512 msg = _mm512_maskz_mul_ps(                                \
          m,                                                                 \
          MZOP(m, _mm512_maskz_loadu_ps(m, a + j),                           \
               _mm512_maskz_loadu_ps(m, b + j)),                             \
          vs);                                                               \
      _mm512_mask_storeu_ps(                                                 \
          out + j, m,                                                        \
          _mm512_maskz_add_ps(m, _mm512_maskz_loadu_ps(m, out + j), msg));   \
    }                                                                        \
  }

FG_AVX512_WAXPY_BINOP(waxpy_add, _mm512_add_ps, _mm512_maskz_add_ps)
FG_AVX512_WAXPY_BINOP(waxpy_sub, _mm512_sub_ps, _mm512_maskz_sub_ps)
FG_AVX512_WAXPY_BINOP(waxpy_mul, _mm512_mul_ps, _mm512_maskz_mul_ps)
FG_AVX512_WAXPY_BINOP(waxpy_div, _mm512_div_ps, _mm512_maskz_div_ps)
#undef FG_AVX512_WAXPY_BINOP

#define FG_AVX512_WAXPY_BINOP_S(NAME, VOP, MZOP)                             \
  FG_AVX512_FN void NAME(float* out, const float* a, float c, float s,       \
                         std::int64_t n) {                                   \
    FG_AVX512_NARROW(NAME(out, a, c, s, n))                                  \
    const __m512 vc = _mm512_set1_ps(c);                                     \
    const __m512 vs = _mm512_set1_ps(s);                                     \
    std::int64_t j = 0;                                                      \
    for (; j + 16 <= n; j += 16) {                                           \
      const __m512 msg = _mm512_mul_ps(VOP(_mm512_loadu_ps(a + j), vc), vs); \
      _mm512_storeu_ps(out + j,                                              \
                       _mm512_add_ps(_mm512_loadu_ps(out + j), msg));        \
    }                                                                        \
    if (j < n) {                                                             \
      const __mmask16 m = tail_mask(n - j);                                  \
      const __m512 msg = _mm512_maskz_mul_ps(                                \
          m, MZOP(m, _mm512_maskz_loadu_ps(m, a + j), vc), vs);              \
      _mm512_mask_storeu_ps(                                                 \
          out + j, m,                                                        \
          _mm512_maskz_add_ps(m, _mm512_maskz_loadu_ps(m, out + j), msg));   \
    }                                                                        \
  }

FG_AVX512_WAXPY_BINOP_S(waxpy_add_s, _mm512_add_ps, _mm512_maskz_add_ps)
FG_AVX512_WAXPY_BINOP_S(waxpy_sub_s, _mm512_sub_ps, _mm512_maskz_sub_ps)
FG_AVX512_WAXPY_BINOP_S(waxpy_mul_s, _mm512_mul_ps, _mm512_maskz_mul_ps)
FG_AVX512_WAXPY_BINOP_S(waxpy_div_s, _mm512_div_ps, _mm512_maskz_div_ps)
#undef FG_AVX512_WAXPY_BINOP_S

// Row-group fold, 512-bit flavor of the AVX2 block above: the output tile
// lives in up to four zmm accumulators across the whole row group, tails are
// one masked accumulator, and n < 16 reroutes to the AVX2 twin. Per (j) the
// i-fold order is the flat chain's, for every unroll value and tail shape.
#define FG_AVX512_ACCUM_ROWS(NAME, VCOMBINE, MZCOMBINE)                      \
  FG_AVX512_FN void NAME(float* out, const float* src, std::int64_t stride,  \
                         const std::int32_t* idx, std::int64_t cnt,          \
                         std::int64_t n, int unroll) {                       \
    FG_AVX512_NARROW(NAME(out, src, stride, idx, cnt, n, unroll))            \
    std::int64_t j = 0;                                                      \
    if (unroll >= 4) {                                                       \
      for (; j + 64 <= n; j += 64) {                                         \
        __m512 a0 = _mm512_loadu_ps(out + j);                                \
        __m512 a1 = _mm512_loadu_ps(out + j + 16);                           \
        __m512 a2 = _mm512_loadu_ps(out + j + 32);                           \
        __m512 a3 = _mm512_loadu_ps(out + j + 48);                           \
        for (std::int64_t i = 0; i < cnt; ++i) {                             \
          const float* row =                                                 \
              src + static_cast<std::int64_t>(idx[i]) * stride;              \
          a0 = VCOMBINE(a0, _mm512_loadu_ps(row + j));                       \
          a1 = VCOMBINE(a1, _mm512_loadu_ps(row + j + 16));                  \
          a2 = VCOMBINE(a2, _mm512_loadu_ps(row + j + 32));                  \
          a3 = VCOMBINE(a3, _mm512_loadu_ps(row + j + 48));                  \
        }                                                                    \
        _mm512_storeu_ps(out + j, a0);                                       \
        _mm512_storeu_ps(out + j + 16, a1);                                  \
        _mm512_storeu_ps(out + j + 32, a2);                                  \
        _mm512_storeu_ps(out + j + 48, a3);                                  \
      }                                                                      \
    }                                                                        \
    if (unroll >= 2) {                                                       \
      for (; j + 32 <= n; j += 32) {                                         \
        __m512 a0 = _mm512_loadu_ps(out + j);                                \
        __m512 a1 = _mm512_loadu_ps(out + j + 16);                           \
        for (std::int64_t i = 0; i < cnt; ++i) {                             \
          const float* row =                                                 \
              src + static_cast<std::int64_t>(idx[i]) * stride;              \
          a0 = VCOMBINE(a0, _mm512_loadu_ps(row + j));                       \
          a1 = VCOMBINE(a1, _mm512_loadu_ps(row + j + 16));                  \
        }                                                                    \
        _mm512_storeu_ps(out + j, a0);                                       \
        _mm512_storeu_ps(out + j + 16, a1);                                  \
      }                                                                      \
    }                                                                        \
    for (; j + 16 <= n; j += 16) {                                           \
      __m512 a0 = _mm512_loadu_ps(out + j);                                  \
      for (std::int64_t i = 0; i < cnt; ++i)                                 \
        a0 = VCOMBINE(                                                       \
            a0, _mm512_loadu_ps(                                             \
                    src + static_cast<std::int64_t>(idx[i]) * stride + j));  \
      _mm512_storeu_ps(out + j, a0);                                         \
    }                                                                        \
    if (j < n) {                                                             \
      const __mmask16 m = tail_mask(n - j);                                  \
      __m512 a0 = _mm512_maskz_loadu_ps(m, out + j);                         \
      for (std::int64_t i = 0; i < cnt; ++i)                                 \
        a0 = MZCOMBINE(                                                      \
            m, a0,                                                           \
            _mm512_maskz_loadu_ps(                                           \
                m, src + static_cast<std::int64_t>(idx[i]) * stride + j));   \
      _mm512_mask_storeu_ps(out + j, m, a0);                                 \
    }                                                                        \
  }

FG_AVX512_ACCUM_ROWS(accum_rows_sum, _mm512_add_ps, _mm512_maskz_add_ps)
FG_AVX512_ACCUM_ROWS(accum_rows_max, _mm512_max_ps, _mm512_maskz_max_ps)
FG_AVX512_ACCUM_ROWS(accum_rows_min, _mm512_min_ps, _mm512_maskz_min_ps)
#undef FG_AVX512_ACCUM_ROWS

FG_AVX512_FN void waxpy_rows(float* out, const float* src, std::int64_t stride,
                             const std::int32_t* idx, const float* w,
                             std::int64_t cnt, std::int64_t n, int unroll) {
  FG_AVX512_NARROW(waxpy_rows(out, src, stride, idx, w, cnt, n, unroll))
  std::int64_t j = 0;
  if (unroll >= 2) {
    for (; j + 32 <= n; j += 32) {
      __m512 a0 = _mm512_loadu_ps(out + j);
      __m512 a1 = _mm512_loadu_ps(out + j + 16);
      for (std::int64_t i = 0; i < cnt; ++i) {
        const float* row = src + static_cast<std::int64_t>(idx[i]) * stride;
        const __m512 vw = _mm512_set1_ps(w[i]);
        a0 = _mm512_add_ps(a0, _mm512_mul_ps(_mm512_loadu_ps(row + j), vw));
        a1 = _mm512_add_ps(a1,
                           _mm512_mul_ps(_mm512_loadu_ps(row + j + 16), vw));
      }
      _mm512_storeu_ps(out + j, a0);
      _mm512_storeu_ps(out + j + 16, a1);
    }
  }
  for (; j + 16 <= n; j += 16) {
    __m512 a0 = _mm512_loadu_ps(out + j);
    for (std::int64_t i = 0; i < cnt; ++i) {
      const float* row = src + static_cast<std::int64_t>(idx[i]) * stride;
      a0 = _mm512_add_ps(
          a0, _mm512_mul_ps(_mm512_loadu_ps(row + j), _mm512_set1_ps(w[i])));
    }
    _mm512_storeu_ps(out + j, a0);
  }
  if (j < n) {
    const __mmask16 m = tail_mask(n - j);
    __m512 a0 = _mm512_maskz_loadu_ps(m, out + j);
    for (std::int64_t i = 0; i < cnt; ++i) {
      const float* row = src + static_cast<std::int64_t>(idx[i]) * stride;
      a0 = _mm512_maskz_add_ps(
          m, a0,
          _mm512_maskz_mul_ps(m, _mm512_maskz_loadu_ps(m, row + j),
                              _mm512_set1_ps(w[i])));
    }
    _mm512_mask_storeu_ps(out + j, m, a0);
  }
}

#undef FG_AVX512_NARROW

FG_AVX512_FN void gather_rows(float* out, const float* src,
                              const std::int32_t* idx, std::int64_t m,
                              std::int64_t d) {
  // Narrow reroute on the ROW WIDTH (the span length here is d, not n): a
  // row narrower than one 512-bit vector gathers faster as one 256-bit
  // copy, same as every other primitive's n < 16 rule.
  if (d < 16) return avx2::gather_rows(out, src, idx, m, d);
  const __mmask16 tail = tail_mask(d % 16 == 0 ? 16 : d % 16);
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = src + static_cast<std::int64_t>(idx[i]) * d;
    float* dst = out + i * d;
    std::int64_t j = 0;
    for (; j + 16 <= d; j += 16)
      _mm512_storeu_ps(dst + j, _mm512_loadu_ps(row + j));
    if (j < d)
      _mm512_mask_storeu_ps(dst + j, tail,
                            _mm512_maskz_loadu_ps(tail, row + j));
  }
}

}  // namespace avx512

SpanOps make_avx512_ops() {
  SpanOps t;
  t.fill = avx512::fill;
  t.scale = avx512::scale;
  t.relu = avx512::relu;
  t.leaky_relu = avx512::leaky_relu;
  t.bias_relu = avx512::bias_relu;
  t.axpy = avx512::axpy;
  t.dot = avx512::dot;
  t.accum[0] = avx512::accum_sum;
  t.accum[1] = avx512::accum_max;
  t.accum[2] = avx512::accum_min;
  void (*const bin[kNumAccum][kNumBinOp])(float*, const float*, const float*,
                                          std::int64_t) = {
      {avx512::accum_sum_add, avx512::accum_sum_sub, avx512::accum_sum_mul,
       avx512::accum_sum_div},
      {avx512::accum_max_add, avx512::accum_max_sub, avx512::accum_max_mul,
       avx512::accum_max_div},
      {avx512::accum_min_add, avx512::accum_min_sub, avx512::accum_min_mul,
       avx512::accum_min_div}};
  void (*const bin_s[kNumAccum][kNumBinOp])(float*, const float*, float,
                                            std::int64_t) = {
      {avx512::accum_sum_add_s, avx512::accum_sum_sub_s,
       avx512::accum_sum_mul_s, avx512::accum_sum_div_s},
      {avx512::accum_max_add_s, avx512::accum_max_sub_s,
       avx512::accum_max_mul_s, avx512::accum_max_div_s},
      {avx512::accum_min_add_s, avx512::accum_min_sub_s,
       avx512::accum_min_mul_s, avx512::accum_min_div_s}};
  for (int r = 0; r < kNumAccum; ++r) {
    for (int o = 0; o < kNumBinOp; ++o) {
      t.accum_binop[r][o] = bin[r][o];
      t.accum_binop_scalar[r][o] = bin_s[r][o];
    }
  }
  t.hmax = avx512::hmax;
  t.exp_scale = avx512::exp_scale;
  t.waxpy_binop[0] = avx512::waxpy_add;
  t.waxpy_binop[1] = avx512::waxpy_sub;
  t.waxpy_binop[2] = avx512::waxpy_mul;
  t.waxpy_binop[3] = avx512::waxpy_div;
  t.waxpy_binop_scalar[0] = avx512::waxpy_add_s;
  t.waxpy_binop_scalar[1] = avx512::waxpy_sub_s;
  t.waxpy_binop_scalar[2] = avx512::waxpy_mul_s;
  t.waxpy_binop_scalar[3] = avx512::waxpy_div_s;
  t.gather_rows = avx512::gather_rows;
  t.accum_rows[0] = avx512::accum_rows_sum;
  t.accum_rows[1] = avx512::accum_rows_max;
  t.accum_rows[2] = avx512::accum_rows_min;
  t.waxpy_rows = avx512::waxpy_rows;
  return t;
}

#endif  // FG_HAVE_AVX512_BACKEND

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

std::atomic<int> g_forced_isa{-1};  // -1 = no override

// Active table pointer, re-resolved only when the override changes: the
// span_ops() wrappers run once per edge visit inside the kernels, so the
// hot path must be one relaxed load, not the detection/env/static-guard
// chain.
std::atomic<const SpanOps*> g_active_ops{nullptr};

Isa env_or_detected_isa() {
  static const Isa isa = [] {
    const std::string pref =
        support::env_string("FEATGRAPH_SIMD", "auto");
    if (pref == "scalar") return Isa::kScalar;
    if (pref == "avx2") return effective_isa(Isa::kAvx2);
    if (pref == "avx512") return effective_isa(Isa::kAvx512);
    if (pref != "auto") {
      // A typo'd value ("Scalar", "off", ...) silently running the vector
      // backend is the opposite of the user's intent — warn once.
      std::fprintf(stderr,
                   "featgraph: unknown FEATGRAPH_SIMD=\"%s\" "
                   "(expected scalar|avx2|avx512|auto), using auto\n",
                   pref.c_str());
    }
    // "auto": the strongest level the CPU runs, walking the ladder down.
    return effective_isa(Isa::kAvx512);
  }();
  return isa;
}

}  // namespace

bool cpu_supports_avx2() {
#if FG_HAVE_AVX2_BACKEND
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if FG_HAVE_AVX512_BACKEND
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512dq");
  return ok;
#else
  return false;
#endif
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return cpu_supports_avx2();
    case Isa::kAvx512:
      return cpu_supports_avx512();
  }
  return false;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> isas;
  for (int i = 0; i < kNumIsa; ++i) {
    if (isa_supported(static_cast<Isa>(i))) isas.push_back(static_cast<Isa>(i));
  }
  return isas;
}

Isa effective_isa(Isa isa) {
  // One rung at a time: an avx512 request on an AVX2-only machine still
  // gets the vector backend, not the scalar floor.
  if (isa == Isa::kAvx512 && !cpu_supports_avx512()) isa = Isa::kAvx2;
  if (isa == Isa::kAvx2 && !cpu_supports_avx2()) isa = Isa::kScalar;
  return isa;
}

const SpanOps& span_ops(Isa isa) {
  static const SpanOps scalar_table = make_scalar_ops();
  isa = effective_isa(isa);
#if FG_HAVE_AVX512_BACKEND
  if (isa == Isa::kAvx512) {
    static const SpanOps avx512_table = make_avx512_ops();
    return avx512_table;
  }
#endif
#if FG_HAVE_AVX2_BACKEND
  if (isa == Isa::kAvx2) {
    static const SpanOps avx2_table = make_avx2_ops();
    return avx2_table;
  }
#else
  (void)isa;
#endif
  return scalar_table;
}

const SpanOps& span_ops() {
  // Acquire pairs with the release publications below: a thread that only
  // sees the pointer (and never ran the table's static initialization
  // itself) must also see the table's contents.
  const SpanOps* t = g_active_ops.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = &span_ops(active_isa());
    // CAS, not a plain store: a concurrent force_isa() pin must not be
    // clobbered by this first-call initialization losing the race.
    const SpanOps* expected = nullptr;
    if (!g_active_ops.compare_exchange_strong(expected, t,
                                              std::memory_order_release,
                                              std::memory_order_acquire)) {
      t = expected;
    }
  }
  return *t;
}

const SpanOps& span_ops_for_width(std::int64_t max_span_width) {
  const Isa active = effective_isa(active_isa());
  if (active == Isa::kAvx512 && max_span_width >= 0 && max_span_width < 16) {
    // Every span of this launch is pure tail: resolve the AVX2 table once
    // instead of paying the intra-table narrow branch per span. (kAvx2
    // degrades to scalar through span_ops(Isa) if somehow unsupported.)
    return span_ops(Isa::kAvx2);
  }
  return span_ops();
}

Isa active_isa() {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0) return effective_isa(static_cast<Isa>(forced));
  return env_or_detected_isa();
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

void force_isa(Isa isa) { set_forced_isa_state(static_cast<int>(isa)); }

void clear_forced_isa() { set_forced_isa_state(-1); }

int forced_isa_state() { return g_forced_isa.load(std::memory_order_relaxed); }

void set_forced_isa_state(int state) {
  g_forced_isa.store(state, std::memory_order_relaxed);
  g_active_ops.store(&span_ops(active_isa()), std::memory_order_release);
}

}  // namespace featgraph::simd
