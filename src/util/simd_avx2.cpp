// AVX2 + FMA microkernel table.
//
// Compiled with -mavx2 -mfma when the XDMODML_SIMD CMake option is ON
// and the compiler supports those flags (XDMODML_HAVE_AVX2 is defined
// for this target's sources in that case); otherwise the table is
// absent and `avx2_ops()` returns nullptr so dispatch can never reach
// this ISA.  Nothing here is called unless cpuid reported AVX2+FMA at
// startup (see simd.cpp), so the intrinsics are safe to contain.
#include "util/simd.hpp"
#include "util/simd_ops.hpp"

#if defined(XDMODML_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace xdmodml::simd::detail {

namespace {

// ---- vectorized exp -------------------------------------------------
//
// Cephes-style exp for 4 doubles: range-reduce x = n·ln2 + r with a
// Cody–Waite two-term ln2, evaluate exp(r) on |r| ≤ ln2/2 as the Padé
// form 1 + 2·r·P(r²)/(Q(r²) − r·P(r²)), and scale by 2ⁿ through the
// exponent bits.  Accuracy and edge behaviour are documented in
// simd.hpp (a few ULP in the primary range; underflow band flushes to
// exactly +0, x > 709 saturates to +inf, NaN propagates).

constexpr double kExpMaxArg = 709.0;
// log(DBL_MIN) — below this exp() is subnormal; this path returns +0.
constexpr double kExpMinArg = -708.396418532264106224;

inline __m256d exp4(__m256d x) {
  const __m256d log2e = _mm256_set1_pd(1.4426950408889634073599);
  // ln2 split so n·c1 is exact for |n| < 2^20.
  const __m256d c1 = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d c2 = _mm256_set1_pd(1.42860682030941723212e-6);
  const __m256d p0 = _mm256_set1_pd(1.26177193074810590878e-4);
  const __m256d p1 = _mm256_set1_pd(3.02994407707441961300e-2);
  const __m256d p2 = _mm256_set1_pd(9.99999999999999999910e-1);
  const __m256d q0 = _mm256_set1_pd(3.00198505138664455042e-6);
  const __m256d q1 = _mm256_set1_pd(2.52448340349684104192e-3);
  const __m256d q2 = _mm256_set1_pd(2.27265548208155028766e-1);
  const __m256d q3 = _mm256_set1_pd(2.00000000000000000005e0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);

  // n = round(x / ln2); r = x − n·ln2 in two exact-ish steps.
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, c1, x);
  r = _mm256_fnmadd_pd(n, c2, r);

  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d px = _mm256_fmadd_pd(p0, r2, p1);
  px = _mm256_fmadd_pd(px, r2, p2);
  px = _mm256_mul_pd(px, r);
  __m256d qx = _mm256_fmadd_pd(q0, r2, q1);
  qx = _mm256_fmadd_pd(qx, r2, q2);
  qx = _mm256_fmadd_pd(qx, r2, q3);
  const __m256d er = _mm256_fmadd_pd(
      two, _mm256_div_pd(px, _mm256_sub_pd(qx, px)), one);

  // 2ⁿ via the exponent field: for x in [kExpMinArg, kExpMaxArg] n is in
  // [−1022, 1023], so n + 1023 is a valid biased exponent and the int32
  // intermediate cannot overflow.  Out-of-range lanes produce garbage
  // here and are overwritten by the blends below.
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i pow2 =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  __m256d result = _mm256_mul_pd(er, _mm256_castsi256_pd(pow2));

  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d over =
      _mm256_cmp_pd(x, _mm256_set1_pd(kExpMaxArg), _CMP_GT_OQ);
  const __m256d under =
      _mm256_cmp_pd(x, _mm256_set1_pd(kExpMinArg), _CMP_LT_OQ);
  const __m256d is_nan = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
  result = _mm256_blendv_pd(result, inf, over);
  result = _mm256_blendv_pd(result, _mm256_setzero_pd(), under);
  result = _mm256_blendv_pd(result, x, is_nan);  // keep the NaN payload
  return result;
}

// Applies exp4 to a tail of 1–3 values through a padded register so
// remainder lanes go through exactly the same math as full blocks.
inline void exp4_partial(double* x, std::size_t count) {
  alignas(32) double tmp[4] = {0.0, 0.0, 0.0, 0.0};
  std::memcpy(tmp, x, count * sizeof(double));
  _mm256_store_pd(tmp, exp4(_mm256_load_pd(tmp)));
  std::memcpy(x, tmp, count * sizeof(double));
}

inline double hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    i += 4;
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

// Four rows per pass: the probe chunk is loaded once and FMA'd into
// four accumulators, then the lane sums collapse with two hadds into a
// single 4-wide store.  One indirect call covers a whole block, so the
// per-row dispatch cost of the dot pass disappears.
void dot_rows_avx2(const double* x, const double* rows, std::size_t d,
                   std::size_t n_rows, double* out) {
  std::size_t j = 0;
  for (; j + 4 <= n_rows; j += 4) {
    const double* r0 = rows + (j + 0) * d;
    const double* r1 = rows + (j + 1) * d;
    const double* r2 = rows + (j + 2) * d;
    const double* r3 = rows + (j + 3) * d;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    std::size_t c = 0;
    for (; c + 4 <= d; c += 4) {
      const __m256d xv = _mm256_loadu_pd(x + c);
      a0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(r0 + c), a0);
      a1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(r1 + c), a1);
      a2 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(r2 + c), a2);
      a3 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(r3 + c), a3);
    }
    // hadd(a0,a1) = [a0₀+a0₁, a1₀+a1₁, a0₂+a0₃, a1₂+a1₃]; adding the
    // swapped 128-bit halves of the two hadds yields [Σa0 Σa1 Σa2 Σa3].
    const __m256d t01 = _mm256_hadd_pd(a0, a1);
    const __m256d t23 = _mm256_hadd_pd(a2, a3);
    __m256d sums = _mm256_add_pd(_mm256_permute2f128_pd(t01, t23, 0x20),
                                 _mm256_permute2f128_pd(t01, t23, 0x31));
    if (c < d) {
      alignas(32) double tail[4] = {0.0, 0.0, 0.0, 0.0};
      for (; c < d; ++c) {
        tail[0] += x[c] * r0[c];
        tail[1] += x[c] * r1[c];
        tail[2] += x[c] * r2[c];
        tail[3] += x[c] * r3[c];
      }
      sums = _mm256_add_pd(sums, _mm256_load_pd(tail));
    }
    _mm256_storeu_pd(out + j, sums);
  }
  for (; j < n_rows; ++j) out[j] = dot_avx2(x, rows + j * d, d);
}

double squared_norm_avx2(const double* x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  if (i + 4 <= n) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc0 = _mm256_fmadd_pd(v, v, acc0);
    i += 4;
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += x[i] * x[i];
  return s;
}

void exp_inplace_avx2(double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, exp4(_mm256_loadu_pd(x + i)));
  }
  if (i < n) exp4_partial(x + i, n - i);
}

void rbf_row_transform_avx2(double* dots, const double* sq_norms,
                            std::size_t n, double x_sq, double gamma) {
  const __m256d vx_sq = _mm256_set1_pd(x_sq);
  const __m256d vneg_g = _mm256_set1_pd(-gamma);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d dotv = _mm256_loadu_pd(dots + j);
    // Lane-wise clamped_sq_dist: ‖x‖² + ‖xⱼ‖² − 2·x·xⱼ, floored at 0
    // (2·dot is exact, so the fnmadd matches the scalar helper to 1 ulp).
    __m256d d2 = _mm256_fnmadd_pd(
        two, dotv, _mm256_add_pd(vx_sq, _mm256_loadu_pd(sq_norms + j)));
    d2 = _mm256_max_pd(zero, d2);
    _mm256_storeu_pd(dots + j, exp4(_mm256_mul_pd(vneg_g, d2)));
  }
  if (j < n) {
    for (std::size_t k = j; k < n; ++k) {
      dots[k] = -gamma * clamped_sq_dist(x_sq, sq_norms[k], dots[k]);
    }
    exp4_partial(dots + j, n - j);
  }
}

void poly_row_transform_powi_avx2(double* dots, std::size_t n, double gamma,
                                  double coef0, std::uint64_t degree) {
  const __m256d vg = _mm256_set1_pd(gamma);
  const __m256d vc0 = _mm256_set1_pd(coef0);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    // mul+add (not fmadd) so the base matches the scalar g·dot + c0.
    const __m256d base =
        _mm256_add_pd(_mm256_mul_pd(vg, _mm256_loadu_pd(dots + j)), vc0);
    __m256d result = one;
    __m256d term = base;
    std::uint64_t e = degree;
    // Same multiplication order as simd::powi → lane-exact agreement.
    while (e > 0) {
      if (e & 1u) result = _mm256_mul_pd(result, term);
      term = _mm256_mul_pd(term, term);
      e >>= 1u;
    }
    _mm256_storeu_pd(dots + j, result);
  }
  for (; j < n; ++j) dots[j] = powi(gamma * dots[j] + coef0, degree);
}

// ---- class-blocked SVM serving kernel -------------------------------
//
// Class blocks run outermost: each block's panels and coefficient
// columns are read from memory once and then reused from cache by every
// 4-query group of the call (the whole pool plus coefficients outgrow
// a 2 MiB L2 on the 20-class Table-2 model).
//
// Kernel rows: a pass holds P 4-row panels × NQ queries in NQ·P
// accumulators (≤ 8 of the 16 ymm registers).  Per feature it loads the
// P panel slices once and broadcasts each query's coordinate.  Lanes
// are pool rows, so each (query, row) dot is ONE serial FMA chain over
// the features — the tile shape only changes which chains run side by
// side, never a chain's operations, and single == batch bit for bit.
// P shrinks as NQ grows to keep eight chains in flight either way.
//
// Coefficient sums: R coefficient rows × NQ queries accumulate lane-wise
// over the block's 4-aligned rows, then collapse with the fixed hsum
// order; again the shape never reaches a chain.

// K(x, ·) over one panel's four dot products (lanes = pool rows).
inline __m256d kernel_form4(const SvmBlocks& m, __m256d dots, double x_sq,
                            const double* sq_norms) {
  switch (m.form) {
    case KernelForm::kLinear:
      return dots;
    case KernelForm::kRbf: {
      // Same lane math as rbf_row_transform_avx2.
      __m256d d2 = _mm256_fnmadd_pd(
          _mm256_set1_pd(2.0), dots,
          _mm256_add_pd(_mm256_set1_pd(x_sq), _mm256_loadu_pd(sq_norms)));
      d2 = _mm256_max_pd(_mm256_setzero_pd(), d2);
      return exp4(_mm256_mul_pd(_mm256_set1_pd(-m.gamma), d2));
    }
    case KernelForm::kPolyIntegral: {
      const __m256d base = _mm256_add_pd(
          _mm256_mul_pd(_mm256_set1_pd(m.gamma), dots),
          _mm256_set1_pd(m.coef0));
      __m256d result = _mm256_set1_pd(1.0);
      __m256d term = base;
      for (std::uint64_t e = m.degree_int; e > 0; e >>= 1u) {
        if (e & 1u) result = _mm256_mul_pd(result, term);
        term = _mm256_mul_pd(term, term);
      }
      return result;
    }
    case KernelForm::kPolyReal: {
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, dots);
      for (double& v : lanes) v = std::pow(m.gamma * v + m.coef0, m.degree);
      return _mm256_load_pd(lanes);
    }
  }
  return dots;  // unreachable
}

template <std::size_t NQ, std::size_t P>
inline void kernel_panels(const SvmBlocks& m, const double* queries,
                          const double* x_sq, std::size_t p0, double* krow) {
  const std::size_t d = m.dims;
  const double* base = m.panels + p0 * d * 4;
  // One flat, fully unrolled accumulator set: GCC keeps it in registers
  // only when every index is a constant (a 2-D array spills per FMA).
  __m256d acc[NQ * P];
#pragma GCC unroll 16
  for (std::size_t i = 0; i < NQ * P; ++i) acc[i] = _mm256_setzero_pd();
  for (std::size_t f = 0; f < d; ++f) {
    __m256d rows[P];
#pragma GCC unroll 16
    for (std::size_t p = 0; p < P; ++p) {
      rows[p] = _mm256_loadu_pd(base + (p * d + f) * 4);
    }
#pragma GCC unroll 4
    for (std::size_t q = 0; q < NQ; ++q) {
      const __m256d xq = _mm256_broadcast_sd(queries + q * d + f);
#pragma GCC unroll 16
      for (std::size_t p = 0; p < P; ++p) {
        acc[q * P + p] = _mm256_fmadd_pd(xq, rows[p], acc[q * P + p]);
      }
    }
  }
  // Park the dots before the (large, not unrolled) transform loop.
  alignas(32) double dots[NQ * P][4];
#pragma GCC unroll 16
  for (std::size_t i = 0; i < NQ * P; ++i) _mm256_store_pd(dots[i], acc[i]);
  for (std::size_t q = 0; q < NQ; ++q) {
    for (std::size_t p = 0; p < P; ++p) {
      const std::size_t j = (p0 + p) * 4;
      _mm256_storeu_pd(krow + q * m.rows + j,
                       kernel_form4(m, _mm256_load_pd(dots[q * P + p]),
                                    x_sq[q], m.sq_norms + j));
    }
  }
}

template <std::size_t NQ, std::size_t R>
inline void coef_rows(const SvmBlocks& m, std::size_t a, std::size_t r0,
                      const double* krow, double* sums) {
  const std::size_t k1 = m.classes - 1;
  __m256d acc[R][NQ];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < NQ; ++q) acc[r][q] = _mm256_setzero_pd();
  }
  for (std::size_t j = m.block[a]; j < m.block[a + 1]; j += 4) {
    __m256d kv[NQ];
    for (std::size_t q = 0; q < NQ; ++q) {
      kv[q] = _mm256_loadu_pd(krow + q * m.rows + j);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d cv = _mm256_loadu_pd(m.coef + (r0 + r) * m.rows + j);
      for (std::size_t q = 0; q < NQ; ++q) {
        acc[r][q] = _mm256_fmadd_pd(cv, kv[q], acc[r][q]);
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < NQ; ++q) {
      sums[(q * m.classes + a) * k1 + r0 + r] = hsum(acc[r][q]);
    }
  }
}

// Class block a for one group of NQ queries.
template <std::size_t NQ>
void block_group(const SvmBlocks& m, std::size_t a, const double* queries,
                 double* krow, double* sums) {
  constexpr std::size_t kWide = NQ == 1 ? 8 : (NQ == 2 ? 5 : 3);
  double x_sq[NQ];
  for (std::size_t q = 0; q < NQ; ++q) {
    x_sq[q] = squared_norm_avx2(queries + q * m.dims, m.dims);
  }
  const std::size_t end = m.block[a + 1] / 4;
  std::size_t p = m.block[a] / 4;
  for (; p + kWide <= end; p += kWide) {
    kernel_panels<NQ, kWide>(m, queries, x_sq, p, krow);
  }
  for (; p < end; ++p) kernel_panels<NQ, 1>(m, queries, x_sq, p, krow);
  if (sums == nullptr) return;
  const std::size_t k1 = m.classes - 1;
  std::size_t r = 0;
  for (; r + kWide <= k1; r += kWide) {
    coef_rows<NQ, kWide>(m, a, r, krow, sums);
  }
  for (; r < k1; ++r) coef_rows<NQ, 1>(m, a, r, krow, sums);
}

void svm_block_sums_avx2(const SvmBlocks& m, const double* queries,
                         std::size_t nq, double* krow, double* sums) {
  const std::size_t per_query = m.classes * (m.classes - 1);
  for (std::size_t a = 0; a < m.classes; ++a) {
    for (std::size_t q0 = 0; q0 < nq; q0 += kMaxQueries) {
      const double* x = queries + q0 * m.dims;
      double* s = sums == nullptr ? nullptr : sums + q0 * per_query;
      switch (std::min(kMaxQueries, nq - q0)) {
        case 1:
          block_group<1>(m, a, x, krow, s);
          break;
        case 2:
          block_group<2>(m, a, x, krow, s);
          break;
        case 3:
          block_group<3>(m, a, x, krow, s);
          break;
        default:
          block_group<4>(m, a, x, krow, s);
          break;
      }
    }
  }
}

}  // namespace

const Ops* avx2_ops() {
  static constexpr Ops ops{dot_avx2,          dot_rows_avx2,
                           squared_norm_avx2, exp_inplace_avx2,
                           rbf_row_transform_avx2,
                           poly_row_transform_powi_avx2,
                           svm_block_sums_avx2};
  return &ops;
}

}  // namespace xdmodml::simd::detail

#else  // !XDMODML_HAVE_AVX2

namespace xdmodml::simd::detail {

const Ops* avx2_ops() { return nullptr; }

}  // namespace xdmodml::simd::detail

#endif
