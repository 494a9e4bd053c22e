// SIMD microkernel layer with runtime CPU dispatch.
//
// The SVM training hot path spends nearly all of its time in two loops:
// the blocked dot-product sweep that turns a probe row into raw inner
// products against every training row, and the kernel transform that
// maps those inner products through exp / powi.  Auto-vectorization
// covers the dot pass reasonably well but leaves the transform pass on
// scalar `std::exp`, which caps the raw RBF sweep speedup.  This header
// exposes the handful of microkernels both passes need:
//
//   * dot / squared_norm   — FMA-chained reductions over contiguous rows;
//   * exp_inplace          — vectorized exp (Cephes-style polynomial);
//   * rbf_row_transform    — dots → exp(−γ·clamped ‖x−xⱼ‖²) in one pass;
//   * poly_row_transform_powi — dots → (γ·dot + c0)^degree, integral degree;
//   * svm_block_sums       — the serving kernel: kernel rows of up to four
//                            queries against a class-blocked SVM pool,
//                            then the per-class coefficient sums.
//
// Each call dispatches through a function-pointer table selected ONCE at
// startup from cpuid (AVX2 + FMA today; a scalar fallback always exists,
// and new ISA targets slot in as another table — see DESIGN.md).  The
// choice can be overridden for A/B testing:
//
//   * environment: XDMODML_SIMD=scalar|avx2|auto (read at first use);
//   * programmatically: set_active(Isa) — used by the equivalence tests
//     and the bench binaries to time both paths in one process.
//
// Building the AVX2 translation unit is controlled by the XDMODML_SIMD
// CMake option (default ON where the compiler supports -mavx2 -mfma);
// with it OFF the scalar table is the only candidate and behaviour is
// identical everywhere.
//
// Accuracy contract for the vectorized exp (AVX2 path):
//   * |result − std::exp(x)| ≤ a few ULP for x in [−708.39, 709.0];
//   * exactly +0.0 for x < −708.396 (std::exp returns subnormals down to
//     ≈ −745; this path flushes the whole subnormal band to zero, which
//     is the correct limit for RBF arguments −γ‖x−y‖² → −∞);
//   * +inf for x > 709.0 (std::exp stays finite up to ≈ 709.78; RBF
//     arguments are never positive so the band is unreachable there);
//   * NaN → NaN, +inf → +inf, −inf → +0.0, ±0.0 → 1.0 exactly.
// The scalar table uses std::exp and has no such edges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace xdmodml::simd {

/// Instruction-set targets, in preference order.
enum class Isa { kScalar, kAvx2 };

/// Largest vector lane count any target uses (doubles per register).
/// Tests exercise remainder handling with sizes not divisible by this.
inline constexpr std::size_t kMaxLanes = 4;

/// Round-off in the norm expansion ‖x−y‖² = ‖x‖² + ‖y‖² − 2·x·y can push
/// the result a hair negative for near-identical rows.  Every transform
/// path — scalar and SIMD alike — clamps through this one helper (the
/// AVX2 kernel mirrors it lane-wise with max(0, ·)) so the two cannot
/// drift.
inline double clamped_sq_dist(double x_sq, double y_sq, double xy) {
  const double d2 = x_sq + y_sq - 2.0 * xy;
  return d2 > 0.0 ? d2 : 0.0;
}

/// base^exp by squaring — shared by the scalar kernel paths and the
/// per-lane SIMD polynomial transform (same multiplication order, so the
/// two agree bit-for-bit on equal inputs).
inline double powi(double base, std::uint64_t exp) {
  double result = 1.0;
  double term = base;
  while (exp > 0) {
    if (exp & 1u) result *= term;
    term *= term;
    exp >>= 1u;
  }
  return result;
}

/// Best ISA this build AND this CPU support (cpuid-based, cached).
Isa detect_best();

/// True when `isa` is both compiled in and supported by the CPU.
bool available(Isa isa);

/// The active ISA.  Selected once on first use: XDMODML_SIMD if set and
/// available, otherwise detect_best().
Isa active();

/// Forces the active ISA (A/B testing, equivalence tests).  Returns
/// false — leaving the selection unchanged — if `isa` is unavailable.
bool set_active(Isa isa);

/// "scalar" / "avx2".
std::string_view isa_name(Isa isa);

/// Parses an XDMODML_SIMD value ("scalar", "avx2"); nullopt for "auto"
/// or anything unrecognized.  Exposed for tests.
std::optional<Isa> isa_from_string(std::string_view name);

// ---- microkernels (dispatch through the active ISA) -----------------

/// Σ a[i]·b[i].
double dot(const double* a, const double* b, std::size_t n);

/// Blocked dot sweep against contiguous row-major storage:
///   out[j] = x · rows[j·d .. j·d+d)  for j in [0, n_rows).
/// One dispatch for the whole block (the AVX2 path processes four rows
/// per pass, reusing the probe vector from registers) — this is the
/// Gram-row engine's dot pass.
void dot_rows(const double* x, const double* rows, std::size_t d,
              std::size_t n_rows, double* out);

/// Σ x[i]².
double squared_norm(const double* x, std::size_t n);

/// x[i] = exp(x[i]) for i in [0, n) — see the accuracy contract above.
void exp_inplace(double* x, std::size_t n);

/// RBF transform over a block of raw inner products:
///   dots[j] = exp(−gamma · clamped_sq_dist(x_sq, sq_norms[j], dots[j]))
void rbf_row_transform(double* dots, const double* sq_norms, std::size_t n,
                       double x_sq, double gamma);

/// Integral-degree polynomial transform over a block of inner products:
///   dots[j] = powi(gamma · dots[j] + coef0, degree)
void poly_row_transform_powi(double* dots, std::size_t n, double gamma,
                             double coef0, std::uint64_t degree);

/// Kernel function applied by svm_block_sums to each inner product.
enum class KernelForm : std::uint8_t {
  kLinear,        ///< x·y
  kRbf,           ///< exp(−γ · clamped_sq_dist)
  kPolyIntegral,  ///< powi(γ·x·y + coef0, degree_int)
  kPolyReal,      ///< std::pow(γ·x·y + coef0, degree)
};

/// Queries svm_block_sums holds in registers at once.
inline constexpr std::size_t kMaxQueries = 4;

/// A one-vs-one SVM in LIBSVM's class-blocked layout (Chang & Lin 2011).
/// The support vectors of class c are pool rows [block[c], block[c+1]);
/// every block is a whole number of 4-row panels (zero rows pad a block
/// out).  Panel p holds rows 4p..4p+3 feature-major:
///   row j, feature f  →  panels[((j / 4) · dims + f) · 4 + j % 4].
/// coef is the dense (classes − 1) × rows matrix of α·y: machine (a, b),
/// a < b, uses row b − 1 over block a and row a over block b (padding
/// and non-participating SVs hold 0).
struct SvmBlocks {
  const double* panels = nullptr;
  const double* sq_norms = nullptr;  ///< ‖row j‖², rows entries
  const double* coef = nullptr;      ///< (classes − 1) × rows
  const std::size_t* block = nullptr;  ///< classes + 1 row offsets
  std::size_t classes = 0;
  std::size_t rows = 0;  ///< multiple of 4
  std::size_t dims = 0;
  KernelForm form = KernelForm::kRbf;
  double gamma = 0.0;
  double coef0 = 0.0;
  double degree = 0.0;
  std::uint64_t degree_int = 0;
};

/// The SVM serving kernel for nq row-major queries of `dims` doubles:
///   sums[(q·classes + a)·(classes − 1) + r] = Σ_{j in block a}
///                                             coef[r][j] · K(x_q, row j)
/// Class blocks run outermost, groups of up to kMaxQueries queries
/// inside, so each block is read from memory once per call.  `krow` is
/// kMaxQueries × rows scratch; when nq == 1 it ends holding the query's
/// kernel row, krow[j] = K(x, row j).  `sums` may be null (kernel rows
/// only; nq must then be 1).  Every value of query q is computed by the
/// same operations in the same order whatever nq is and wherever q sits
/// in the call, so a batch reproduces single-query results bit for bit
/// under one ISA.
void svm_block_sums(const SvmBlocks& model, const double* queries,
                    std::size_t nq, double* krow, double* sums);

}  // namespace xdmodml::simd
