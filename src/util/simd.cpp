#include "util/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/simd_ops.hpp"

namespace xdmodml::simd {

namespace detail {

namespace {

double dot_scalar(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void dot_rows_scalar(const double* x, const double* rows, std::size_t d,
                     std::size_t n_rows, double* out) {
  for (std::size_t j = 0; j < n_rows; ++j) {
    out[j] = dot_scalar(x, rows + j * d, d);
  }
}

double squared_norm_scalar(const double* x, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * x[i];
  return s;
}

void exp_inplace_scalar(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::exp(x[i]);
}

void rbf_row_transform_scalar(double* dots, const double* sq_norms,
                              std::size_t n, double x_sq, double gamma) {
  for (std::size_t j = 0; j < n; ++j) {
    dots[j] = std::exp(-gamma * clamped_sq_dist(x_sq, sq_norms[j], dots[j]));
  }
}

void poly_row_transform_powi_scalar(double* dots, std::size_t n, double gamma,
                                    double coef0, std::uint64_t degree) {
  for (std::size_t j = 0; j < n; ++j) {
    dots[j] = powi(gamma * dots[j] + coef0, degree);
  }
}

double kernel_form_scalar(const SvmBlocks& m, double dot, double x_sq,
                          double y_sq) {
  switch (m.form) {
    case KernelForm::kLinear:
      return dot;
    case KernelForm::kRbf:
      return std::exp(-m.gamma * clamped_sq_dist(x_sq, y_sq, dot));
    case KernelForm::kPolyIntegral:
      return powi(m.gamma * dot + m.coef0, m.degree_int);
    case KernelForm::kPolyReal:
      return std::pow(m.gamma * dot + m.coef0, m.degree);
  }
  return dot;  // unreachable
}

// One query at a time, one pool row at a time: trivially independent
// of nq.  Every query reuses krow's first row.
void svm_block_sums_scalar(const SvmBlocks& m, const double* queries,
                           std::size_t nq, double* krow, double* sums) {
  const std::size_t d = m.dims;
  const std::size_t k1 = m.classes - 1;
  for (std::size_t q = 0; q < nq; ++q) {
    const double* x = queries + q * d;
    const double x_sq = squared_norm_scalar(x, d);
    for (std::size_t j = 0; j < m.rows; ++j) {
      const double* col = m.panels + (j / 4) * d * 4 + j % 4;
      double dot = 0.0;
      for (std::size_t f = 0; f < d; ++f) dot += x[f] * col[f * 4];
      krow[j] = kernel_form_scalar(m, dot, x_sq, m.sq_norms[j]);
    }
    if (sums == nullptr) continue;
    for (std::size_t a = 0; a < m.classes; ++a) {
      for (std::size_t r = 0; r < k1; ++r) {
        const double* coef = m.coef + r * m.rows;
        double s = 0.0;
        for (std::size_t j = m.block[a]; j < m.block[a + 1]; ++j) {
          s += coef[j] * krow[j];
        }
        sums[(q * m.classes + a) * k1 + r] = s;
      }
    }
  }
}

}  // namespace

const Ops* scalar_ops() {
  static constexpr Ops ops{dot_scalar,          dot_rows_scalar,
                           squared_norm_scalar, exp_inplace_scalar,
                           rbf_row_transform_scalar,
                           poly_row_transform_powi_scalar,
                           svm_block_sums_scalar};
  return &ops;
}

}  // namespace detail

namespace {

const detail::Ops* ops_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::scalar_ops();
    case Isa::kAvx2:
      return detail::avx2_ops();
  }
  return detail::scalar_ops();  // unreachable
}

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// The active table, published once.  Loads are relaxed — the tables are
// immutable statics, so any table a reader observes is fully formed.
std::atomic<const detail::Ops*> g_ops{nullptr};
std::atomic<Isa> g_isa{Isa::kScalar};

Isa choose_startup_isa() {
  if (const char* env = std::getenv("XDMODML_SIMD")) {
    if (const auto requested = isa_from_string(env)) {
      if (available(*requested)) return *requested;
      std::fprintf(stderr,
                   "xdmodml: XDMODML_SIMD=%s unavailable on this build/CPU; "
                   "using %s\n",
                   env, std::string(isa_name(detect_best())).c_str());
    }
  }
  return detect_best();
}

const detail::Ops* ops() {
  const detail::Ops* p = g_ops.load(std::memory_order_relaxed);
  if (p != nullptr) return p;
  // Racing first calls all compute the same selection; last store wins
  // with an identical value.
  const Isa isa = choose_startup_isa();
  p = ops_for(isa);
  g_isa.store(isa, std::memory_order_relaxed);
  g_ops.store(p, std::memory_order_relaxed);
  return p;
}

}  // namespace

Isa detect_best() {
  if (detail::avx2_ops() != nullptr && cpu_has_avx2_fma()) return Isa::kAvx2;
  return Isa::kScalar;
}

bool available(Isa isa) {
  if (isa == Isa::kAvx2) {
    return detail::avx2_ops() != nullptr && cpu_has_avx2_fma();
  }
  return true;
}

Isa active() {
  ops();  // force startup selection
  return g_isa.load(std::memory_order_relaxed);
}

bool set_active(Isa isa) {
  if (!available(isa)) return false;
  g_isa.store(isa, std::memory_order_relaxed);
  g_ops.store(ops_for(isa), std::memory_order_relaxed);
  return true;
}

std::string_view isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "?";  // unreachable
}

std::optional<Isa> isa_from_string(std::string_view name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  return std::nullopt;
}

double dot(const double* a, const double* b, std::size_t n) {
  return ops()->dot(a, b, n);
}

void dot_rows(const double* x, const double* rows, std::size_t d,
              std::size_t n_rows, double* out) {
  ops()->dot_rows(x, rows, d, n_rows, out);
}

double squared_norm(const double* x, std::size_t n) {
  return ops()->squared_norm(x, n);
}

void exp_inplace(double* x, std::size_t n) { ops()->exp_inplace(x, n); }

void rbf_row_transform(double* dots, const double* sq_norms, std::size_t n,
                       double x_sq, double gamma) {
  ops()->rbf_row_transform(dots, sq_norms, n, x_sq, gamma);
}

void poly_row_transform_powi(double* dots, std::size_t n, double gamma,
                             double coef0, std::uint64_t degree) {
  ops()->poly_row_transform_powi(dots, n, gamma, coef0, degree);
}

void svm_block_sums(const SvmBlocks& model, const double* queries,
                    std::size_t nq, double* krow, double* sums) {
  ops()->svm_block_sums(model, queries, nq, krow, sums);
}

}  // namespace xdmodml::simd
