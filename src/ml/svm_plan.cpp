#include "ml/svm_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "ml/model_io.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {

namespace {

// Mirrors kernel.cpp: integral degrees up to this bound use
// exponentiation by squaring (bit-identical to the scalar kernel path).
constexpr double kMaxIntegralDegree = 64.0;

// FNV-1a over a row's raw bytes — the content-dedup bucket key.  Exact
// equality is re-verified with memcmp, so collisions only cost a probe.
std::uint64_t hash_row_bytes(const double* row, std::size_t d) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(row);
  for (std::size_t i = 0; i < d * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

void validate_kernel(const Kernel& kernel) {
  if (kernel.type == Kernel::Type::kLinear) return;
  XDMODML_CHECK(std::isfinite(kernel.gamma) && kernel.gamma > 0.0,
                "corrupt SVM kernel: gamma must be positive");
  if (kernel.type == Kernel::Type::kPolynomial) {
    XDMODML_CHECK(std::isfinite(kernel.degree) && kernel.degree > 0.0 &&
                      std::isfinite(kernel.coef0),
                  "corrupt SVM kernel: degree must be positive");
  }
}

struct PlanMetrics {
  obs::Gauge& unique_svs;
  obs::Gauge& total_svs;
  obs::Gauge& dedup_ratio_x1000;
  obs::Gauge& pool_bytes;
  obs::Counter& builds;

  static PlanMetrics& instance() {
    auto& reg = obs::MetricsRegistry::instance();
    static PlanMetrics m{reg.gauge("svm.plan.unique_svs"),
                         reg.gauge("svm.plan.total_svs"),
                         reg.gauge("svm.plan.dedup_ratio_x1000"),
                         reg.gauge("svm.plan.pool_bytes"),
                         reg.counter("svm.plan.builds")};
    return m;
  }
};

void count_queries(std::size_t nq, std::size_t unique) {
  static auto& queries =
      obs::MetricsRegistry::instance().counter("svm.predict.queries");
  static auto& elements = obs::MetricsRegistry::instance().counter(
      "svm.predict.kernel_row_elements");
  queries.inc(nq);
  elements.inc(nq * unique);
}

}  // namespace

std::shared_ptr<const SvmInferencePlan> SvmInferencePlan::build(
    std::span<const BinarySvm> machines, int num_classes) {
  const auto k = static_cast<std::size_t>(num_classes);
  XDMODML_CHECK(num_classes >= 2 && machines.size() == k * (k - 1) / 2,
                "inference plan needs the k(k-1)/2 one-vs-one machines");
  const Kernel& kernel = machines[0].kernel();
  const std::size_t d = machines[0].support_vectors().cols();

  // Every one-vs-one machine of a fit shares one kernel; a mixed set
  // cannot share a pool row sweep.
  std::size_t total = 0;
  for (const auto& m : machines) {
    const auto& kern = m.kernel();
    XDMODML_CHECK(kern.type == kernel.type && kern.gamma == kernel.gamma &&
                      kern.degree == kernel.degree &&
                      kern.coef0 == kernel.coef0,
                  "inference plan requires one kernel across machines");
    XDMODML_CHECK(m.support_vectors().cols() == d,
                  "inference plan requires one feature width");
    XDMODML_CHECK(m.num_support_vectors() > 0,
                  "inference plan requires trained machines");
    total += m.num_support_vectors();
  }

  // Provenance keying is valid only when EVERY machine carries full-
  // matrix row indices (one fit's machines share a row keyspace; a
  // machine without provenance — e.g. loaded from a binary-svm-v1
  // stream — would alias index 7 of a different matrix).
  const bool provenance = std::all_of(
      machines.begin(), machines.end(), [](const BinarySvm& m) {
        return m.sv_full_rows().size() == m.num_support_vectors();
      });

  // Pass 1: give every machine SV a (class, index within class) slot.
  // Keys live per class, so a row that supports two classes (possible
  // in a hand-made or corrupted model) gets one slot in each block.
  std::vector<std::vector<const double*>> rows_of(k);
  std::vector<std::vector<std::size_t>> full_rows_of(k);
  std::vector<std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>>
      buckets(k);
  struct Slot {
    std::size_t cls;
    std::size_t idx;
  };
  std::vector<Slot> slots;
  slots.reserve(total);
  std::size_t m = 0;
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b, ++m) {
      const BinarySvm& machine = machines[m];
      for (std::size_t s = 0; s < machine.num_support_vectors(); ++s) {
        const std::size_t cls = machine.coefficients()[s] > 0.0 ? a : b;
        const double* row = machine.support_vectors().row(s).data();
        auto& bucket = buckets[cls][provenance ? machine.sv_full_rows()[s]
                                               : hash_row_bytes(row, d)];
        const auto hit = std::find_if(
            bucket.begin(), bucket.end(), [&](std::uint32_t idx) {
              return provenance || std::memcmp(rows_of[cls][idx], row,
                                               d * sizeof(double)) == 0;
            });
        std::size_t idx = 0;
        if (hit != bucket.end()) {
          idx = *hit;
        } else {
          idx = rows_of[cls].size();
          XDMODML_CHECK(idx <= 0xffffffffull, "support-vector pool too large");
          bucket.push_back(static_cast<std::uint32_t>(idx));
          rows_of[cls].push_back(row);
          if (provenance) {
            full_rows_of[cls].push_back(machine.sv_full_rows()[s]);
          }
        }
        slots.push_back({cls, idx});
      }
    }
  }

  // Pass 2: the unpadded class-ordered pool and its coefficients.
  std::vector<std::size_t> class_rows(k);
  std::vector<std::size_t> start(k + 1, 0);
  for (std::size_t c = 0; c < k; ++c) {
    class_rows[c] = rows_of[c].size();
    start[c + 1] = start[c] + class_rows[c];
  }
  const std::size_t unique = start[k];
  std::vector<double> pool(unique * d);
  std::vector<std::size_t> full_rows;
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < class_rows[c]; ++i) {
      std::copy_n(rows_of[c][i], d, pool.begin() + (start[c] + i) * d);
    }
    full_rows.insert(full_rows.end(), full_rows_of[c].begin(),
                     full_rows_of[c].end());
  }
  // Machine (a, b): class-a SVs on coefficient row b−1, class-b SVs on
  // row a.  A content-merged duplicate within one machine sums its
  // coefficients.
  std::vector<double> coef((k - 1) * unique, 0.0);
  std::vector<double> rho(machines.size());
  std::size_t t = 0;
  m = 0;
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b, ++m) {
      rho[m] = machines[m].rho();
      for (const double c : machines[m].coefficients()) {
        const Slot slot = slots[t++];
        const std::size_t r = slot.cls == a ? b - 1 : a;
        coef[r * unique + start[slot.cls] + slot.idx] += c;
      }
    }
  }
  return assemble(kernel, k, d, total, std::move(class_rows), pool, coef,
                  std::move(rho), std::move(full_rows));
}

std::shared_ptr<const SvmInferencePlan> SvmInferencePlan::assemble(
    Kernel kernel, std::size_t classes, std::size_t dims, std::size_t total,
    std::vector<std::size_t> class_rows, std::span<const double> pool,
    std::span<const double> coef, std::vector<double> rho,
    std::vector<std::size_t> full_rows) {
  validate_kernel(kernel);
  XDMODML_CHECK(classes >= 2, "corrupt SVM: needs >= 2 classes");
  XDMODML_CHECK(rho.size() == classes * (classes - 1) / 2,
                "corrupt SVM: needs k(k-1)/2 one-vs-one machines");
  XDMODML_CHECK(dims > 0 && pool.size() % dims == 0,
                "corrupt SVM support-vector pool shape");
  const std::size_t unique = pool.size() / dims;
  XDMODML_CHECK(class_rows.size() == classes, "corrupt SVM class row counts");
  std::size_t counted = 0;
  for (const std::size_t n : class_rows) {
    XDMODML_CHECK(n <= unique - counted,
                  "corrupt SVM: class row counts exceed the pool");
    counted += n;
  }
  XDMODML_CHECK(counted == unique && unique > 0,
                "corrupt SVM: class row counts must sum to the pool rows");
  XDMODML_CHECK(coef.size() == (classes - 1) * unique,
                "corrupt SVM: coefficient width must match the pool");
  XDMODML_CHECK(total >= unique, "corrupt SVM support-vector count");
  XDMODML_CHECK(full_rows.empty() || full_rows.size() == unique,
                "support-vector provenance must cover the pool");
  XDMODML_CHECK(all_finite(pool) && all_finite(coef) && all_finite(rho),
                "corrupt SVM: non-finite pool entry, coefficient or rho");

  auto plan = std::shared_ptr<SvmInferencePlan>(new SvmInferencePlan());
  plan->kernel_ = kernel;
  switch (kernel.type) {
    case Kernel::Type::kLinear:
      plan->form_ = simd::KernelForm::kLinear;
      break;
    case Kernel::Type::kRbf:
      plan->form_ = simd::KernelForm::kRbf;
      break;
    case Kernel::Type::kPolynomial: {
      const double deg = kernel.degree;
      const bool integral = deg <= kMaxIntegralDegree && deg == std::floor(deg);
      plan->form_ = integral ? simd::KernelForm::kPolyIntegral
                             : simd::KernelForm::kPolyReal;
      if (integral) plan->degree_int_ = static_cast<std::uint64_t>(deg);
      break;
    }
  }
  plan->classes_ = classes;
  plan->dims_ = dims;
  plan->unique_ = unique;
  plan->total_ = total;
  plan->rho_ = std::move(rho);
  plan->full_rows_ = std::move(full_rows);

  // Lay the class blocks out as whole 4-row feature-major panels.
  plan->block_.assign(classes + 1, 0);
  for (std::size_t c = 0; c < classes; ++c) {
    plan->block_[c + 1] = plan->block_[c] + (class_rows[c] + 3) / 4 * 4;
  }
  const std::size_t rows = plan->rows_ = plan->block_[classes];
  const std::size_t k1 = classes - 1;
  plan->panels_.assign(rows * dims, 0.0);
  plan->sq_norms_.assign(rows, 0.0);
  plan->coef_.assign(k1 * rows, 0.0);
  std::size_t u = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < class_rows[c]; ++i, ++u) {
      const std::size_t j = plan->block_[c] + i;
      const double* src = pool.data() + u * dims;
      for (std::size_t f = 0; f < dims; ++f) {
        plan->panels_[((j / 4) * dims + f) * 4 + j % 4] = src[f];
      }
      plan->sq_norms_[j] = simd::squared_norm(src, dims);
      for (std::size_t r = 0; r < k1; ++r) {
        plan->coef_[r * rows + j] = coef[r * unique + u];
      }
    }
  }
  plan->class_rows_ = std::move(class_rows);

  auto& metrics = PlanMetrics::instance();
  metrics.unique_svs.set(static_cast<std::int64_t>(plan->unique_));
  metrics.total_svs.set(static_cast<std::int64_t>(plan->total_));
  metrics.dedup_ratio_x1000.set(
      static_cast<std::int64_t>(plan->dedup_ratio() * 1000.0));
  metrics.pool_bytes.set(static_cast<std::int64_t>(plan->pool_bytes()));
  metrics.builds.inc();
  return plan;
}

void SvmInferencePlan::save(std::ostream& out) const {
  io::write_scalar(out, "kernel_type",
                   static_cast<std::int64_t>(kernel_.type));
  io::write_scalar(out, "gamma", kernel_.gamma);
  io::write_scalar(out, "degree", kernel_.degree);
  io::write_scalar(out, "coef0", kernel_.coef0);
  io::write_scalar(out, "dims", static_cast<std::int64_t>(dims_));
  io::write_scalar(out, "total_svs", static_cast<std::int64_t>(total_));
  io::write_index_vector(out, "class_rows", class_rows_);
  const std::size_t k1 = classes_ - 1;
  std::vector<double> pool(unique_ * dims_);
  std::vector<double> coef(k1 * unique_);
  std::size_t u = 0;
  for (std::size_t c = 0; c < classes_; ++c) {
    for (std::size_t i = 0; i < class_rows_[c]; ++i, ++u) {
      const std::size_t j = block_[c] + i;
      for (std::size_t f = 0; f < dims_; ++f) {
        pool[u * dims_ + f] = panels_[((j / 4) * dims_ + f) * 4 + j % 4];
      }
      for (std::size_t r = 0; r < k1; ++r) {
        coef[r * unique_ + u] = coef_[r * rows_ + j];
      }
    }
  }
  io::write_vector(out, "pool", pool);
  io::write_vector(out, "coef", coef);
  io::write_vector(out, "rho", rho_);
}

std::shared_ptr<const SvmInferencePlan> SvmInferencePlan::load(
    io::TokenReader& reader, int num_classes) {
  XDMODML_CHECK(num_classes >= 2, "corrupt SVM: needs >= 2 classes");
  Kernel kernel;
  const auto kernel_type = reader.read_int("kernel_type");
  XDMODML_CHECK(kernel_type >= 0 && kernel_type <= 2,
                "corrupt SVM kernel type");
  kernel.type = static_cast<Kernel::Type>(kernel_type);
  kernel.gamma = reader.read_double("gamma");
  kernel.degree = reader.read_double("degree");
  kernel.coef0 = reader.read_double("coef0");
  const auto dims = reader.read_int("dims");
  const auto total = reader.read_int("total_svs");
  XDMODML_CHECK(dims > 0 && total > 0, "corrupt SVM shape");
  auto class_rows = reader.read_index_vector("class_rows");
  const auto pool = reader.read_vector("pool");
  const auto coef = reader.read_vector("coef");
  auto rho = reader.read_vector("rho");
  return assemble(kernel, static_cast<std::size_t>(num_classes),
                  static_cast<std::size_t>(dims),
                  static_cast<std::size_t>(total), std::move(class_rows),
                  pool, coef, std::move(rho), {});
}

double SvmInferencePlan::dedup_ratio() const {
  return unique_ == 0 ? 0.0
                      : static_cast<double>(total_) /
                            static_cast<double>(unique_);
}

simd::SvmBlocks SvmInferencePlan::blocks() const {
  return {panels_.data(), sq_norms_.data(), coef_.data(),  block_.data(),
          classes_,       rows_,            dims_,         form_,
          kernel_.gamma,  kernel_.coef0,    kernel_.degree, degree_int_};
}

void SvmInferencePlan::combine(const double* sums, double* dec) const {
  const std::size_t k1 = classes_ - 1;
  std::size_t m = 0;
  for (std::size_t a = 0; a < classes_; ++a) {
    for (std::size_t b = a + 1; b < classes_; ++b, ++m) {
      dec[m] = sums[a * k1 + b - 1] + sums[b * k1 + a] - rho_[m];
    }
  }
}

void SvmInferencePlan::kernel_row(std::span<const double> x,
                                  std::span<double> out) const {
  XDMODML_CHECK(x.size() == dims_, "kernel_row probe width mismatch");
  XDMODML_CHECK(out.size() >= unique_, "kernel_row output too small");
  count_queries(1, unique_);
  std::vector<double> padded(simd::kMaxQueries * rows_);
  simd::svm_block_sums(blocks(), x.data(), 1, padded.data(), nullptr);
  auto dst = out.begin();
  for (std::size_t c = 0; c < classes_; ++c) {
    const auto src = padded.begin() + static_cast<std::ptrdiff_t>(block_[c]);
    dst = std::copy(src, src + static_cast<std::ptrdiff_t>(class_rows_[c]),
                    dst);
  }
}

void SvmInferencePlan::decision_values(const double* queries, std::size_t nq,
                                       Scratch& scratch, double* out) const {
  XDMODML_CHECK(nq <= kMaxBatch, "decision_values takes <= 32 queries");
  const std::size_t k1 = classes_ - 1;
  count_queries(nq, unique_);
  scratch.krow.resize(simd::kMaxQueries * rows_);
  scratch.sums.resize(kMaxBatch * classes_ * k1);
  simd::svm_block_sums(blocks(), queries, nq, scratch.krow.data(),
                       scratch.sums.data());
  for (std::size_t q = 0; q < nq; ++q) {
    combine(scratch.sums.data() + q * classes_ * k1, out + q * rho_.size());
  }
}

void SvmInferencePlan::decision_values_cached(SharedGramCache& cache,
                                              std::size_t full_row,
                                              Scratch& scratch,
                                              double* out) const {
  XDMODML_CHECK(provenance_keyed(),
                "plan was not fitted through a shared Gram cache");
  const std::size_t k1 = classes_ - 1;
  scratch.krow.resize(std::max(scratch.krow.size(), rows_));
  scratch.sums.resize(std::max(scratch.sums.size(), classes_ * k1));
  const auto row = cache.row(full_row);
  const std::span<const std::size_t> provenance(full_rows_);
  std::size_t u = 0;
  for (std::size_t c = 0; c < classes_; ++c) {
    const std::size_t n = class_rows_[c];
    row->gather(provenance.subspan(u, n),
                std::span<double>(scratch.krow).subspan(block_[c], n));
    u += n;
    for (std::size_t r = 0; r < k1; ++r) {
      const double* coef = coef_.data() + r * rows_;
      double s = 0.0;
      for (std::size_t j = block_[c]; j < block_[c] + n; ++j) {
        s += coef[j] * scratch.krow[j];
      }
      scratch.sums[c * k1 + r] = s;
    }
  }
  combine(scratch.sums.data(), out);
}

}  // namespace xdmodml::ml
