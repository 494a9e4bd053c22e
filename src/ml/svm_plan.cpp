#include "ml/svm_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {

namespace {

// Mirrors kernel.cpp: integral degrees up to this bound use
// exponentiation by squaring (bit-identical to the scalar kernel path).
constexpr double kMaxIntegralDegree = 64.0;

// The active prediction mode, published once.  -1 = unselected;
// otherwise the SvmPredictMode value.  Mirrors simd.cpp's startup ISA
// selection: racing first reads all compute the same env-derived value.
std::atomic<int> g_mode{-1};

SvmPredictMode choose_startup_mode() {
  if (const char* env = std::getenv("XDMODML_SVM_PREDICT")) {
    if (const auto requested = svm_predict_mode_from_string(env)) {
      return *requested;
    }
    std::fprintf(stderr,
                 "xdmodml: XDMODML_SVM_PREDICT=%s unrecognized "
                 "(want legacy|compiled); using compiled\n",
                 env);
  }
  return SvmPredictMode::kCompiled;
}

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

SvmPredictMode svm_predict_mode() {
  int m = g_mode.load(std::memory_order_relaxed);
  if (m < 0) {
    m = static_cast<int>(choose_startup_mode());
    g_mode.store(m, std::memory_order_relaxed);
  }
  return static_cast<SvmPredictMode>(m);
}

void set_svm_predict_mode(SvmPredictMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

std::string_view svm_predict_mode_name(SvmPredictMode mode) {
  return mode == SvmPredictMode::kLegacy ? "legacy" : "compiled";
}

std::optional<SvmPredictMode> svm_predict_mode_from_string(
    std::string_view name) {
  if (name == "legacy") return SvmPredictMode::kLegacy;
  if (name == "compiled") return SvmPredictMode::kCompiled;
  return std::nullopt;
}

std::shared_ptr<const SvmInferencePlan> SvmInferencePlan::build(
    std::span<const BinarySvm> machines, int num_classes) {
  const auto k = static_cast<std::size_t>(num_classes);
  XDMODML_CHECK(num_classes >= 2 && machines.size() == k * (k - 1) / 2,
                "inference plan needs the k(k-1)/2 one-vs-one machines");

  auto plan = std::shared_ptr<SvmInferencePlan>(new SvmInferencePlan());
  plan->kernel_ = machines[0].kernel();
  plan->classes_ = k;
  plan->dims_ = machines[0].support_vectors().cols();
  switch (plan->kernel_.type) {
    case Kernel::Type::kLinear:
      plan->form_ = simd::KernelForm::kLinear;
      break;
    case Kernel::Type::kRbf:
      plan->form_ = simd::KernelForm::kRbf;
      break;
    case Kernel::Type::kPolynomial: {
      const double deg = plan->kernel_.degree;
      const bool integral = deg > 0.0 && deg <= kMaxIntegralDegree &&
                            deg == std::floor(deg);
      plan->form_ = integral ? simd::KernelForm::kPolyIntegral
                             : simd::KernelForm::kPolyReal;
      if (integral) plan->degree_int_ = static_cast<std::uint64_t>(deg);
      break;
    }
  }

  // Every one-vs-one machine of a fit shares one kernel; a mixed set
  // cannot share a pool row sweep.
  for (const auto& m : machines) {
    const auto& kern = m.kernel();
    XDMODML_CHECK(kern.type == plan->kernel_.type &&
                      kern.gamma == plan->kernel_.gamma &&
                      kern.degree == plan->kernel_.degree &&
                      kern.coef0 == plan->kernel_.coef0,
                  "inference plan requires one kernel across machines");
    XDMODML_CHECK(m.support_vectors().cols() == plan->dims_,
                  "inference plan requires one feature width");
    XDMODML_CHECK(m.num_support_vectors() > 0,
                  "inference plan requires trained machines");
    plan->total_ += m.num_support_vectors();
  }

  // Provenance keying is valid only when EVERY machine carries full-
  // matrix row indices (one fit's machines share a row keyspace; a
  // machine without provenance — e.g. fitted cache-less or loaded from
  // a v1 file — would alias index 7 of a different matrix).
  bool provenance = true;
  for (const auto& m : machines) {
    if (m.sv_full_rows().size() != m.num_support_vectors()) {
      provenance = false;
      break;
    }
  }
  plan->provenance_ = provenance;

  // Pass 1: give every machine SV a (class, index within class) slot.
  // Keys live per class, so a row that supports two classes (possible
  // in a hand-made or corrupted model) gets one slot in each block.
  const std::size_t d = plan->dims_;
  std::vector<std::vector<const double*>> rows_of(k);
  std::vector<std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>>
      buckets(k);
  struct Slot {
    std::size_t cls;
    std::size_t idx;
  };
  std::vector<Slot> slots;
  slots.reserve(plan->total_);
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
        }
        slots.push_back({cls, idx});
      }
    }
  }

  // Pass 2: lay the class blocks out as whole 4-row panels.
  plan->block_.assign(k + 1, 0);
  plan->class_rows_.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    plan->class_rows_[c] = rows_of[c].size();
    plan->unique_ += rows_of[c].size();
    plan->block_[c + 1] = plan->block_[c] + (rows_of[c].size() + 3) / 4 * 4;
  }
  const std::size_t rows = plan->rows_ = plan->block_[k];
  plan->panels_.assign(rows * d, 0.0);
  plan->sq_norms_.assign(rows, 0.0);
  plan->coef_.assign((k - 1) * rows, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < rows_of[c].size(); ++i) {
      const std::size_t j = plan->block_[c] + i;
      const double* src = rows_of[c][i];
      for (std::size_t f = 0; f < d; ++f) {
        plan->panels_[((j / 4) * d + f) * 4 + j % 4] = src[f];
      }
      plan->sq_norms_[j] = simd::squared_norm(src, d);
    }
  }
  // Machine (a, b): class-a SVs on coefficient row b−1, class-b SVs on
  // row a.  A content-merged duplicate within one machine sums its
  // coefficients.
  plan->rho_.resize(machines.size());
  std::size_t t = 0;
  m = 0;
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b, ++m) {
      plan->rho_[m] = machines[m].rho();
      for (const double c : machines[m].coefficients()) {
        const Slot slot = slots[t++];
        const std::size_t r = slot.cls == a ? b - 1 : a;
        plan->coef_[r * rows + plan->block_[slot.cls] + slot.idx] += c;
      }
    }
  }

  auto& metrics = PlanMetrics::instance();
  metrics.unique_svs.set(static_cast<std::int64_t>(plan->unique_));
  metrics.total_svs.set(static_cast<std::int64_t>(plan->total_));
  metrics.dedup_ratio_x1000.set(
      static_cast<std::int64_t>(plan->dedup_ratio() * 1000.0));
  metrics.pool_bytes.set(static_cast<std::int64_t>(plan->pool_bytes()));
  metrics.builds.inc();
  return plan;
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
    const double* sums = scratch.sums.data() + q * classes_ * k1;
    double* dec = out + q * rho_.size();
    std::size_t m = 0;
    for (std::size_t a = 0; a < classes_; ++a) {
      for (std::size_t b = a + 1; b < classes_; ++b, ++m) {
        dec[m] = sums[a * k1 + b - 1] + sums[b * k1 + a] - rho_[m];
      }
    }
  }
}

}  // namespace xdmodml::ml
