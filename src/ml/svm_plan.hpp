// Compiled SVM inference plan: a deduplicated, class-blocked support-
// vector pool with one register-tiled predict kernel.
//
// Serving is the traffic-facing hot path (the paper's §IV production
// goal pushes every Uncategorized/NA job through the 20-class RBF
// classifier), but the legacy `BinarySvm::decision_value` walks each
// machine's private support-vector copy with a scalar kernel call — a
// training row that supports many of the k(k−1)/2 one-vs-one machines
// has K(x, row) recomputed once per machine on every query.
//
// The plan stores the model in LIBSVM's layout (Chang & Lin 2011):
//  * all machines' support vectors are merged into ONE pool of unique
//    (class, row) pairs — keyed on full-matrix row provenance
//    (`sv_full_rows_`) when every machine carries it, content (bit-exact
//    row bytes) otherwise — ordered by class, so class c's SVs are one
//    contiguous block;
//  * the coefficients form one dense (k−1) × nSV matrix, so machine
//    (a, b) is two contiguous dots: row b−1 over block a plus row a
//    over block b, with no index gathers;
//  * prediction is `simd::svm_block_sums` (util/simd.hpp): per class
//    block, kernel rows for up to four queries at a time, then that
//    block's coefficient sums across the same queries.  A single query
//    is the batch of one, and each query's arithmetic is independent of
//    the batch it rides in, so batch results equal single results
//    exactly.
//
// The legacy path remains runtime-selectable via XDMODML_SVM_PREDICT
// (see SvmPredictMode below) and is bit-identical to its pre-plan
// behaviour — it is the differential arm the tier1-infer tests and
// bench_svm_infer compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ml/svm.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {

/// Prediction-path selector.  kCompiled (default) routes SvmClassifier
/// prediction through the shared-pool plan; kLegacy keeps the original
/// per-machine scalar kernel walk (differential / ablation arm).
enum class SvmPredictMode { kLegacy, kCompiled };

/// The active mode.  Selected once on first use from the
/// XDMODML_SVM_PREDICT environment variable ("legacy" / "compiled";
/// anything else, or unset, means compiled).
SvmPredictMode svm_predict_mode();

/// Forces the mode (A/B testing, the differential test suite).
void set_svm_predict_mode(SvmPredictMode mode);

/// "legacy" / "compiled".
std::string_view svm_predict_mode_name(SvmPredictMode mode);

/// Parses an XDMODML_SVM_PREDICT value; nullopt for anything
/// unrecognized.  Exposed for tests.
std::optional<SvmPredictMode> svm_predict_mode_from_string(
    std::string_view name);

/// Immutable compiled inference plan over a set of trained one-vs-one
/// machines.  Build once (SvmClassifier does so after fit, or lazily and
/// thread-safely after load), then share freely: every method is const
/// and touches no mutable state.
class SvmInferencePlan {
 public:
  /// Queries per decision_values call.  Each call reads every class
  /// block from memory once, so larger calls amortize that read over
  /// more queries; this bounds the scratch.
  static constexpr std::size_t kMaxBatch = 32;

  /// Caller-owned per-thread scratch for decision_values, reused
  /// across calls (sized on first use).
  struct Scratch {
    std::vector<double> krow;
    std::vector<double> sums;
  };

  /// Merges the machines' support vectors into the class-blocked pool.
  /// `machines` are the k(k−1)/2 one-vs-one machines of `num_classes`
  /// classes in lexicographic (a, b) order; an SV with a positive
  /// coefficient belongs to class a, otherwise to class b.  Keyed on
  /// sv_full_rows() provenance when every machine carries it, content
  /// hash with bit-exact verification otherwise — always per class.
  /// Updates the svm.plan.* gauges.
  static std::shared_ptr<const SvmInferencePlan> build(
      std::span<const BinarySvm> machines, int num_classes);

  std::size_t unique_support_vectors() const { return unique_; }
  std::size_t total_support_vectors() const { return total_; }
  /// total / unique — how many machines the average pool row serves.
  double dedup_ratio() const;
  std::size_t dims() const { return dims_; }
  bool provenance_keyed() const { return provenance_; }
  /// Bytes of pool storage (panels, block padding included).
  std::size_t pool_bytes() const { return panels_.size() * sizeof(double); }
  const Kernel& kernel() const { return kernel_; }
  std::size_t num_machines() const { return rho_.size(); }
  /// Unique SVs of class c (its pool block, padding excluded).
  std::size_t class_support_vectors(std::size_t c) const {
    return class_rows_[c];
  }

  /// out[j] = k(x, pool_j) for j in [0, unique_support_vectors()), pool
  /// rows in class-block order.  out.size() must be >= the pool size.
  void kernel_row(std::span<const double> x, std::span<double> out) const;

  /// Decision values of every machine, lexicographic (a, b) order, for
  /// nq ≤ kMaxBatch row-major queries of dims() doubles:
  /// out[q · num_machines() + m].  Each query's values do not depend on
  /// nq or on its position in the call.
  void decision_values(const double* queries, std::size_t nq,
                       Scratch& scratch, double* out) const;

 private:
  SvmInferencePlan() = default;
  simd::SvmBlocks blocks() const;

  Kernel kernel_;
  simd::KernelForm form_ = simd::KernelForm::kRbf;
  std::uint64_t degree_int_ = 0;
  bool provenance_ = false;
  std::size_t classes_ = 0;
  std::size_t dims_ = 0;
  std::size_t unique_ = 0;
  std::size_t total_ = 0;
  std::size_t rows_ = 0;              ///< pool rows, block padding included
  std::vector<std::size_t> block_;    ///< classes_ + 1 row offsets
  std::vector<std::size_t> class_rows_;  ///< unique SVs per class
  std::vector<double> panels_;        ///< 4-row feature-major panels
  std::vector<double> sq_norms_;      ///< ‖pool_j‖²
  std::vector<double> coef_;          ///< (classes_ − 1) × rows_
  std::vector<double> rho_;           ///< per machine
};

}  // namespace xdmodml::ml
