// The one-vs-one SVM model: a deduplicated, class-blocked support-vector
// pool with one register-tiled predict kernel.
//
// Serving is the traffic-facing hot path (the paper's §IV production
// goal pushes every Uncategorized/NA job through the 20-class RBF
// classifier).  A training row that supports many of the k(k−1)/2
// one-vs-one machines would have K(x, row) recomputed once per machine
// if each machine kept its own support vectors.
//
// The plan stores the model in LIBSVM's layout (Chang & Lin 2011), and
// it is the only representation an `SvmClassifier` holds after fit:
//  * all machines' support vectors are merged into ONE pool of unique
//    (class, row) pairs — keyed on full-matrix row provenance
//    (`BinarySvm::sv_full_rows()`) when every machine carries it,
//    content (bit-exact row bytes) otherwise — ordered by class, so
//    class c's SVs are one contiguous block;
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
// `save`/`load` write and read this layout directly (the plan section of
// an `svm-ovo-v2` stream, see ml/model_io.hpp); every way a plan comes
// into being — fit, v2 load, v1 conversion — ends in the same validating
// assembly step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "ml/svm.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {

namespace io {
class TokenReader;
}

/// Immutable compiled one-vs-one model.  Built once (by fit, or by
/// load), then shared freely: every method is const and touches no
/// mutable state.
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
  /// sv_full_rows() provenance when every machine carries it (the plan
  /// then keeps each pool row's provenance for decision_values_cached),
  /// content hash with bit-exact verification otherwise — always per
  /// class.  Throws InvalidArgument on a model that fails the load
  /// invariants (see load).  Updates the svm.plan.* gauges.
  static std::shared_ptr<const SvmInferencePlan> build(
      std::span<const BinarySvm> machines, int num_classes);

  /// Writes the plan section of an svm-ovo-v2 stream: kernel, dims,
  /// pre-dedup SV count, per-class row counts, each unique pool row
  /// once (unpadded, class order), the (k−1) × nSV coefficients and ρ
  /// per machine.  Provenance is not written.
  void save(std::ostream& out) const;

  /// Reads what save wrote for a `num_classes`-class model.  Throws
  /// InvalidArgument unless the kernel is valid (γ > 0 for RBF and
  /// polynomial, degree > 0 for polynomial), every pool entry,
  /// coefficient and ρ is finite, the per-class row counts sum to the
  /// pool rows and match the coefficient width, and there are
  /// k(k−1)/2 machines.
  static std::shared_ptr<const SvmInferencePlan> load(io::TokenReader& reader,
                                                      int num_classes);

  std::size_t unique_support_vectors() const { return unique_; }
  /// Machine-local support vectors before dedup.
  std::size_t total_support_vectors() const { return total_; }
  /// total / unique — how many machines the average pool row serves.
  double dedup_ratio() const;
  std::size_t dims() const { return dims_; }
  std::size_t num_classes() const { return classes_; }
  /// True when every pool row carries its full-matrix provenance (a
  /// model fitted through a SharedGramCache; never after a v2 load).
  bool provenance_keyed() const { return !full_rows_.empty(); }
  /// Bytes of pool storage (panels, block padding included).
  std::size_t pool_bytes() const { return panels_.size() * sizeof(double); }
  const Kernel& kernel() const { return kernel_; }
  std::size_t num_machines() const { return rho_.size(); }
  /// Unique SVs of class c (its pool block, padding excluded).
  std::size_t class_support_vectors(std::size_t c) const {
    return class_rows_[c];
  }
  /// ρ per machine, lexicographic (a, b) order.
  std::span<const double> rho() const { return rho_; }
  /// The (k−1) × pool-rows coefficient matrix (α·y), row-major, class
  /// blocks padded to whole 4-row panels with zeros.
  std::span<const double> coefficients() const { return coef_; }

  /// out[j] = k(x, pool_j) for j in [0, unique_support_vectors()), pool
  /// rows in class-block order.  out.size() must be >= the pool size.
  void kernel_row(std::span<const double> x, std::span<double> out) const;

  /// Decision values of every machine, lexicographic (a, b) order, for
  /// nq ≤ kMaxBatch row-major queries of dims() doubles:
  /// out[q · num_machines() + m].  Each query's values do not depend on
  /// nq or on its position in the call.
  void decision_values(const double* queries, std::size_t nq,
                       Scratch& scratch, double* out) const;

  /// Decision values of every machine for a probe that is itself row
  /// `full_row` of `cache`'s matrix: the pool's kernel values are
  /// gathered from the probe's cached Gram row at the pool rows'
  /// provenance, so no kernel evaluation happens here.  Requires
  /// provenance_keyed() and a fit through that same cache.
  void decision_values_cached(SharedGramCache& cache, std::size_t full_row,
                              Scratch& scratch, double* out) const;

 private:
  SvmInferencePlan() = default;

  /// Lays out and validates a plan from unpadded parts: `pool` is the
  /// unique rows in class order (class_rows[c] rows of class c), `coef`
  /// the (k−1) × unique coefficients, `full_rows` each pool row's
  /// provenance or empty.  Every constructor path ends here.
  static std::shared_ptr<const SvmInferencePlan> assemble(
      Kernel kernel, std::size_t classes, std::size_t dims,
      std::size_t total, std::vector<std::size_t> class_rows,
      std::span<const double> pool, std::span<const double> coef,
      std::vector<double> rho, std::vector<std::size_t> full_rows);

  simd::SvmBlocks blocks() const;
  /// dec[m] = block sums of the two classes of machine m − ρ_m, from
  /// per-class sums laid out as sums[c · (k−1) + r].
  void combine(const double* sums, double* dec) const;

  Kernel kernel_;
  simd::KernelForm form_ = simd::KernelForm::kRbf;
  std::uint64_t degree_int_ = 0;
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
  /// Full-matrix row per unique pool row (class order, unpadded), kept
  /// in memory only; empty when the plan was not keyed on provenance.
  std::vector<std::size_t> full_rows_;
};

}  // namespace xdmodml::ml
