// Support vector machines: binary C-SVC, one-vs-one multiclass with
// probability outputs, and ε-SVR — functional equivalents of the R e1071
// (LIBSVM) models the paper uses with γ = 0.1, C = 1000.
//
// Probability machinery follows LIBSVM:
//  * per-binary-machine Platt scaling, with the sigmoid fit by the
//    Lin–Weng Newton iteration on cross-validated decision values;
//  * multiclass probabilities by pairwise coupling (Wu, Lin & Weng 2004,
//    the `multiclass_probability` fixed-point iteration).
// These probabilities drive every threshold figure in the paper (1–4).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/kernel.hpp"
#include "ml/smo.hpp"
#include "util/matrix.hpp"

namespace xdmodml::ml {

/// Shared SVM hyper-parameters (paper defaults).
struct SvmConfig {
  Kernel kernel = Kernel::rbf(0.1);
  double c = 1000.0;            ///< soft-margin penalty
  /// Optional per-class multipliers on C (size = num_classes).  The
  /// paper suggests class weighting to counter the native mix's
  /// imbalance ("could possibly be ameliorated by weighting the
  /// classes"); rare classes get larger effective C.
  std::vector<double> class_weights;
  SmoConfig smo;                ///< solver knobs
  bool probability = true;      ///< fit Platt sigmoids (needed for Figs 1–4)
  std::size_t platt_cv_folds = 3;  ///< CV folds for calibration values
  bool parallel = true;         ///< train OvO machines on the thread pool
  double epsilon = 0.1;         ///< ε-SVR tube half-width
  /// Memory budget for the per-fit shared kernel-row cache that all
  /// one-vs-one machines of an SvmClassifier fit slice their rows from
  /// (bytes of row storage).
  std::size_t shared_cache_bytes = 256ull << 20;
  /// Storage precision of the shared cache's rows.  Float32 (default)
  /// doubles the rows the byte budget affords and halves reuse
  /// bandwidth; float64 is the exact ablation arm (run-time flag).
  GramPrecision cache_precision = GramPrecision::kFloat32;
};

/// Parameters of a fitted Platt sigmoid  P(+1|f) = 1/(1+exp(A f + B)).
struct PlattSigmoid {
  double a = 0.0;
  double b = 0.0;

  double probability(double decision_value) const;
};

/// Fits the Platt sigmoid by the Lin–Weng regularized Newton method.
/// `decision_values` and `labels` (±1) must be parallel and non-empty.
PlattSigmoid fit_platt_sigmoid(std::span<const double> decision_values,
                               std::span<const signed char> labels);

/// Caller-owned working storage for couple_pairwise_probabilities,
/// reused across calls so serving allocates nothing per query.
struct CouplingScratch {
  std::vector<double> q;
  std::vector<double> qp;
};

/// Pairwise coupling of one-vs-one probabilities into class probabilities
/// (Wu–Lin–Weng).  `pairwise` is k × k row-major; entry (i, j), i ≠ j, is
/// P(class i | {i, j}, x).  Writes the k class probabilities to `p`.
void couple_pairwise_probabilities(std::span<const double> pairwise,
                                   std::size_t k, CouplingScratch& scratch,
                                   std::span<double> p);

/// Allocating form of the above (same arithmetic, same bits).
std::vector<double> couple_pairwise_probabilities(const Matrix& pairwise);

/// A single two-class soft-margin SVM.
class BinarySvm {
 public:
  /// Trains on rows of X with ±1 labels.  When `config.probability` is
  /// set, also fits a Platt sigmoid on cross-validated decision values.
  /// `c_positive` / `c_negative` scale C for the two classes (class
  /// weighting); 1.0 = unweighted.
  ///
  /// `shared_cache` (optional) is a kernel-row cache over a *full*
  /// training matrix of which X is a row subset; `shared_rows[i]` is the
  /// full-matrix row backing X's row i.  When provided, kernel rows are
  /// sliced out of the shared cache instead of being recomputed over the
  /// subset — the multiclass one-vs-one trainer passes one cache to all
  /// of its machines.  Without one, a GramRowEngine over X fills them.
  void fit(const Matrix& X, std::span<const signed char> y,
           const SvmConfig& config, std::uint64_t seed = 1,
           double c_positive = 1.0, double c_negative = 1.0,
           SharedGramCache* shared_cache = nullptr,
           std::span<const std::size_t> shared_rows = {});

  /// Signed decision value f(x) = Σ coef_i k(sv_i, x) − rho.
  double decision_value(std::span<const double> x) const;

  /// P(label = +1 | x) via the Platt sigmoid (requires probability fit).
  double probability_positive(std::span<const double> x) const;

  bool has_probability() const { return has_platt_; }
  std::size_t num_support_vectors() const { return support_vectors_.rows(); }
  /// The gathered support-vector rows (inference-plan pool building).
  const Matrix& support_vectors() const { return support_vectors_; }
  /// Full-matrix row provenance per SV when fitted via a shared cache
  /// or loaded from a binary-svm-v2 stream; empty otherwise.  Parallel
  /// to the SV rows when present.
  std::span<const std::size_t> sv_full_rows() const { return sv_full_rows_; }
  const Kernel& kernel() const { return kernel_; }
  double rho() const { return rho_; }
  /// alpha_i * y_i per support vector (|coef_i| = alpha_i); exposed for
  /// the float-vs-double equivalence tests.
  std::span<const double> coefficients() const { return coef_; }
  const PlattSigmoid& sigmoid() const;

  /// decision_value for a probe that is itself a row of the shared
  /// cache's full matrix: every k(sv, probe) is an entry of the probe's
  /// cached Gram row, so no kernel evaluation happens here.  Only valid
  /// when this machine was fitted through the same cache.  Used by the
  /// Platt CV folds (their held-out rows live in the same full matrix).
  double decision_value_cached(SharedGramCache& cache,
                               std::size_t full_row) const;

  /// Reads one binary-svm-v1/v2 machine (the per-machine format of
  /// svm-ovo-v1 streams, which SvmClassifier::load converts).
  static BinarySvm load(std::istream& in);

 private:
  void fit_decision(const Matrix& X, std::span<const signed char> y,
                    const SvmConfig& config, double c_positive,
                    double c_negative, SharedGramCache* shared_cache,
                    std::span<const std::size_t> shared_rows);

  Kernel kernel_;
  Matrix support_vectors_;
  std::vector<double> coef_;  ///< alpha_i * y_i, aligned with SV rows
  /// Full-matrix row index of each SV when fitted via a shared cache
  /// (empty otherwise); enables decision_value_cached.
  std::vector<std::size_t> sv_full_rows_;
  double rho_ = 0.0;
  PlattSigmoid platt_;
  bool has_platt_ = false;
  bool trained_ = false;
};

class SvmInferencePlan;  // ml/svm_plan.hpp

/// Trains the k(k−1)/2 one-vs-one machines of a multiclass fit, in
/// lexicographic (a, b) order.  Every machine slices its kernel rows out
/// of one SharedGramCache: `cache` when given (see
/// SvmClassifier::fit_shared for the contract), else a per-call cache
/// over X.  These are the temporaries SvmClassifier compiles into its
/// inference plan; exposed so tests can run a reference predictor over
/// the very machines the plan was built from.
std::vector<BinarySvm> fit_one_vs_one(
    const Matrix& X, std::span<const int> y, int num_classes,
    const SvmConfig& config, std::uint64_t seed,
    SharedGramCache* cache = nullptr,
    std::span<const std::size_t> cache_rows = {});

/// One-vs-one multiclass SVM with coupled probability outputs.
///
/// After fit (or load) the model is one immutable SvmInferencePlan — a
/// deduplicated, class-blocked support-vector pool swept by one SIMD
/// kernel, shared by all machines — plus one Platt sigmoid per machine.
/// Copies share the plan.
class SvmClassifier final : public Classifier {
 public:
  explicit SvmClassifier(SvmConfig config = {}, std::uint64_t seed = 11);

  void fit(const Matrix& X, std::span<const int> y, int num_classes) override;

  /// Trains against an *external* full-matrix kernel-row cache.  X must
  /// be a row subset of the cache's backing matrix and `cache_rows[i]`
  /// the full-matrix row behind X's row i; the kernel must match
  /// `config.kernel`.  This is the cross-fit reuse hook: a tuning sweep
  /// builds one SharedGramCache per γ over the standardized full dataset
  /// and every CV fold of every C cell slices rows out of it, exactly
  /// the way one-vs-one machines already share the per-fit cache.  With
  /// `cache == nullptr` this is identical to fit().
  void fit_shared(const Matrix& X, std::span<const int> y, int num_classes,
                  SharedGramCache* cache,
                  std::span<const std::size_t> cache_rows);

  /// With probability fitting: pairwise-coupled class probabilities.
  /// Without: normalized vote fractions (ablation arm).
  std::vector<double> predict_proba(std::span<const double> x) const override;

  /// Predicted label.  In probability mode this is the argmax of the
  /// pairwise-coupled probability vector, so the label always agrees
  /// with `predict_proba` / `predict_with_probability` and a threshold
  /// on the top-class probability gates the *reported* class (the
  /// paper's Figures 1–4 workflow).  Without probability fitting the
  /// label comes from hard one-vs-one votes, ties resolving to the
  /// lowest class index.
  ///
  /// Note this deliberately differs from LIBSVM/e1071, which keep the
  /// vote label even when probabilities are fitted and can therefore
  /// report a label that disagrees with the probability argmax; that
  /// inconsistency is exactly the bug the threshold workflow tripped
  /// over.  The vote rule remains available via `predict_by_votes`.
  int predict(std::span<const double> x) const override;

  /// Hard one-vs-one vote label (LIBSVM's rule), independent of
  /// probability fitting.  Ties resolve to the lowest class index.
  int predict_by_votes(std::span<const double> x) const;

  /// Predicts probes that are themselves rows of `cache`'s full matrix,
  /// given by full-matrix row index.  Every k(sv, probe) the plan needs
  /// is an entry of the probe's cached Gram row, so no kernel
  /// evaluations happen here — a tuning sweep's CV test folds reuse the
  /// very rows training filled.  Only valid after `fit_shared` through
  /// the same cache; follows `predict`'s labelling rule.
  std::vector<int> predict_shared(SharedGramCache& cache,
                                  std::span<const std::size_t> rows) const;

  /// Label + probability; the label is the argmax of `predict_proba`
  /// (coupled probabilities, or vote fractions without a Platt fit) and
  /// the probability is that same class's entry, so the pair is always
  /// self-consistent.
  Prediction predict_with_probability(
      std::span<const double> x) const override;

  /// Batch entry points: chunks of rows go through the plan's kernel on
  /// the thread pool (one pool read serves every query of a call).
  /// Results equal the single-row calls bit for bit — a single row is
  /// the batch of one.
  std::vector<int> predict_batch(const Matrix& X) const override;
  std::vector<std::vector<double>> predict_proba_batch(
      const Matrix& X) const override;
  std::vector<Prediction> predict_batch_with_probability(
      const Matrix& X) const override;

  /// The compiled model.  Requires a trained (or loaded) classifier.
  const SvmInferencePlan& inference_plan() const;

  int num_classes() const override { return num_classes_; }
  std::size_t num_machines() const;
  /// Machine-local support vectors summed over machines (before dedup).
  std::size_t total_support_vectors() const;

  /// Serialization: writes an svm-ovo-v2 stream; load reads v2, and
  /// converts svm-ovo-v1 (per-machine) streams into the same plan.
  void save(std::ostream& out) const;
  static SvmClassifier load(std::istream& in);

 private:
  /// Runs the n row-major `queries` through the plan, kMaxBatch per
  /// kernel call, and calls emit(i, scores) with query i's k class
  /// scores — coupled probabilities, or vote fractions without Platt —
  /// valid during the call only.  Defined in svm.cpp, its only user.
  template <typename Emit>
  void predict_compiled(const double* queries, std::size_t n,
                        const Emit& emit) const;

  SvmConfig config_;
  std::uint64_t seed_;
  int num_classes_ = 0;
  std::shared_ptr<const SvmInferencePlan> plan_;
  /// One per machine, lexicographic (a, b) order; empty without
  /// probability fitting.
  std::vector<PlattSigmoid> sigmoids_;
};

/// ε-support-vector regression (doubled-variable SMO, as in LIBSVM).
class SvmRegressor final : public Regressor {
 public:
  explicit SvmRegressor(SvmConfig config = {});

  void fit(const Matrix& X, std::span<const double> y) override;
  double predict(std::span<const double> x) const override;

  std::size_t num_support_vectors() const { return support_vectors_.rows(); }

  /// Serialization of a trained regressor.
  void save(std::ostream& out) const;
  static SvmRegressor load(std::istream& in);

 private:
  SvmConfig config_;
  Kernel kernel_;
  Matrix support_vectors_;
  std::vector<double> coef_;
  double rho_ = 0.0;
  bool trained_ = false;
};

}  // namespace xdmodml::ml
