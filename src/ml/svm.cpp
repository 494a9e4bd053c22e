#include "ml/svm.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>

#include "ml/model_io.hpp"
#include "ml/svm_plan.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace xdmodml::ml {

double PlattSigmoid::probability(double decision_value) const {
  // Numerically stable logistic evaluation.
  const double f = a * decision_value + b;
  if (f >= 0.0) {
    const double e = std::exp(-f);
    return e / (1.0 + e);
  }
  return 1.0 / (1.0 + std::exp(f));
}

PlattSigmoid fit_platt_sigmoid(std::span<const double> decision_values,
                               std::span<const signed char> labels) {
  XDMODML_CHECK(decision_values.size() == labels.size() &&
                    !decision_values.empty(),
                "Platt fit requires parallel non-empty inputs");
  const std::size_t n = decision_values.size();

  // Lin, Lin & Weng (2007) Algorithm 1.
  double prior1 = 0.0;
  double prior0 = 0.0;
  for (const auto y : labels) (y > 0 ? prior1 : prior0) += 1.0;

  const double hi_target = (prior1 + 1.0) / (prior1 + 2.0);
  const double lo_target = 1.0 / (prior0 + 2.0);
  std::vector<double> t(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = labels[i] > 0 ? hi_target : lo_target;
  }

  double a = 0.0;
  double b = std::log((prior0 + 1.0) / (prior1 + 1.0));
  constexpr int kMaxIter = 100;
  constexpr double kMinStep = 1e-10;
  constexpr double kSigma = 1e-12;
  constexpr double kEps = 1e-5;

  auto objective = [&](double aa, double bb) {
    double obj = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double f = decision_values[i] * aa + bb;
      if (f >= 0.0) {
        obj += t[i] * f + std::log1p(std::exp(-f));
      } else {
        obj += (t[i] - 1.0) * f + std::log1p(std::exp(f));
      }
    }
    return obj;
  };

  double fval = objective(a, b);
  for (int iter = 0; iter < kMaxIter; ++iter) {
    // Gradient and Hessian.
    double h11 = kSigma;
    double h22 = kSigma;
    double h21 = 0.0;
    double g1 = 0.0;
    double g2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double f = decision_values[i] * a + b;
      double p = 0.0;
      double q = 0.0;
      if (f >= 0.0) {
        const double e = std::exp(-f);
        p = e / (1.0 + e);
        q = 1.0 / (1.0 + e);
      } else {
        const double e = std::exp(f);
        p = 1.0 / (1.0 + e);
        q = e / (1.0 + e);
      }
      const double d2 = p * q;
      h11 += decision_values[i] * decision_values[i] * d2;
      h22 += d2;
      h21 += decision_values[i] * d2;
      const double d1 = t[i] - p;
      g1 += decision_values[i] * d1;
      g2 += d1;
    }
    if (std::abs(g1) < kEps && std::abs(g2) < kEps) break;

    // Newton direction with backtracking line search.
    const double det = h11 * h22 - h21 * h21;
    const double da = -(h22 * g1 - h21 * g2) / det;
    const double db = -(-h21 * g1 + h11 * g2) / det;
    const double gd = g1 * da + g2 * db;
    double step = 1.0;
    while (step >= kMinStep) {
      const double new_a = a + step * da;
      const double new_b = b + step * db;
      const double new_f = objective(new_a, new_b);
      if (new_f < fval + 1e-4 * step * gd) {
        a = new_a;
        b = new_b;
        fval = new_f;
        break;
      }
      step *= 0.5;
    }
    if (step < kMinStep) break;  // line search failed
  }
  return PlattSigmoid{a, b};
}

void couple_pairwise_probabilities(std::span<const double> pairwise,
                                   std::size_t k, CouplingScratch& scratch,
                                   std::span<double> p) {
  XDMODML_CHECK(k > 0 && pairwise.size() == k * k && p.size() == k,
                "pairwise matrix must be k x k");
  if (k == 1) {
    p[0] = 1.0;
    return;
  }
  const auto r = [&](std::size_t i, std::size_t j) {
    return pairwise[i * k + j];
  };

  // LIBSVM multiclass_probability (Wu–Lin–Weng method 2).
  // r(i, j) = P(i | i or j); r(j, i) = 1 - r(i, j).
  auto& q = scratch.q;
  auto& qp = scratch.qp;
  q.assign(k * k, 0.0);
  qp.assign(k, 0.0);
  for (std::size_t t = 0; t < k; ++t) {
    for (std::size_t j = 0; j < k; ++j) {
      if (j == t) continue;
      q[t * k + t] += r(j, t) * r(j, t);
      q[t * k + j] = -r(j, t) * r(t, j);
    }
  }

  std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(k));
  const std::size_t max_iter = std::max<std::size_t>(100, k);
  constexpr double kEps = 0.005 / 100.0;
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    double pqp = 0.0;
    for (std::size_t t = 0; t < k; ++t) {
      qp[t] = 0.0;
      for (std::size_t j = 0; j < k; ++j) qp[t] += q[t * k + j] * p[j];
      pqp += p[t] * qp[t];
    }
    double max_error = 0.0;
    for (std::size_t t = 0; t < k; ++t) {
      max_error = std::max(max_error, std::abs(qp[t] - pqp));
    }
    if (max_error < kEps) break;
    for (std::size_t t = 0; t < k; ++t) {
      const double diff = (-qp[t] + pqp) / q[t * k + t];
      p[t] += diff;
      pqp = (pqp + diff * (diff * q[t * k + t] + 2.0 * qp[t])) /
            ((1.0 + diff) * (1.0 + diff));
      for (std::size_t j = 0; j < k; ++j) {
        qp[j] = (qp[j] + diff * q[t * k + j]) / (1.0 + diff);
        p[j] /= (1.0 + diff);
      }
    }
  }
  // Clean up round-off and renormalize.
  double total = 0.0;
  for (auto& v : p) {
    v = std::max(0.0, v);
    total += v;
  }
  if (total <= 0.0) {
    std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(k));
  } else {
    for (auto& v : p) v /= total;
  }
}

std::vector<double> couple_pairwise_probabilities(const Matrix& pairwise) {
  const std::size_t k = pairwise.rows();
  XDMODML_CHECK(k > 0 && pairwise.cols() == k,
                "pairwise matrix must be square");
  CouplingScratch scratch;
  std::vector<double> p(k);
  couple_pairwise_probabilities(pairwise.data(), k, scratch, p);
  return p;
}

void BinarySvm::fit_decision(const Matrix& X, std::span<const signed char> y,
                             const SvmConfig& config, double c_positive,
                             double c_negative, SharedGramCache* shared_cache,
                             std::span<const std::size_t> shared_rows) {
  const std::size_t n = X.rows();
  std::vector<double> p(n, -1.0);
  std::vector<double> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = config.c * (y[i] > 0 ? c_positive : c_negative);
  }

  SmoProblem problem;
  problem.n = n;
  problem.p = p;
  problem.y = y;
  problem.c = c;
  std::optional<GramRowEngine> engine;
  if (shared_cache != nullptr) {
    // One-vs-one sub-problem: slice this pair's rows/columns out of the
    // shared full-matrix cache instead of recomputing the kernels over
    // the gathered subset.
    problem.kernel_row = [shared_cache, shared_rows](std::size_t i,
                                                     std::span<double> out) {
      const auto full = shared_cache->row(shared_rows[i]);
      full->gather(shared_rows, out.subspan(0, shared_rows.size()));
    };
    problem.kernel_diag = [shared_cache, shared_rows](std::size_t i) {
      return shared_cache->diagonal(shared_rows[i]);
    };
  } else {
    engine.emplace(X, config.kernel);
    problem.kernel_row = [&engine](std::size_t i, std::span<double> out) {
      engine->fill_row(i, out);
    };
    problem.kernel_diag = [&engine](std::size_t i) {
      return engine->diagonal(i);
    };
  }

  const SmoResult result = solve_smo(problem, config.smo);
  rho_ = result.rho;
  kernel_ = config.kernel;

  // Keep only the support vectors.
  std::vector<std::size_t> sv_rows;
  for (std::size_t i = 0; i < n; ++i) {
    if (result.alpha[i] > 0.0) sv_rows.push_back(i);
  }
  support_vectors_ = X.gather_rows(sv_rows);
  coef_.resize(sv_rows.size());
  for (std::size_t s = 0; s < sv_rows.size(); ++s) {
    coef_[s] = result.alpha[sv_rows[s]] *
               static_cast<double>(y[sv_rows[s]]);
  }
  sv_full_rows_.clear();
  if (shared_cache != nullptr) {
    sv_full_rows_.reserve(sv_rows.size());
    for (const auto r : sv_rows) sv_full_rows_.push_back(shared_rows[r]);
  }
  trained_ = true;
}

void BinarySvm::fit(const Matrix& X, std::span<const signed char> y,
                    const SvmConfig& config, std::uint64_t seed,
                    double c_positive, double c_negative,
                    SharedGramCache* shared_cache,
                    std::span<const std::size_t> shared_rows) {
  XDMODML_CHECK(c_positive > 0.0 && c_negative > 0.0,
                "class weights must be positive");
  XDMODML_CHECK(shared_cache == nullptr || shared_rows.size() == X.rows(),
                "shared_rows must map every row of X into the shared cache");
  XDMODML_CHECK(X.rows() == y.size() && X.rows() >= 2,
                "binary SVM needs at least two samples");
  bool has_pos = false;
  bool has_neg = false;
  for (const auto v : y) {
    XDMODML_CHECK(v == 1 || v == -1, "binary SVM labels must be ±1");
    (v > 0 ? has_pos : has_neg) = true;
  }
  XDMODML_CHECK(has_pos && has_neg, "binary SVM needs both classes");

  has_platt_ = false;
  if (config.probability) {
    // Cross-validated decision values keep the sigmoid honest: in-sample
    // decision values of a C=1000 RBF machine are nearly separable and
    // would produce a degenerate, overconfident sigmoid.
    const std::size_t folds =
        std::min<std::size_t>(std::max<std::size_t>(2, config.platt_cv_folds),
                              X.rows());
    Rng rng(seed);
    std::vector<std::size_t> order(X.rows());
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);

    std::vector<double> cv_decisions(X.rows(), 0.0);
    std::vector<signed char> cv_labels(X.rows(), 0);
    bool cv_ok = true;
    for (std::size_t f = 0; f < folds && cv_ok; ++f) {
      std::vector<std::size_t> train_rows;
      std::vector<std::size_t> test_rows;
      for (std::size_t i = 0; i < order.size(); ++i) {
        (i % folds == f ? test_rows : train_rows).push_back(order[i]);
      }
      std::vector<signed char> train_y;
      train_y.reserve(train_rows.size());
      bool fold_pos = false;
      bool fold_neg = false;
      for (const auto r : train_rows) {
        train_y.push_back(y[r]);
        (y[r] > 0 ? fold_pos : fold_neg) = true;
      }
      if (!fold_pos || !fold_neg || train_rows.size() < 2) {
        cv_ok = false;
        break;
      }
      BinarySvm fold_svm;
      SvmConfig fold_config = config;
      fold_config.probability = false;
      // Fold rows are a subset of a subset: compose the mapping so the
      // fold fit still slices rows out of the same shared cache.
      std::vector<std::size_t> fold_shared;
      if (shared_cache != nullptr) {
        fold_shared.reserve(train_rows.size());
        for (const auto r : train_rows) fold_shared.push_back(shared_rows[r]);
      }
      fold_svm.fit(X.gather_rows(train_rows), train_y, fold_config,
                   seed + f, c_positive, c_negative, shared_cache,
                   fold_shared);
      for (std::size_t i = 0; i < test_rows.size(); ++i) {
        const auto r = test_rows[i];
        // Held-out rows are rows of the shared cache's full matrix, so
        // their decision values are dot products against an already (or
        // soon-to-be) cached Gram row — no fresh kernel evaluations.
        cv_decisions[r] =
            shared_cache != nullptr
                ? fold_svm.decision_value_cached(*shared_cache,
                                                shared_rows[r])
                : fold_svm.decision_value(X.row(r));
        cv_labels[r] = y[r];
      }
    }
    if (cv_ok) {
      platt_ = fit_platt_sigmoid(cv_decisions, cv_labels);
      has_platt_ = true;
    }
  }

  fit_decision(X, y, config, c_positive, c_negative, shared_cache,
               shared_rows);

  if (config.probability && !has_platt_) {
    // CV degenerate (tiny class) — fall back to in-sample calibration.
    std::vector<double> decisions(X.rows());
    for (std::size_t i = 0; i < X.rows(); ++i) {
      decisions[i] = shared_cache != nullptr
                         ? decision_value_cached(*shared_cache,
                                                 shared_rows[i])
                         : decision_value(X.row(i));
    }
    platt_ = fit_platt_sigmoid(decisions, y);
    has_platt_ = true;
  }
}

double BinarySvm::decision_value(std::span<const double> x) const {
  XDMODML_CHECK(trained_, "decision_value before fit");
  double f = -rho_;
  for (std::size_t s = 0; s < support_vectors_.rows(); ++s) {
    f += coef_[s] * kernel_(support_vectors_.row(s), x);
  }
  return f;
}

double BinarySvm::decision_value_cached(SharedGramCache& cache,
                                        std::size_t full_row) const {
  XDMODML_CHECK(trained_, "decision_value before fit");
  XDMODML_CHECK(sv_full_rows_.size() == coef_.size(),
                "machine was not fitted through this shared cache");
  const auto row = cache.row(full_row);
  return row->dot_at(sv_full_rows_, coef_) - rho_;
}

double BinarySvm::probability_positive(std::span<const double> x) const {
  XDMODML_CHECK(has_platt_, "probability requested without Platt fit");
  return platt_.probability(decision_value(x));
}

const PlattSigmoid& BinarySvm::sigmoid() const {
  XDMODML_CHECK(has_platt_, "sigmoid unavailable");
  return platt_;
}

BinarySvm BinarySvm::load(std::istream& in) {
  io::TokenReader reader(in);
  const auto tag = reader.read_tag();
  XDMODML_CHECK(tag == "binary-svm-v1" || tag == "binary-svm-v2",
                "model stream: unknown binary SVM version '" + tag + "'");
  BinarySvm svm;
  const auto kernel_type = reader.read_int("kernel_type");
  XDMODML_CHECK(kernel_type >= 0 && kernel_type <= 2,
                "corrupt SVM kernel type");
  svm.kernel_.type = static_cast<Kernel::Type>(kernel_type);
  svm.kernel_.gamma = reader.read_double("gamma");
  svm.kernel_.degree = reader.read_double("degree");
  svm.kernel_.coef0 = reader.read_double("coef0");
  svm.rho_ = reader.read_double("rho");
  svm.has_platt_ = reader.read_int("has_platt") != 0;
  svm.platt_.a = reader.read_double("platt_a");
  svm.platt_.b = reader.read_double("platt_b");
  const auto svs = reader.read_int("svs");
  const auto dims = reader.read_int("dims");
  XDMODML_CHECK(svs > 0 && dims > 0, "corrupt SVM shape");
  svm.coef_ = reader.read_vector("coef");
  XDMODML_CHECK(svm.coef_.size() == static_cast<std::size_t>(svs),
                "corrupt SVM coefficient count");
  for (std::int64_t r = 0; r < svs; ++r) {
    const auto row = reader.read_vector("sv");
    XDMODML_CHECK(row.size() == static_cast<std::size_t>(dims),
                  "corrupt SVM support vector width");
    svm.support_vectors_.append_row(row);
  }
  if (tag == "binary-svm-v2") {
    svm.sv_full_rows_ = reader.read_index_vector("full_rows");
    XDMODML_CHECK(svm.sv_full_rows_.empty() ||
                      svm.sv_full_rows_.size() ==
                          static_cast<std::size_t>(svs),
                  "corrupt SVM provenance length");
  }
  svm.trained_ = true;
  return svm;
}

std::vector<BinarySvm> fit_one_vs_one(
    const Matrix& X, std::span<const int> y, int num_classes,
    const SvmConfig& config, std::uint64_t seed, SharedGramCache* cache,
    std::span<const std::size_t> cache_rows) {
  XDMODML_CHECK(X.rows() == y.size() && X.rows() > 0,
                "fit requires matching non-empty X and y");
  XDMODML_CHECK(num_classes >= 2, "multiclass SVM needs >= 2 classes");
  if (cache != nullptr) {
    XDMODML_CHECK(cache_rows.size() == X.rows(),
                  "cache_rows must map every row of X into the cache");
    const auto& k = cache->engine().kernel();
    XDMODML_CHECK(k.type == config.kernel.type &&
                      k.gamma == config.kernel.gamma &&
                      k.degree == config.kernel.degree &&
                      k.coef0 == config.kernel.coef0,
                  "external cache kernel must match the SVM kernel");
  }

  // Group rows by class once.
  std::vector<std::vector<std::size_t>> rows_by_class(
      static_cast<std::size_t>(num_classes));
  for (std::size_t i = 0; i < y.size(); ++i) {
    XDMODML_CHECK(y[i] >= 0 && y[i] < num_classes, "label out of range");
    rows_by_class[static_cast<std::size_t>(y[i])].push_back(i);
  }

  struct PairTask {
    int a;
    int b;
    std::uint64_t seed;
  };
  std::vector<PairTask> tasks;
  for (int a = 0; a < num_classes; ++a) {
    for (int b = a + 1; b < num_classes; ++b) {
      tasks.push_back({a, b, 0});
    }
  }
  Rng root(seed);
  for (auto& task : tasks) task.seed = root();

  // One norm vector + kernel-row cache over the full training matrix,
  // shared by every one-vs-one sub-problem (and their Platt CV folds):
  // each Gram row is computed once, vectorized, and sliced by the up to
  // k−1 machines whose subsets contain that sample.  The capacity is
  // clamped to a byte budget so huge fits degrade to LRU reuse instead
  // of materialising an n² matrix.  A caller-provided cache (the tuning
  // sweep's per-γ cache over the full standardized dataset) takes the
  // place of the per-fit one and amortizes rows across fits too.
  std::unique_ptr<SharedGramCache> owned;
  SharedGramCache* shared = cache;
  if (shared == nullptr) {
    const std::size_t budget_rows = SharedGramCache::rows_for_budget(
        X.rows(), config.shared_cache_bytes, config.cache_precision);
    owned = std::make_unique<SharedGramCache>(
        X, config.kernel, std::min(budget_rows, X.rows()),
        config.cache_precision);
    shared = owned.get();
  }

  std::vector<BinarySvm> machines(tasks.size());
  auto train_pair = [&](std::size_t idx) {
    const auto& task = tasks[idx];
    const auto& rows_a = rows_by_class[static_cast<std::size_t>(task.a)];
    const auto& rows_b = rows_by_class[static_cast<std::size_t>(task.b)];
    XDMODML_CHECK(!rows_a.empty() && !rows_b.empty(),
                  "one-vs-one training requires samples in every class");
    std::vector<std::size_t> rows;
    rows.reserve(rows_a.size() + rows_b.size());
    rows.insert(rows.end(), rows_a.begin(), rows_a.end());
    rows.insert(rows.end(), rows_b.begin(), rows_b.end());
    std::vector<signed char> labels(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      labels[i] = i < rows_a.size() ? 1 : -1;
    }
    double c_pos = 1.0;
    double c_neg = 1.0;
    if (!config.class_weights.empty()) {
      XDMODML_CHECK(config.class_weights.size() ==
                        static_cast<std::size_t>(num_classes),
                    "class_weights must have one entry per class");
      c_pos = config.class_weights[static_cast<std::size_t>(task.a)];
      c_neg = config.class_weights[static_cast<std::size_t>(task.b)];
    }
    // With an external cache, X is itself a subset of the cache's
    // matrix: compose the pair's rows through cache_rows so machines
    // slice the right full-matrix rows, while the gather stays in
    // X-space.
    std::vector<std::size_t> full_rows;
    if (cache != nullptr) {
      full_rows.reserve(rows.size());
      for (const auto r : rows) full_rows.push_back(cache_rows[r]);
    }
    machines[idx].fit(X.gather_rows(rows), labels, config, task.seed, c_pos,
                      c_neg, shared, cache != nullptr ? full_rows : rows);
  };
  if (config.parallel) {
    ThreadPool::global().parallel_for(0, tasks.size(), train_pair);
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i) train_pair(i);
  }
  return machines;
}

SvmClassifier::SvmClassifier(SvmConfig config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {}

const SvmInferencePlan& SvmClassifier::inference_plan() const {
  XDMODML_CHECK(plan_ != nullptr, "predict before fit");
  return *plan_;
}

std::size_t SvmClassifier::num_machines() const {
  return plan_ == nullptr ? 0 : plan_->num_machines();
}

std::size_t SvmClassifier::total_support_vectors() const {
  return plan_ == nullptr ? 0 : plan_->total_support_vectors();
}

void SvmClassifier::fit(const Matrix& X, std::span<const int> y,
                        int num_classes) {
  fit_shared(X, y, num_classes, nullptr, {});
}

void SvmClassifier::fit_shared(const Matrix& X, std::span<const int> y,
                               int num_classes, SharedGramCache* cache,
                               std::span<const std::size_t> cache_rows) {
  // The machines are temporaries: the plan and their sigmoids are the
  // whole fitted model.
  const auto machines =
      fit_one_vs_one(X, y, num_classes, config_, seed_, cache, cache_rows);
  std::vector<PlattSigmoid> sigmoids;
  if (config_.probability) {
    for (const auto& m : machines) sigmoids.push_back(m.sigmoid());
  }
  plan_ = SvmInferencePlan::build(machines, num_classes);
  sigmoids_ = std::move(sigmoids);
  num_classes_ = num_classes;
}

namespace {

/// Per-thread serving scratch, reused across every query the thread
/// predicts: the compiled path allocates only on a thread's first use.
struct PredictWorkspace {
  SvmInferencePlan::Scratch plan;
  std::vector<double> decisions;  ///< kMaxBatch × machines
  std::vector<double> pairwise;   ///< k × k
  std::vector<double> scores;     ///< k
  CouplingScratch coupling;
};

/// The calling thread's workspace (one per thread, not per caller).
PredictWorkspace& workspace() {
  thread_local PredictWorkspace ws;
  return ws;
}

/// Argmax (first maximum, so ties go to the lowest class) + its score.
Prediction top_class(std::span<const double> scores) {
  const auto it = std::max_element(scores.begin(), scores.end());
  return {static_cast<int>(it - scores.begin()), *it};
}

/// One query's k class scores from its k(k−1)/2 decision values, into
/// ws.scores: coupled probabilities when `sigmoids` is non-empty, else
/// vote fractions (whose argmax is the hard-vote label, ties to the
/// lowest class).
void class_scores(const double* dec, std::size_t k,
                  std::span<const PlattSigmoid> sigmoids,
                  PredictWorkspace& ws) {
  ws.pairwise.resize(k * k);
  ws.scores.resize(k);
  std::size_t m = 0;
  if (!sigmoids.empty()) {
    // Platt probabilities clipped away from {0, 1} (as LIBSVM does, to
    // keep the coupling well-posed), then pairwise coupling.
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b, ++m) {
        double r = sigmoids[m].probability(dec[m]);
        r = std::min(std::max(r, 1e-7), 1.0 - 1e-7);
        ws.pairwise[a * k + b] = r;
        ws.pairwise[b * k + a] = 1.0 - r;
      }
    }
    couple_pairwise_probabilities(ws.pairwise, k, ws.coupling, ws.scores);
    return;
  }
  std::fill(ws.scores.begin(), ws.scores.end(), 0.0);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b, ++m) {
      ++ws.scores[dec[m] > 0.0 ? a : b];
    }
  }
  for (auto& v : ws.scores) v /= static_cast<double>(m);
}

}  // namespace

template <typename Emit>
void SvmClassifier::predict_compiled(const double* queries, std::size_t n,
                                     const Emit& emit) const {
  PredictWorkspace& ws = workspace();
  const auto& plan = inference_plan();
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::size_t machines = plan.num_machines();
  const std::size_t step = SvmInferencePlan::kMaxBatch;
  ws.decisions.resize(step * machines);
  for (std::size_t q0 = 0; q0 < n; q0 += step) {
    const std::size_t nq = std::min(step, n - q0);
    plan.decision_values(queries + q0 * plan.dims(), nq, ws.plan,
                         ws.decisions.data());
    for (std::size_t i = 0; i < nq; ++i) {
      class_scores(ws.decisions.data() + i * machines, k, sigmoids_, ws);
      emit(q0 + i, std::span<const double>(ws.scores));
    }
  }
}

std::vector<double> SvmClassifier::predict_proba(
    std::span<const double> x) const {
  XDMODML_CHECK(x.size() == inference_plan().dims(),
                "predict feature width mismatch");
  std::vector<double> proba;
  predict_compiled(x.data(), 1,
                   [&](std::size_t, std::span<const double> scores) {
                     proba.assign(scores.begin(), scores.end());
                   });
  return proba;
}

int SvmClassifier::predict_by_votes(std::span<const double> x) const {
  const auto& plan = inference_plan();
  XDMODML_CHECK(x.size() == plan.dims(), "predict feature width mismatch");
  PredictWorkspace& ws = workspace();
  ws.decisions.resize(std::max(ws.decisions.size(), plan.num_machines()));
  plan.decision_values(x.data(), 1, ws.plan, ws.decisions.data());
  class_scores(ws.decisions.data(), plan.num_classes(), {}, ws);
  return top_class(ws.scores).label;
}

std::vector<int> SvmClassifier::predict_shared(
    SharedGramCache& cache, std::span<const std::size_t> rows) const {
  const auto& plan = inference_plan();
  PredictWorkspace& ws = workspace();
  const auto k = static_cast<std::size_t>(num_classes_);
  ws.decisions.resize(std::max(ws.decisions.size(), plan.num_machines()));
  std::vector<int> labels;
  labels.reserve(rows.size());
  for (const auto r : rows) {
    // Same scores as predict_proba, with the kernel values read off the
    // probe's cached Gram row.
    plan.decision_values_cached(cache, r, ws.plan, ws.decisions.data());
    class_scores(ws.decisions.data(), k, sigmoids_, ws);
    labels.push_back(top_class(ws.scores).label);
  }
  return labels;
}

int SvmClassifier::predict(std::span<const double> x) const {
  // Vote fractions and vote counts share an argmax, so one rule serves
  // both model kinds.
  return predict_with_probability(x).label;
}

Prediction SvmClassifier::predict_with_probability(
    std::span<const double> x) const {
  // One probability vector serves both the label and its probability:
  // in probability mode these are the coupled probabilities, otherwise
  // vote fractions whose argmax equals the hard-vote label (same
  // lowest-index tie rule), so label and probability always agree.
  XDMODML_CHECK(x.size() == inference_plan().dims(),
                "predict feature width mismatch");
  Prediction out;
  predict_compiled(x.data(), 1,
                   [&](std::size_t, std::span<const double> proba) {
                     out = top_class(proba);
                   });
  return out;
}

namespace {

// Rows per thread-pool chunk of a batch: one full kernel call.
constexpr std::size_t kBatchGrain = SvmInferencePlan::kMaxBatch;

obs::Counter& batch_counter() {
  static auto& c =
      obs::MetricsRegistry::instance().counter("svm.predict.batches");
  return c;
}

obs::Histogram& batch_histogram() {
  static auto& h =
      obs::MetricsRegistry::instance().histogram("svm.predict.batch_ns");
  return h;
}

// Shared skeleton of the batch overrides: counts and times the batch,
// then fans contiguous row ranges of X out on the thread pool;
// run(lo, hi) predicts rows [lo, hi).
void sweep_batch(const SvmInferencePlan& plan, const Matrix& X,
                 const std::function<void(std::size_t, std::size_t)>& run) {
  if (X.rows() == 0) return;
  XDMODML_CHECK(X.cols() == plan.dims(), "predict_batch feature width");
  batch_counter().inc();
  obs::ScopedTimer timer(batch_histogram(), "svm.predict.batch");
  ThreadPool::global().parallel_for_ranges(0, X.rows(), kBatchGrain, run);
}

}  // namespace

std::vector<int> SvmClassifier::predict_batch(const Matrix& X) const {
  std::vector<int> labels(X.rows(), -1);
  sweep_batch(inference_plan(), X, [&](std::size_t lo, std::size_t hi) {
    predict_compiled(X.row(lo).data(), hi - lo,
                     [&](std::size_t i, std::span<const double> proba) {
                       labels[lo + i] = top_class(proba).label;
                     });
  });
  return labels;
}

std::vector<std::vector<double>> SvmClassifier::predict_proba_batch(
    const Matrix& X) const {
  std::vector<std::vector<double>> out(X.rows());
  sweep_batch(inference_plan(), X, [&](std::size_t lo, std::size_t hi) {
    predict_compiled(X.row(lo).data(), hi - lo,
                     [&](std::size_t i, std::span<const double> proba) {
                       out[lo + i].assign(proba.begin(), proba.end());
                     });
  });
  return out;
}

std::vector<Prediction> SvmClassifier::predict_batch_with_probability(
    const Matrix& X) const {
  std::vector<Prediction> out(X.rows());
  sweep_batch(inference_plan(), X, [&](std::size_t lo, std::size_t hi) {
    predict_compiled(X.row(lo).data(), hi - lo,
                     [&](std::size_t i, std::span<const double> proba) {
                       out[lo + i] = top_class(proba);
                     });
  });
  return out;
}

void SvmClassifier::save(std::ostream& out) const {
  const auto& plan = inference_plan();
  io::write_tag(out, "svm-ovo-v2");
  io::write_scalar(out, "classes",
                   static_cast<std::int64_t>(num_classes_));
  io::write_scalar(out, "probability",
                   static_cast<std::int64_t>(config_.probability ? 1 : 0));
  plan.save(out);
  std::vector<double> platt;  // (A, B) per machine
  for (const auto& s : sigmoids_) platt.insert(platt.end(), {s.a, s.b});
  io::write_vector(out, "platt", platt);
}

SvmClassifier SvmClassifier::load(std::istream& in) {
  io::TokenReader reader(in);
  const auto tag = reader.read_tag();
  XDMODML_CHECK(tag == "svm-ovo-v1" || tag == "svm-ovo-v2",
                "model stream: unknown SVM classifier version '" + tag + "'");
  const auto classes = reader.read_int("classes");
  XDMODML_CHECK(classes >= 2 && classes <= 0xffff,
                "corrupt SVM: class count out of range");
  const int k = static_cast<int>(classes);
  SvmClassifier clf;
  clf.config_.probability = reader.read_int("probability") != 0;
  const auto machines = static_cast<std::size_t>(classes * (classes - 1) / 2);
  if (tag == "svm-ovo-v2") {
    clf.plan_ = SvmInferencePlan::load(reader, k);
    const auto platt = reader.read_vector("platt");
    const std::size_t want = clf.config_.probability ? machines : 0;
    XDMODML_CHECK(platt.size() == 2 * want,
                  "corrupt SVM: one Platt sigmoid per machine required");
    for (std::size_t m = 0; m < want; ++m) {
      clf.sigmoids_.push_back({platt[2 * m], platt[2 * m + 1]});
    }
  } else {
    // v1: per-machine blocks, converted into the same plan.
    XDMODML_CHECK(reader.read_int("machines") ==
                      static_cast<std::int64_t>(machines),
                  "corrupt one-vs-one machine count");
    std::vector<BinarySvm> parsed;
    parsed.reserve(machines);
    for (std::size_t m = 0; m < machines; ++m) {
      parsed.push_back(BinarySvm::load(in));
      if (clf.config_.probability) {
        clf.sigmoids_.push_back(parsed.back().sigmoid());
      }
    }
    clf.plan_ = SvmInferencePlan::build(parsed, k);
  }
  for (const auto& s : clf.sigmoids_) {
    XDMODML_CHECK(std::isfinite(s.a) && std::isfinite(s.b),
                  "corrupt SVM: non-finite Platt sigmoid");
  }
  clf.num_classes_ = k;
  return clf;
}

SvmRegressor::SvmRegressor(SvmConfig config) : config_(config) {
  XDMODML_CHECK(config.epsilon >= 0.0, "SVR epsilon must be >= 0");
}

void SvmRegressor::fit(const Matrix& X, std::span<const double> y) {
  XDMODML_CHECK(X.rows() == y.size() && X.rows() > 0,
                "fit requires matching non-empty X and y");
  const std::size_t l = X.rows();
  const std::size_t n = 2 * l;

  // LIBSVM's EPSILON_SVR formulation: variables [α; α*], labels [+1; −1],
  // linear term [ε − y; ε + y], and the kernel extended by index mod l.
  std::vector<double> p(n);
  std::vector<signed char> labels(n);
  std::vector<double> c(n, config_.c);
  for (std::size_t i = 0; i < l; ++i) {
    p[i] = config_.epsilon - y[i];
    labels[i] = 1;
    p[i + l] = config_.epsilon + y[i];
    labels[i + l] = -1;
  }

  SmoProblem problem;
  problem.n = n;
  problem.p = p;
  problem.y = labels;
  problem.c = c;
  const GramRowEngine engine(X, config_.kernel);
  // The doubled SVR variables alias the same l samples: fill one
  // vectorized row and mirror it into the second half.
  problem.kernel_row = [&engine, l](std::size_t i, std::span<double> out) {
    engine.fill_row(i % l, out.subspan(0, l));
    std::copy_n(out.data(), l, out.data() + l);
  };
  problem.kernel_diag = [&engine, l](std::size_t i) {
    return engine.diagonal(i % l);
  };

  const SmoResult result = solve_smo(problem, config_.smo);
  rho_ = result.rho;
  kernel_ = config_.kernel;

  std::vector<std::size_t> sv_rows;
  std::vector<double> sv_coef;
  for (std::size_t i = 0; i < l; ++i) {
    const double beta = result.alpha[i] - result.alpha[i + l];
    if (beta != 0.0) {
      sv_rows.push_back(i);
      sv_coef.push_back(beta);
    }
  }
  support_vectors_ = X.gather_rows(sv_rows);
  coef_ = std::move(sv_coef);
  trained_ = true;
}

void SvmRegressor::save(std::ostream& out) const {
  XDMODML_CHECK(trained_, "cannot save an untrained regressor");
  io::write_tag(out, "svr-v1");
  io::write_scalar(out, "kernel_type",
                   static_cast<std::int64_t>(kernel_.type));
  io::write_scalar(out, "gamma", kernel_.gamma);
  io::write_scalar(out, "degree", kernel_.degree);
  io::write_scalar(out, "coef0", kernel_.coef0);
  io::write_scalar(out, "rho", rho_);
  io::write_scalar(out, "svs",
                   static_cast<std::int64_t>(support_vectors_.rows()));
  io::write_scalar(out, "dims",
                   static_cast<std::int64_t>(support_vectors_.cols()));
  io::write_vector(out, "coef", coef_);
  for (std::size_t r = 0; r < support_vectors_.rows(); ++r) {
    io::write_vector(out, "sv", support_vectors_.row(r));
  }
}

SvmRegressor SvmRegressor::load(std::istream& in) {
  io::TokenReader reader(in);
  reader.expect("svr-v1");
  SvmRegressor svr;
  const auto kernel_type = reader.read_int("kernel_type");
  XDMODML_CHECK(kernel_type >= 0 && kernel_type <= 2,
                "corrupt SVR kernel type");
  svr.kernel_.type = static_cast<Kernel::Type>(kernel_type);
  svr.kernel_.gamma = reader.read_double("gamma");
  svr.kernel_.degree = reader.read_double("degree");
  svr.kernel_.coef0 = reader.read_double("coef0");
  svr.rho_ = reader.read_double("rho");
  const auto svs = reader.read_int("svs");
  const auto dims = reader.read_int("dims");
  XDMODML_CHECK(svs > 0 && dims > 0, "corrupt SVR shape");
  svr.coef_ = reader.read_vector("coef");
  XDMODML_CHECK(svr.coef_.size() == static_cast<std::size_t>(svs),
                "corrupt SVR coefficient count");
  for (std::int64_t r = 0; r < svs; ++r) {
    const auto row = reader.read_vector("sv");
    XDMODML_CHECK(row.size() == static_cast<std::size_t>(dims),
                  "corrupt SVR support vector width");
    svr.support_vectors_.append_row(row);
  }
  svr.trained_ = true;
  return svr;
}

double SvmRegressor::predict(std::span<const double> x) const {
  XDMODML_CHECK(trained_, "predict before fit");
  double f = -rho_;
  for (std::size_t s = 0; s < support_vectors_.rows(); ++s) {
    f += coef_[s] * kernel_(support_vectors_.row(s), x);
  }
  return f;
}

}  // namespace xdmodml::ml
