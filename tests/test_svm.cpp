// Tests for the SVM family: binary C-SVC, Platt scaling, pairwise
// coupling, one-vs-one multiclass, and ε-SVR.
#include "ml/svm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "ml/dataset.hpp"
#include "svm_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xdmodml::ml {
namespace {

SvmConfig fast_config() {
  SvmConfig cfg;
  cfg.kernel = Kernel::rbf(0.5);
  cfg.c = 10.0;
  cfg.probability = false;
  return cfg;
}

void make_blobs(std::size_t per_class, std::size_t classes, Matrix& X,
                std::vector<int>& y, double sep = 4.0,
                std::uint64_t seed = 1) {
  Rng rng(seed);
  for (std::size_t c = 0; c < classes; ++c) {
    const double cx = sep * static_cast<double>(c);
    const double cy = sep * static_cast<double>(c % 2);
    for (std::size_t i = 0; i < per_class; ++i) {
      X.append_row(std::vector<double>{rng.normal(cx, 0.8),
                                       rng.normal(cy, 0.8)});
      y.push_back(static_cast<int>(c));
    }
  }
}

TEST(PlattSigmoid, MonotoneAndBounded) {
  // Well-separated decision values -> steep but finite sigmoid.
  std::vector<double> decisions;
  std::vector<signed char> labels;
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const bool pos = i % 2 == 0;
    decisions.push_back(rng.normal(pos ? 2.0 : -2.0, 0.7));
    labels.push_back(pos ? 1 : -1);
  }
  const auto sigmoid = fit_platt_sigmoid(decisions, labels);
  EXPECT_GT(sigmoid.probability(3.0), 0.9);
  EXPECT_LT(sigmoid.probability(-3.0), 0.1);
  EXPECT_GT(sigmoid.probability(1.0), sigmoid.probability(0.0));
  for (double f = -5.0; f <= 5.0; f += 0.5) {
    const double p = sigmoid.probability(f);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(PlattSigmoid, HandlesOverlappingClasses) {
  // Heavy overlap -> shallow sigmoid near 0.5 at f = 0.
  std::vector<double> decisions;
  std::vector<signed char> labels;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const bool pos = i % 2 == 0;
    decisions.push_back(rng.normal(pos ? 0.3 : -0.3, 1.5));
    labels.push_back(pos ? 1 : -1);
  }
  const auto sigmoid = fit_platt_sigmoid(decisions, labels);
  EXPECT_NEAR(sigmoid.probability(0.0), 0.5, 0.1);
}

TEST(PlattSigmoid, RejectsEmptyInput) {
  EXPECT_THROW(fit_platt_sigmoid({}, {}), InvalidArgument);
}

TEST(PairwiseCoupling, RecoverUnanimousWinner) {
  // Class 1 beats everyone with probability 0.9.
  Matrix pairwise(3, 3, 0.0);
  const double p = 0.9;
  pairwise(1, 0) = p;
  pairwise(0, 1) = 1 - p;
  pairwise(1, 2) = p;
  pairwise(2, 1) = 1 - p;
  pairwise(0, 2) = 0.5;
  pairwise(2, 0) = 0.5;
  const auto probs = couple_pairwise_probabilities(pairwise);
  ASSERT_EQ(probs.size(), 3u);
  EXPECT_GT(probs[1], probs[0]);
  EXPECT_GT(probs[1], probs[2]);
  double total = 0.0;
  for (const auto v : probs) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PairwiseCoupling, UniformInputGivesUniformOutput) {
  Matrix pairwise(4, 4, 0.5);
  const auto probs = couple_pairwise_probabilities(pairwise);
  for (const auto v : probs) EXPECT_NEAR(v, 0.25, 1e-6);
}

TEST(PairwiseCoupling, SingleClass) {
  Matrix pairwise(1, 1, 0.0);
  const auto probs = couple_pairwise_probabilities(pairwise);
  ASSERT_EQ(probs.size(), 1u);
  EXPECT_DOUBLE_EQ(probs[0], 1.0);
}

TEST(BinarySvm, SeparatesBlobs) {
  Matrix X;
  std::vector<int> yi;
  make_blobs(60, 2, X, yi);
  std::vector<signed char> y;
  for (const auto v : yi) y.push_back(v == 0 ? 1 : -1);
  BinarySvm svm;
  svm.fit(X, y, fast_config());
  EXPECT_GT(svm.num_support_vectors(), 0u);
  EXPECT_LT(svm.num_support_vectors(), X.rows());
  std::size_t correct = 0;
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const double f = svm.decision_value(X.row(r));
    if ((f > 0.0) == (y[r] > 0)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(X.rows()),
            0.97);
}

TEST(BinarySvm, ProbabilityCalibrated) {
  Matrix X;
  std::vector<int> yi;
  make_blobs(80, 2, X, yi, 5.0);
  std::vector<signed char> y;
  for (const auto v : yi) y.push_back(v == 0 ? 1 : -1);
  auto cfg = fast_config();
  cfg.probability = true;
  BinarySvm svm;
  svm.fit(X, y, cfg);
  ASSERT_TRUE(svm.has_probability());
  // Deep inside the positive blob -> high probability; negative blob -> low.
  EXPECT_GT(svm.probability_positive(std::vector<double>{0.0, 0.0}), 0.8);
  EXPECT_LT(svm.probability_positive(std::vector<double>{5.0, 5.0}), 0.2);
}

TEST(BinarySvm, ValidatesLabels) {
  BinarySvm svm;
  Matrix X = Matrix::from_rows({{0.0}, {1.0}});
  EXPECT_THROW(svm.fit(X, std::vector<signed char>{1, 0}, fast_config()),
               InvalidArgument);
  EXPECT_THROW(svm.fit(X, std::vector<signed char>{1, 1}, fast_config()),
               InvalidArgument);
  EXPECT_THROW(svm.decision_value(std::vector<double>{0.0}),
               InvalidArgument);
}

TEST(SvmClassifier, MulticlassBlobsHighAccuracy) {
  Matrix X;
  std::vector<int> y;
  make_blobs(50, 4, X, y);
  SvmClassifier svm(fast_config());
  svm.fit(X, y, 4);
  EXPECT_EQ(svm.num_machines(), 6u);  // 4 choose 2
  std::size_t correct = 0;
  for (std::size_t r = 0; r < X.rows(); ++r) {
    if (svm.predict(X.row(r)) == y[r]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(X.rows()),
            0.97);
}

TEST(SvmClassifier, ProbabilitiesValidAndPeakAtTruth) {
  Matrix X;
  std::vector<int> y;
  make_blobs(40, 3, X, y, 5.0);
  auto cfg = fast_config();
  cfg.probability = true;
  SvmClassifier svm(cfg);
  svm.fit(X, y, 3);
  std::size_t peaked = 0;
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto p = svm.predict_proba(X.row(r));
    double total = 0.0;
    for (const auto v : p) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    if (static_cast<int>(std::max_element(p.begin(), p.end()) -
                         p.begin()) == y[r]) {
      ++peaked;
    }
  }
  EXPECT_GT(static_cast<double>(peaked) / static_cast<double>(X.rows()),
            0.95);
}

TEST(SvmClassifier, LowProbabilityFarFromAllClasses) {
  // The paper's thresholding idea: a point unlike every training class
  // should receive a low top-class probability.
  Matrix X;
  std::vector<int> y;
  make_blobs(40, 3, X, y, 5.0);
  auto cfg = fast_config();
  cfg.probability = true;
  SvmClassifier svm(cfg);
  svm.fit(X, y, 3);
  const std::vector<double> alien{-40.0, 40.0};
  const auto p = svm.predict_proba(alien);
  const double top = *std::max_element(p.begin(), p.end());
  EXPECT_LT(top, 0.75);
}

TEST(SvmClassifier, VotePredictWithoutProbability) {
  Matrix X;
  std::vector<int> y;
  make_blobs(30, 3, X, y);
  SvmClassifier svm(fast_config());
  svm.fit(X, y, 3);
  const auto proba = svm.predict_proba(X.row(0));  // vote fractions
  double total = 0.0;
  for (const auto v : proba) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SvmClassifier, ParallelMatchesSerial) {
  Matrix X;
  std::vector<int> y;
  make_blobs(30, 3, X, y);
  auto cfg_par = fast_config();
  auto cfg_ser = fast_config();
  cfg_ser.parallel = false;
  SvmClassifier a(cfg_par, 9);
  SvmClassifier b(cfg_ser, 9);
  a.fit(X, y, 3);
  b.fit(X, y, 3);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    EXPECT_EQ(a.predict(X.row(r)), b.predict(X.row(r)));
  }
}

TEST(SvmClassifier, RejectsBadInputs) {
  SvmClassifier svm(fast_config());
  Matrix X = Matrix::from_rows({{1.0}, {2.0}});
  const std::vector<int> y{0, 1};
  EXPECT_THROW(svm.fit(X, y, 1), InvalidArgument);  // needs >= 2 classes
  EXPECT_THROW(svm.predict(std::vector<double>{1.0}), InvalidArgument);
  // A class with no samples must be rejected during OvO training.
  EXPECT_THROW(svm.fit(X, y, 3), InvalidArgument);
}

// A hand-built 1-D linear binary machine (one support vector [1],
// coef 1 unless overridden, rho 0) whose decision value at x is
// `coef * x`.  `platt_a` sets the Platt sigmoid P(+1|f) = 1/(1+e^{af}):
// a negative `a` is the normal orientation (positive f → high
// probability), a positive `a` inverts the sigmoid against the votes.
std::string crafted_machine(double platt_a, bool has_platt,
                            double coef = 1.0) {
  std::ostringstream os;
  os << "binary-svm-v1\nkernel_type 0\ngamma 0\ndegree 1\ncoef0 0\n"
     << "rho 0\nhas_platt " << (has_platt ? 1 : 0) << "\nplatt_a "
     << platt_a << "\nplatt_b 0\nsvs 1\ndims 1\ncoef 1 " << coef
     << "\nsv 1 1\n";
  return os.str();
}

// A crafted svm-ovo-v1 stream converts into a plan that predicts what
// the per-machine reference predicts on `x`.
void expect_same_as_reference(const std::string& stream,
                              const std::vector<double>& x) {
  std::istringstream in(stream);
  const auto svm = SvmClassifier::load(in);
  std::istringstream ref_in(stream);
  const auto ref = reference::OneVsOne::from_v1(ref_in);
  EXPECT_EQ(svm.predict(x), ref.predict(x));
  EXPECT_EQ(svm.predict_by_votes(x), ref.predict_by_votes(x));
  const auto proba = svm.predict_proba(x);
  const auto want = ref.predict_proba(x);
  ASSERT_EQ(proba.size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    EXPECT_NEAR(proba[c], want[c], 1e-12) << "class " << c;
  }
}

TEST(SvmClassifier, ProbabilityModeLabelMatchesCoupledArgmax) {
  // Regression test for the label/probability disagreement: a crafted
  // 3-class model where the hard one-vs-one votes and the coupled
  // pairwise probabilities pick different classes.  At x = 1 every
  // machine's decision value is +1, so the votes go 2:1:0 in favour of
  // class 0 — but machine (0,1) carries an inverted Platt sigmoid
  // (as the Lin–Weng CV fit produces on noisy data), so pairwise class 1
  // beats class 0 with p ≈ 0.98 and the coupled argmax is class 1.
  std::ostringstream os;
  os << "svm-ovo-v1\nclasses 3\nprobability 1\nmachines 3\n"
     << crafted_machine(4.0, true)     // (0,1): vote 0, P(0|{0,1}) ~ 0.02
     << crafted_machine(-4.0, true)    // (0,2): vote 0, P(0|{0,2}) ~ 0.98
     << crafted_machine(-4.0, true);   // (1,2): vote 1, P(1|{1,2}) ~ 0.98
  std::istringstream in(os.str());
  const auto svm = SvmClassifier::load(in);
  const std::vector<double> x{1.0};

  EXPECT_EQ(svm.predict_by_votes(x), 0);  // LIBSVM's vote rule says 0
  const auto proba = svm.predict_proba(x);
  ASSERT_EQ(proba.size(), 3u);
  const int argmax = static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
  EXPECT_EQ(argmax, 1);  // ...but the probability mass sits on class 1

  // The old predict_with_probability returned {0, proba[0]} here —
  // a vote label gated by the *wrong class's* probability.
  const auto pred = svm.predict_with_probability(x);
  EXPECT_EQ(pred.label, argmax);
  EXPECT_DOUBLE_EQ(pred.probability, proba[static_cast<std::size_t>(argmax)]);
  EXPECT_EQ(svm.predict(x), argmax);  // predict agrees in probability mode
  expect_same_as_reference(os.str(), x);
}

TEST(SvmClassifier, VoteFractionTiesResolveToLowestClass) {
  // Circular votes (0 beats 1, 1 beats 2, 2 beats 0) leave every class
  // with exactly one vote; the tie must resolve deterministically to the
  // lowest class index on both the vote path and the vote-fraction path.
  std::ostringstream os;
  os << "svm-ovo-v1\nclasses 3\nprobability 0\nmachines 3\n"
     << crafted_machine(0.0, false)        // (0,1): f = +1 -> vote 0
     << crafted_machine(0.0, false, -1.0)  // (0,2): f = -1 -> vote 2
     << crafted_machine(0.0, false);       // (1,2): f = +1 -> vote 1
  std::istringstream in(os.str());
  const auto svm = SvmClassifier::load(in);
  const std::vector<double> x{1.0};

  const auto proba = svm.predict_proba(x);  // vote fractions
  ASSERT_EQ(proba.size(), 3u);
  for (const auto v : proba) EXPECT_DOUBLE_EQ(v, 1.0 / 3.0);
  EXPECT_EQ(svm.predict_by_votes(x), 0);
  EXPECT_EQ(svm.predict(x), 0);
  const auto pred = svm.predict_with_probability(x);
  EXPECT_EQ(pred.label, 0);
  EXPECT_DOUBLE_EQ(pred.probability, 1.0 / 3.0);
  expect_same_as_reference(os.str(), x);
}

TEST(SvmClassifier, SelfConsistentUnderNoiseLabels) {
  // On pure-noise labels the cross-validated Platt sigmoids invert
  // relative to the memorizing in-sample decision values, so the hard
  // votes and the coupled probabilities genuinely disagree on many
  // training points.  Whatever the votes say, the reported prediction
  // must stay self-consistent: label == argmax of the probability
  // vector, probability == that class's entry.
  Rng rng(71);
  Matrix X;
  std::vector<int> y;
  for (int i = 0; i < 160; ++i) {
    X.append_row(std::vector<double>{rng.normal(), rng.normal()});
    y.push_back(static_cast<int>(rng.uniform_index(2)));  // noise labels
  }
  SvmConfig cfg;  // probability fitting on, very local kernel so the
  cfg.c = 1000.0;  // machine can memorize the 2-D noise
  cfg.kernel = Kernel::rbf(20.0);
  SvmClassifier svm(cfg);
  svm.fit(X, y, 2);
  std::size_t vote_correct = 0;
  std::size_t disagreements = 0;
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto proba = svm.predict_proba(X.row(r));
    const int argmax = static_cast<int>(
        std::max_element(proba.begin(), proba.end()) - proba.begin());
    const auto pred = svm.predict_with_probability(X.row(r));
    EXPECT_EQ(pred.label, argmax);
    EXPECT_DOUBLE_EQ(pred.probability,
                     proba[static_cast<std::size_t>(argmax)]);
    EXPECT_EQ(svm.predict(X.row(r)), argmax);
    if (svm.predict_by_votes(X.row(r)) != argmax) ++disagreements;
    if (svm.predict_by_votes(X.row(r)) == y[r]) ++vote_correct;
  }
  // The memorizing machines still classify their own training data via
  // the vote rule...
  EXPECT_GT(static_cast<double>(vote_correct) /
                static_cast<double>(X.rows()),
            0.95);
  // ...while the inverted sigmoids make votes and probabilities clash —
  // the very disagreement the consistency fix is about.
  EXPECT_GT(disagreements, 0u);
}

TEST(SvmClassifier, BatchPredictionsMatchSerial) {
  Matrix X;
  std::vector<int> y;
  make_blobs(30, 3, X, y, 5.0);
  auto cfg = fast_config();
  cfg.probability = true;
  SvmClassifier svm(cfg);
  svm.fit(X, y, 3);
  const auto labels = svm.predict_batch(X);
  const auto probas = svm.predict_proba_batch(X);
  const auto preds = svm.predict_batch_with_probability(X);
  ASSERT_EQ(labels.size(), X.rows());
  ASSERT_EQ(probas.size(), X.rows());
  ASSERT_EQ(preds.size(), X.rows());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    EXPECT_EQ(labels[r], svm.predict(X.row(r)));
    const auto serial = svm.predict_proba(X.row(r));
    ASSERT_EQ(probas[r].size(), serial.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
      EXPECT_DOUBLE_EQ(probas[r][c], serial[c]);
    }
    EXPECT_EQ(preds[r].label, labels[r]);
    EXPECT_DOUBLE_EQ(preds[r].probability,
                     serial[static_cast<std::size_t>(labels[r])]);
  }
}

TEST(SvmClassifier, ClassWeightsShiftBoundaryTowardRareClass) {
  // Imbalanced overlapping blobs: unweighted SVM sacrifices the rare
  // class; inverse-frequency weights recover its recall.
  Rng rng(31);
  Matrix X;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    X.append_row(std::vector<double>{rng.normal(0.0, 1.2)});
    y.push_back(0);
  }
  for (int i = 0; i < 30; ++i) {
    X.append_row(std::vector<double>{rng.normal(2.0, 1.2)});
    y.push_back(1);
  }
  auto recall_of_rare = [&](const SvmConfig& cfg) {
    SvmClassifier svm(cfg);
    svm.fit(X, y, 2);
    std::size_t hit = 0;
    std::size_t total = 0;
    for (std::size_t r = 0; r < X.rows(); ++r) {
      if (y[r] != 1) continue;
      ++total;
      if (svm.predict(X.row(r)) == 1) ++hit;
    }
    return static_cast<double>(hit) / static_cast<double>(total);
  };
  SvmConfig plain = fast_config();
  plain.c = 1.0;
  SvmConfig weighted = plain;
  weighted.class_weights = {1.0, 10.0};  // boost the rare class
  EXPECT_GT(recall_of_rare(weighted), recall_of_rare(plain) + 0.1);
}

TEST(SvmClassifier, ClassWeightsValidated) {
  Matrix X = Matrix::from_rows({{0.0}, {1.0}, {2.0}, {3.0}});
  const std::vector<int> y{0, 0, 1, 1};
  SvmConfig cfg = fast_config();
  cfg.class_weights = {1.0};  // wrong size for 2 classes
  SvmClassifier svm(cfg);
  EXPECT_THROW(svm.fit(X, y, 2), InvalidArgument);
}

TEST(SvmRegressor, FitsLinearFunction) {
  Rng rng(17);
  Matrix X;
  std::vector<double> y;
  for (int i = 0; i < 150; ++i) {
    const double x = rng.uniform(-2.0, 2.0);
    X.append_row(std::vector<double>{x});
    y.push_back(3.0 * x + 1.0);
  }
  SvmConfig cfg;
  cfg.kernel = Kernel::linear();
  cfg.c = 100.0;
  cfg.epsilon = 0.05;
  SvmRegressor svr(cfg);
  svr.fit(X, y);
  for (double x = -1.5; x <= 1.5; x += 0.5) {
    EXPECT_NEAR(svr.predict(std::vector<double>{x}), 3.0 * x + 1.0, 0.2);
  }
}

TEST(SvmRegressor, FitsNonlinearWithRbf) {
  Rng rng(19);
  Matrix X;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(-3.0, 3.0);
    X.append_row(std::vector<double>{x});
    y.push_back(std::sin(x));
  }
  SvmConfig cfg;
  cfg.kernel = Kernel::rbf(1.0);
  cfg.c = 50.0;
  cfg.epsilon = 0.05;
  SvmRegressor svr(cfg);
  svr.fit(X, y);
  double max_err = 0.0;
  for (double x = -2.5; x <= 2.5; x += 0.25) {
    max_err = std::max(max_err,
                       std::abs(svr.predict(std::vector<double>{x}) -
                                std::sin(x)));
  }
  EXPECT_LT(max_err, 0.25);
}

TEST(SvmRegressor, EpsilonTubeSparsifiesSupport) {
  // With a wide tube, most points sit strictly inside it -> few SVs.
  Rng rng(23);
  Matrix X;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    X.append_row(std::vector<double>{x});
    y.push_back(x + rng.normal(0.0, 0.01));
  }
  SvmConfig tight;
  tight.kernel = Kernel::linear();
  tight.epsilon = 0.001;
  SvmConfig wide = tight;
  wide.epsilon = 0.5;
  SvmRegressor svr_tight(tight);
  SvmRegressor svr_wide(wide);
  svr_tight.fit(X, y);
  svr_wide.fit(X, y);
  EXPECT_LT(svr_wide.num_support_vectors(),
            svr_tight.num_support_vectors());
}

TEST(SvmRegressor, RejectsBadInputs) {
  SvmConfig cfg;
  cfg.epsilon = -1.0;
  EXPECT_THROW(SvmRegressor{cfg}, InvalidArgument);
  SvmRegressor svr;
  EXPECT_THROW(svr.predict(std::vector<double>{0.0}), InvalidArgument);
}

}  // namespace
}  // namespace xdmodml::ml
