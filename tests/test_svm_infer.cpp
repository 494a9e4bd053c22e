// Differential tests for the compiled SVM inference plan (ml/svm_plan):
// the plan (class-blocked deduplicated support-vector pool + the
// simd::svm_block_sums kernel) must agree with the test-side per-machine
// reference (svm_reference.hpp) across kernels, ISAs, batch shapes,
// serialization round trips and concurrent use; batches must reproduce
// single queries bit for bit, also through an SVM-backed
// ClassificationService.  Registered under the `tier1-infer` ctest
// label, plus an XDMODML_SIMD=scalar environment rerun.
#include "ml/svm_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "core/classification_service.hpp"
#include "ml/svm.hpp"
#include "svm_reference.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "workload/dataset_helpers.hpp"
#include "workload/generator.hpp"

namespace xdmodml::ml {
namespace {

/// Restores the SIMD ISA on scope exit so one test's toggle cannot leak
/// into another.
class IsaGuard {
 public:
  explicit IsaGuard(simd::Isa isa) : prev_(simd::active()) {
    simd::set_active(isa);
  }
  ~IsaGuard() { simd::set_active(prev_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  simd::Isa prev_;
};

/// Every ISA this build and CPU can run.
std::vector<simd::Isa> available_isas() {
  std::vector<simd::Isa> isas{simd::Isa::kScalar};
  if (simd::available(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  return isas;
}

std::vector<double> blob_row(Rng& rng, double cx, double sd) {
  return {rng.normal(cx, sd), rng.normal(cx * 0.5, sd), rng.normal(-cx, sd),
          rng.normal(0.0, sd), rng.normal(cx * 0.25, sd)};
}

// Five features so the SIMD 4-lane kernels exercise a remainder lane.
void make_blobs5(std::size_t per_class, std::size_t classes, Matrix& X,
                 std::vector<int>& y, double spacing = 3.5,
                 std::uint64_t seed = 1) {
  Rng rng(seed);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      X.append_row(blob_row(rng, spacing * static_cast<double>(c), 0.8));
      y.push_back(static_cast<int>(c));
    }
  }
}

Matrix probe_rows(std::size_t n, std::size_t classes = 3,
                  double spacing = 3.5, std::uint64_t seed = 77) {
  Rng rng(seed);
  Matrix probes;
  for (std::size_t i = 0; i < n; ++i) {
    probes.append_row(
        blob_row(rng, spacing * static_cast<double>(i % classes), 1.2));
  }
  return probes;
}

/// A fitted classifier and the reference over the same machines.
struct Trained {
  SvmClassifier clf;
  reference::OneVsOne ref;
};

Trained train_blobs(SvmConfig cfg, std::size_t classes = 3,
                    std::size_t per_class = 25, double spacing = 3.5) {
  Matrix X;
  std::vector<int> y;
  make_blobs5(per_class, classes, X, y, spacing);
  SvmClassifier clf(cfg, 5);
  clf.fit(X, y, static_cast<int>(classes));
  return {clf, reference::OneVsOne::fit(X, y, static_cast<int>(classes),
                                        cfg, 5)};
}

SvmConfig infer_config(Kernel kernel, bool probability) {
  SvmConfig cfg;
  cfg.kernel = kernel;
  cfg.c = 10.0;
  cfg.probability = probability;
  cfg.platt_cv_folds = 2;
  return cfg;
}

/// The plan's decision values for one query.
std::vector<double> plan_decisions(const SvmInferencePlan& plan,
                                   std::span<const double> x) {
  SvmInferencePlan::Scratch scratch;
  std::vector<double> out(plan.num_machines());
  plan.decision_values(x.data(), 1, scratch, out.data());
  return out;
}

/// Plan vs reference on every probe: per-machine decision values within
/// `tol`, labels and vote labels identical, probabilities within `tol`.
void expect_matches_reference(const SvmClassifier& clf,
                              const reference::OneVsOne& ref,
                              const Matrix& probes, double tol) {
  const auto& plan = clf.inference_plan();
  ASSERT_EQ(plan.num_machines(), ref.machines.size());
  for (std::size_t p = 0; p < probes.rows(); ++p) {
    const auto x = probes.row(p);
    const auto dec = plan_decisions(plan, x);
    const auto want = ref.decision_values(x);
    for (std::size_t m = 0; m < dec.size(); ++m) {
      EXPECT_NEAR(dec[m], want[m], tol) << "machine " << m << " probe " << p;
    }
    EXPECT_EQ(clf.predict(x), ref.predict(x)) << "probe " << p;
    EXPECT_EQ(clf.predict_by_votes(x), ref.predict_by_votes(x))
        << "probe " << p;
    const auto proba = clf.predict_proba(x);
    const auto ref_proba = ref.predict_proba(x);
    ASSERT_EQ(proba.size(), ref_proba.size());
    for (std::size_t c = 0; c < proba.size(); ++c) {
      EXPECT_NEAR(proba[c], ref_proba[c], tol)
          << "class " << c << " probe " << p;
    }
  }
}

// The core differential: for every kernel family, plan labels / vote
// labels match the reference exactly and decision values /
// probabilities agree to 1e-10 (the plan's RBF path evaluates
// exp(−γ(‖x‖²+‖y‖²−2x·y)) over class blocks instead of exp(−γ‖x−y‖²)
// per machine, so bit-equality is not expected).
TEST(SvmInferDifferential, PlanMatchesReferenceAcrossKernels) {
  const std::vector<Kernel> kernels = {
      Kernel::rbf(0.3), Kernel::linear(), Kernel::polynomial(3.0, 0.5, 1.0),
      Kernel::polynomial(2.5, 0.05, 3.0)};
  const Matrix probes = probe_rows(12);
  for (const auto& kernel : kernels) {
    for (const bool probability : {true, false}) {
      SCOPED_TRACE(kernel.name() + (probability ? " proba" : " votes"));
      const auto t = train_blobs(infer_config(kernel, probability));
      expect_matches_reference(t.clf, t.ref, probes, 1e-10);
    }
  }
}

// The paper's shape: 20 classes, 190 machines, 19 coefficient rows.
// Every f64 decision value stays within 1e-10 of the per-machine walk.
TEST(SvmInferDifferential, TwentyClassModelMatchesReference) {
  const auto t =
      train_blobs(infer_config(Kernel::rbf(0.3), true), 20, 12, 1.2);
  ASSERT_EQ(t.clf.num_machines(), 190u);
  expect_matches_reference(t.clf, t.ref, probe_rows(40, 20, 1.2), 1e-10);
}

// The scalar ISA must reproduce the vector ISA through the plan (both
// run the same norm-expansion math; only rounding differs).
TEST(SvmInferDifferential, ScalarIsaMatchesVectorIsa) {
  if (!simd::available(simd::Isa::kAvx2)) GTEST_SKIP() << "scalar-only build";
  const auto clf = train_blobs(infer_config(Kernel::rbf(0.3), true)).clf;
  const Matrix probes = probe_rows(8);
  std::vector<std::vector<double>> vec_proba;
  {
    IsaGuard isa(simd::Isa::kAvx2);
    for (std::size_t p = 0; p < probes.rows(); ++p) {
      vec_proba.push_back(clf.predict_proba(probes.row(p)));
    }
  }
  IsaGuard isa(simd::Isa::kScalar);
  for (std::size_t p = 0; p < probes.rows(); ++p) {
    const auto proba = clf.predict_proba(probes.row(p));
    for (std::size_t c = 0; c < proba.size(); ++c) {
      EXPECT_NEAR(proba[c], vec_proba[p][c], 1e-10);
    }
  }
}

// predict_shared (the tuning sweep's path) gathers the probe's cached
// Gram row at the pool rows' provenance and reduces it with the plan's
// coefficients: through a float64 cache its decision values match the
// reference walk, and its labels match predict on the same rows.
TEST(SvmInferDifferential, PredictSharedMatchesReference) {
  Matrix X;
  std::vector<int> y;
  make_blobs5(25, 3, X, y);
  auto cfg = infer_config(Kernel::rbf(0.3), true);
  cfg.cache_precision = GramPrecision::kFloat64;
  SharedGramCache cache(X, cfg.kernel, X.rows(), GramPrecision::kFloat64);
  std::vector<std::size_t> rows(X.rows());
  std::iota(rows.begin(), rows.end(), 0);
  SvmClassifier clf(cfg, 5);
  clf.fit_shared(X, y, 3, &cache, rows);
  const auto ref = reference::OneVsOne::fit(X, y, 3, cfg, 5);
  const auto& plan = clf.inference_plan();
  ASSERT_TRUE(plan.provenance_keyed());
  SvmInferencePlan::Scratch scratch;
  std::vector<double> dec(plan.num_machines());
  for (const std::size_t r : rows) {
    plan.decision_values_cached(cache, r, scratch, dec.data());
    const auto want = ref.decision_values(X.row(r));
    for (std::size_t m = 0; m < dec.size(); ++m) {
      EXPECT_NEAR(dec[m], want[m], 1e-9) << "machine " << m << " row " << r;
    }
  }
  const auto shared = clf.predict_shared(cache, rows);
  for (const std::size_t r : rows) {
    EXPECT_EQ(shared[r], ref.predict(X.row(r))) << "row " << r;
  }
}

// A single query is the compiled batch of one, and the kernel's
// per-query arithmetic does not depend on how many queries share a
// call or where a query sits in it: batches of every shape equal the
// single-row calls bit for bit (EXPECT_EQ on doubles), under each ISA.
TEST(SvmInferBatch, BatchMatchesSingleExactly) {
  const Matrix all = probe_rows(515);
  for (const bool probability : {true, false}) {
    const auto clf =
        train_blobs(infer_config(Kernel::rbf(0.3), probability)).clf;
    for (const auto isa : available_isas()) {
      SCOPED_TRACE(std::string(simd::isa_name(isa)) +
                   (probability ? " proba" : " votes"));
      IsaGuard guard(isa);
      std::vector<std::vector<double>> single_proba;
      std::vector<Prediction> single_pred;
      std::vector<int> single_label;
      for (std::size_t p = 0; p < all.rows(); ++p) {
        single_proba.push_back(clf.predict_proba(all.row(p)));
        single_pred.push_back(clf.predict_with_probability(all.row(p)));
        single_label.push_back(clf.predict(all.row(p)));
      }
      for (const std::size_t b : {1, 2, 3, 4, 5, 8, 9, 513}) {
        const std::size_t offset = b % 3;  // shift rows across tiles
        Matrix X;
        for (std::size_t p = 0; p < b; ++p) X.append_row(all.row(offset + p));
        const auto batch_labels = clf.predict_batch(X);
        const auto batch_proba = clf.predict_proba_batch(X);
        const auto batch_pred = clf.predict_batch_with_probability(X);
        ASSERT_EQ(batch_labels.size(), b);
        ASSERT_EQ(batch_proba.size(), b);
        ASSERT_EQ(batch_pred.size(), b);
        for (std::size_t p = 0; p < b; ++p) {
          const std::size_t row = offset + p;
          EXPECT_EQ(batch_labels[p], single_label[row]) << "B=" << b;
          EXPECT_EQ(batch_proba[p], single_proba[row]) << "B=" << b;
          EXPECT_EQ(batch_pred[p].label, single_pred[row].label);
          EXPECT_EQ(batch_pred[p].probability, single_pred[row].probability)
              << "B=" << b << " row " << row;
        }
      }
    }
  }
}

TEST(SvmInferPlan, DedupStatsAndClassBlocks) {
  // Every fit slices its rows from a shared Gram cache, so every
  // machine carries full-matrix provenance.
  const auto t = train_blobs(infer_config(Kernel::rbf(0.3), true));
  const auto& plan = t.clf.inference_plan();
  EXPECT_TRUE(plan.provenance_keyed());
  std::size_t machine_svs = 0;
  for (const auto& m : t.ref.machines) machine_svs += m.num_support_vectors();
  EXPECT_EQ(plan.total_support_vectors(), machine_svs);
  EXPECT_EQ(t.clf.total_support_vectors(), machine_svs);
  EXPECT_EQ(plan.num_machines(), t.clf.num_machines());
  EXPECT_EQ(plan.dims(), 5u);
  // A 3-class one-vs-one fit reuses training rows across pairs; some
  // dedup must happen for the pool to be worth building.
  EXPECT_LT(plan.unique_support_vectors(), plan.total_support_vectors());
  EXPECT_GT(plan.dedup_ratio(), 1.0);
  // Class blocks partition the unique SVs, each padded to whole 4-row
  // panels of pool storage.
  std::size_t unique = 0;
  std::size_t padded = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_GT(plan.class_support_vectors(c), 0u) << "class " << c;
    unique += plan.class_support_vectors(c);
    padded += (plan.class_support_vectors(c) + 3) / 4 * 4;
  }
  EXPECT_EQ(unique, plan.unique_support_vectors());
  EXPECT_EQ(plan.pool_bytes(), padded * 5 * sizeof(double));
  EXPECT_EQ(plan.coefficients().size(), 2 * padded);
}

// svm-ovo-v2 stores the pool itself: the reloaded plan has the same
// unique and pre-dedup counts and class blocks, and no provenance
// (that lives in memory only).
TEST(SvmInferPlan, RoundTripPreservesPool) {
  const auto clf = train_blobs(infer_config(Kernel::rbf(0.3), true)).clf;
  const auto& plan = clf.inference_plan();
  std::stringstream stream;
  clf.save(stream);
  const auto loaded = SvmClassifier::load(stream);
  const auto& reloaded = loaded.inference_plan();
  EXPECT_FALSE(reloaded.provenance_keyed());
  EXPECT_EQ(reloaded.unique_support_vectors(), plan.unique_support_vectors());
  EXPECT_EQ(reloaded.total_support_vectors(), plan.total_support_vectors());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(reloaded.class_support_vectors(c),
              plan.class_support_vectors(c));
  }
  EXPECT_EQ(reloaded.pool_bytes(), plan.pool_bytes());
}

// A crafted v1 stream (no provenance vectors) in which the row (1, 2)
// is an SV of class 0 (machines (0,1) and (0,2), positive coefficients)
// AND of class 1 (machine (1,2), positive coefficient).  Content dedup
// must key on (class, row): one slot per class block, else machine
// (1,2)'s class-1 coefficient would land in class 0's block.  Row
// (3, 4) supports class 1 in two machines and must merge.
TEST(SvmInferPlan, V1StreamDedupKeysOnClassAndRow) {
  const auto machine = [](double rho, const std::string& coef,
                          const std::string& rows) {
    return "binary-svm-v1\nkernel_type 1\ngamma 0.5\ndegree 3\ncoef0 0\n"
           "rho " + std::to_string(rho) +
           "\nhas_platt 1\nplatt_a -2\nplatt_b 0\n" + coef + "\ndims 2\n" +
           rows;
  };
  const std::string text =
      "svm-ovo-v1\nclasses 3\nprobability 1\nmachines 3\n" +
      machine(0.1, "svs 2", "coef 2 1 -1\nsv 2 1 2\nsv 2 3 4\n") +
      machine(0.2, "svs 2", "coef 2 1 -0.5\nsv 2 1 2\nsv 2 5 6\n") +
      machine(0.3, "svs 3",
              "coef 3 0.5 1 -1.5\nsv 2 1 2\nsv 2 3 4\nsv 2 5 6\n");
  std::stringstream stream(text);
  const auto clf = SvmClassifier::load(stream);
  std::stringstream ref_stream(text);
  const auto ref = reference::OneVsOne::from_v1(ref_stream);
  const auto& plan = clf.inference_plan();
  EXPECT_FALSE(plan.provenance_keyed());
  EXPECT_EQ(plan.total_support_vectors(), 7u);
  EXPECT_EQ(plan.unique_support_vectors(), 4u);
  EXPECT_EQ(plan.class_support_vectors(0), 1u);  // (1,2)
  EXPECT_EQ(plan.class_support_vectors(1), 2u);  // (3,4), (1,2)
  EXPECT_EQ(plan.class_support_vectors(2), 1u);  // (5,6)
  Matrix probes;
  for (const auto& x : std::vector<std::vector<double>>{
           {1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}, {2.0, 3.0}, {0.0, 0.0}}) {
    probes.append_row(x);
  }
  expect_matches_reference(clf, ref, probes, 1e-10);
}

// The allocation-free coupling path and the public Matrix wrapper run
// the same arithmetic: bit-identical output, with one scratch reused
// across calls of growing and shrinking k.
TEST(SvmCoupling, ScratchMatchesMatrixWrapperExactly) {
  Rng rng(9);
  CouplingScratch scratch;
  for (const std::size_t k : {3, 20, 1, 2, 7, 4}) {
    Matrix pairwise(k, k, 0.0);
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        const double r = std::min(std::max(rng.uniform(), 1e-7), 1.0 - 1e-7);
        pairwise(a, b) = r;
        pairwise(b, a) = 1.0 - r;
      }
    }
    const auto wrapped = couple_pairwise_probabilities(pairwise);
    std::vector<double> direct(k, -1.0);
    couple_pairwise_probabilities(pairwise.data(), k, scratch, direct);
    EXPECT_EQ(direct, wrapped) << "k=" << k;
  }
}

// Two threads race predict_batch against predict_proba on a freshly
// loaded model (and on a copy, which shares the loaded plan); both see
// the serial results of an independently loaded model.
TEST(SvmInferConcurrency, ConcurrentPredictionsOnLoadedModel) {
  const auto trained =
      train_blobs(infer_config(Kernel::rbf(0.3), true)).clf;
  std::stringstream stream;
  trained.save(stream);

  const Matrix probes = probe_rows(16);
  std::stringstream ref_stream(stream.str());
  const auto reference = SvmClassifier::load(ref_stream);
  const auto ref_labels = reference.predict_batch(probes);
  const auto ref_proba = reference.predict_proba(probes.row(0));

  const auto fresh = SvmClassifier::load(stream);
  const SvmClassifier copy = fresh;
  EXPECT_EQ(&copy.inference_plan(), &fresh.inference_plan());
  std::vector<int> labels;
  std::vector<double> proba;
  std::thread batch_thread([&] { labels = fresh.predict_batch(probes); });
  std::thread proba_thread(
      [&] { proba = copy.predict_proba(probes.row(0)); });
  batch_thread.join();
  proba_thread.join();
  EXPECT_EQ(labels, ref_labels);
  EXPECT_EQ(proba, ref_proba);
}

TEST(SvmInferPlan, RejectsUntrainedAndMismatchedProbes) {
  SvmClassifier clf;
  EXPECT_THROW(clf.inference_plan(), InvalidArgument);
  EXPECT_THROW(clf.predict(std::vector<double>(5, 0.0)), InvalidArgument);
  std::stringstream unsaved;
  EXPECT_THROW(clf.save(unsaved), InvalidArgument);
  const auto trained =
      train_blobs(infer_config(Kernel::rbf(0.3), false)).clf;
  const auto& plan = trained.inference_plan();
  std::vector<double> krow(plan.unique_support_vectors());
  const std::vector<double> narrow{1.0, 2.0};
  EXPECT_THROW(plan.kernel_row(narrow, krow), InvalidArgument);
  EXPECT_THROW(trained.predict_proba(narrow), InvalidArgument);
  EXPECT_THROW(trained.predict_batch(Matrix(3, 2, 0.0)), InvalidArgument);
  std::vector<double> short_out(plan.unique_support_vectors() - 1);
  const std::vector<double> x(5, 0.0);
  EXPECT_THROW(plan.kernel_row(x, short_out), InvalidArgument);
}

// ---- SVM-backed service --------------------------------------------------

class SvmServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadGenerator gen(
        workload::WorkloadGenerator::standard({}, 55));
    const auto schema = supremm::AttributeSchema::full();
    const auto train = workload::build_summary_dataset(
        gen.generate_balanced(8), schema, supremm::label_by_application());
    core::JobClassifierConfig cfg;
    cfg.algorithm = core::Algorithm::kSvm;
    cfg.svm.c = 10.0;
    cfg.svm.platt_cv_folds = 2;
    auto clf = std::make_shared<core::JobClassifier>(cfg);
    clf->train(train);
    clf_ = new std::shared_ptr<const core::JobClassifier>(std::move(clf));
    stream_ = new std::vector<supremm::JobSummary>();
    for (const auto& job : gen.generate_native(10)) {
      stream_->push_back(job.summary);
    }
    for (const auto& job : gen.generate_na(50, 0.8)) {
      stream_->push_back(job.summary);
    }
    for (const auto& job : gen.generate_uncategorized(17)) {
      stream_->push_back(job.summary);
    }
  }
  static void TearDownTestSuite() {
    delete clf_;
    delete stream_;
    clf_ = nullptr;
    stream_ = nullptr;
  }
  void SetUp() override { fp::reset(); }
  void TearDown() override { fp::reset(); }

  using Result = core::ClassificationService::IngestResult;
  static void expect_same(const std::vector<Result>& got,
                          const std::vector<Result>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].outcome, want[i].outcome) << "job " << i;
      EXPECT_EQ(got[i].prediction.label, want[i].prediction.label);
      EXPECT_EQ(got[i].prediction.class_name, want[i].prediction.class_name);
      EXPECT_EQ(got[i].prediction.probability, want[i].prediction.probability)
          << "job " << i;
      EXPECT_EQ(got[i].error, want[i].error);
    }
  }

  static std::shared_ptr<const core::JobClassifier>* clf_;
  static std::vector<supremm::JobSummary>* stream_;
};
std::shared_ptr<const core::JobClassifier>* SvmServiceTest::clf_ = nullptr;
std::vector<supremm::JobSummary>* SvmServiceTest::stream_ = nullptr;

// ingest_batch (one batched SVM call) ≡ a serial ingest loop (one
// compiled single query per job), bit for bit, warehouse included.
TEST_F(SvmServiceTest, IngestBatchEqualsSerialIngest) {
  for (const auto isa : available_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    IsaGuard guard(isa);
    core::ClassificationService serial(*clf_, 0.5);
    std::vector<Result> want;
    for (const auto& job : *stream_) want.push_back(serial.ingest(job));
    core::ClassificationService batched(*clf_, 0.5);
    expect_same(batched.ingest_batch(*stream_), want);
    EXPECT_GT(serial.stats().attributed + serial.stats().unresolved, 50u);
    EXPECT_EQ(batched.stats().attributed, serial.stats().attributed);
    EXPECT_EQ(batched.stats().unresolved, serial.stats().unresolved);
    EXPECT_EQ(batched.stats().identified, serial.stats().identified);
    EXPECT_EQ(batched.attributed_cpu_hours(), serial.attributed_cpu_hours());
    EXPECT_EQ(batched.warehouse()->size(), serial.warehouse()->size());
  }
}

// A `thread_pool.chunk` fault raised inside the model's batch sweep
// surfaces from the batched model call, and the service recovers with
// a serial pass whose results equal the fault-free run exactly.
TEST_F(SvmServiceTest, ChunkFaultInBatchSweepFallsBackExactly) {
  core::ClassificationService golden(*clf_, 0.5);
  const auto want = golden.ingest_batch(*stream_);

  const auto& schema = (*clf_)->schema();
  Matrix features;
  for (const auto& job : *stream_) features.append_row(job.extract(schema));
  fp::arm_from_spec("thread_pool.chunk=error(3)*1", /*seed=*/7);
  EXPECT_THROW((*clf_)->predict_features_batch(features), fp::FailpointError);
  fp::reset();

  auto& registry = obs::MetricsRegistry::instance();
  const auto before = registry.snapshot();
  fp::arm_from_spec("thread_pool.chunk=error(3)*1", /*seed=*/7);
  core::ClassificationService faulted(*clf_, 0.5);
  const auto got = faulted.ingest_batch(*stream_);
  EXPECT_EQ(fp::site_stats("thread_pool.chunk").triggers, 1u);
  fp::disarm_all();
  const auto after = registry.snapshot();
  EXPECT_EQ(after.counter("fail.service.batch") -
                before.counter("fail.service.batch"),
            1u);
  expect_same(got, want);
  EXPECT_EQ(faulted.stats().failed, 0u);
}

}  // namespace
}  // namespace xdmodml::ml
