// Round-trip tests for model serialization: standardizer, trees, forest,
// SVM, naive Bayes, and the full JobClassifier pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/job_classifier.hpp"
#include "ml/model_io.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "ml/svm_plan.hpp"
#include "svm_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/dataset_helpers.hpp"
#include "workload/generator.hpp"

namespace xdmodml {
namespace {

using ml::Dataset;

Dataset blob_dataset(std::size_t per_class, std::uint64_t seed = 1) {
  Dataset ds;
  Rng rng(seed);
  ds.class_names = {"a", "b", "c"};
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      ds.X.append_row(std::vector<double>{rng.normal(4.0 * c, 1.0),
                                          rng.normal(-2.0 * c, 1.0)});
      ds.labels.push_back(c);
    }
  }
  return ds;
}

TEST(ModelIo, TokenReaderValidates) {
  std::istringstream in("foo 1.5");
  ml::io::TokenReader reader(in);
  EXPECT_THROW(reader.expect("bar"), InvalidArgument);
  std::istringstream in2("x");
  ml::io::TokenReader reader2(in2);
  EXPECT_THROW(reader2.read_double("x"), InvalidArgument);  // truncated
}

// A corrupt length must fail on the missing elements, not allocate
// what it declares (2^53 doubles is far beyond any address space).
TEST(ModelIo, HugeDeclaredVectorLengthRejected) {
  std::istringstream in("v 9007199254740992 1.5 2.5");
  ml::io::TokenReader reader(in);
  EXPECT_THROW(reader.read_vector("v"), InvalidArgument);
  std::istringstream idx("r 9007199254740992 1 2");
  ml::io::TokenReader idx_reader(idx);
  EXPECT_THROW(idx_reader.read_index_vector("r"), InvalidArgument);
}

// Every number token must be a whole, finite double (util/number_text):
// each rejection is an InvalidArgument, in scalars and in vectors alike.
// A leading '+' is rejected too; no writer emits one.
TEST(ModelIo, NumberTokensMustBeWholeAndFinite) {
  for (const std::string bad :
       {"inf", "-inf", "nan", "0.5x", "1e400", "-1e400", "1e-400", "+1.5",
        "0x1p3", "1e", "."}) {
    std::istringstream in("x " + bad);
    ml::io::TokenReader reader(in);
    EXPECT_THROW(reader.read_double("x"), InvalidArgument) << bad;
    std::istringstream vin("v 3 1.5 " + bad + " 2.5");
    ml::io::TokenReader vreader(vin);
    EXPECT_THROW(vreader.read_vector("v"), InvalidArgument) << bad;
  }
  // An empty token is the end of the stream.
  std::istringstream empty("x ");
  ml::io::TokenReader empty_reader(empty);
  EXPECT_THROW(empty_reader.read_double("x"), InvalidArgument);
  for (const std::string bad : {"+3", "1.5", "3x", "9223372036854775808"}) {
    std::istringstream in("n " + bad);
    ml::io::TokenReader reader(in);
    EXPECT_THROW(reader.read_int("n"), InvalidArgument) << bad;
  }
  std::istringstream neg("r 2 1 -1");
  ml::io::TokenReader neg_reader(neg);
  EXPECT_THROW(neg_reader.read_index_vector("r"), InvalidArgument);
}

// Number and tag tokens are bounded; strings (class names) are not.
TEST(ModelIo, TokenLengthLimits) {
  const std::string digits(ml::io::TokenReader::kMaxToken + 1, '1');
  std::istringstream in("x " + digits);
  ml::io::TokenReader reader(in);
  EXPECT_THROW(reader.read_double("x"), InvalidArgument);
  const std::string name(5000, 'n');
  std::ostringstream out;
  ml::io::write_string(out, "class", name);
  std::istringstream sin(out.str());
  ml::io::TokenReader sreader(sin);
  EXPECT_EQ(sreader.read_string("class"), name);
}

// Loaders share one stream: a reader consumes its token and nothing
// after it, whatever whitespace separates them.
TEST(ModelIo, TokenReaderDoesNotReadPastItsToken) {
  std::istringstream in("a 1.5\tb\v-2\f\r\nc 3 7 8 9\nrest");
  {
    ml::io::TokenReader reader(in);
    EXPECT_EQ(reader.read_double("a"), 1.5);
  }
  EXPECT_EQ(in.peek(), '\t');
  {
    ml::io::TokenReader reader(in);
    EXPECT_EQ(reader.read_int("b"), -2);
  }
  EXPECT_EQ(in.peek(), '\f');
  ml::io::TokenReader reader(in);
  EXPECT_EQ(reader.read_vector("c"), (std::vector<double>{7, 8, 9}));
  EXPECT_EQ(in.peek(), '\n');
  std::string rest;
  in >> rest;
  EXPECT_EQ(rest, "rest");
  EXPECT_THROW(reader.read_tag(), InvalidArgument);  // nothing left
}

// Writers format into their own buffer: the caller's stream precision
// is left alone, and a vector longer than the line buffer is intact.
TEST(ModelIo, WritersLeaveStreamStateAlone) {
  std::ostringstream out;
  out.precision(3);
  ml::io::write_scalar(out, "x", 0.1234567);
  EXPECT_EQ(out.precision(), 3);
  EXPECT_EQ(out.str(), "x 0.1234567\n");
  std::vector<double> values;
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) values.push_back(rng.normal(0.0, 1e10));
  std::ostringstream long_out;
  ml::io::write_vector(long_out, "v", values);
  std::istringstream in(long_out.str());
  ml::io::TokenReader reader(in);
  EXPECT_EQ(reader.read_vector("v"), values);
}

TEST(ModelIo, VectorRoundTrip) {
  std::ostringstream out;
  const std::vector<double> values{1.5, -2.25, 1e-17, 3.0};
  ml::io::write_vector(out, "v", values);
  std::istringstream in(out.str());
  ml::io::TokenReader reader(in);
  EXPECT_EQ(reader.read_vector("v"), values);
}

TEST(ModelIo, StandardizerRoundTrip) {
  const auto ds = blob_dataset(20);
  ml::Standardizer s;
  s.fit(ds.X);
  std::ostringstream out;
  s.save(out);
  std::istringstream in(out.str());
  const auto loaded = ml::Standardizer::load(in);
  const auto a = s.transform(ds.X);
  const auto b = loaded.transform(ds.X);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_DOUBLE_EQ(a(r, c), b(r, c));
    }
  }
  ml::Standardizer unfitted;
  std::ostringstream dummy;
  EXPECT_THROW(unfitted.save(dummy), InvalidArgument);
}

TEST(ModelIo, ForestRoundTripPredictionsIdentical) {
  const auto ds = blob_dataset(50);
  ml::ForestConfig cfg;
  cfg.num_trees = 30;
  ml::RandomForestClassifier rf(cfg, 3);
  rf.fit(ds.X, ds.labels, 3);
  std::ostringstream out;
  rf.save(out);
  std::istringstream in(out.str());
  const auto loaded = ml::RandomForestClassifier::load(in);
  EXPECT_EQ(loaded.num_trees(), rf.num_trees());
  for (std::size_t r = 0; r < ds.X.rows(); ++r) {
    const auto pa = rf.predict_proba(ds.X.row(r));
    const auto pb = loaded.predict_proba(ds.X.row(r));
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t c = 0; c < pa.size(); ++c) {
      EXPECT_DOUBLE_EQ(pa[c], pb[c]);
    }
  }
  // OOB is a training-time artifact, not serialized.
  EXPECT_THROW(loaded.oob_error(), InvalidArgument);
}

// fit → save → load is bit-identical for every kernel form the plan
// evaluates (RBF, linear, integral and non-integral polynomial):
// decision values and probabilities compare with EXPECT_EQ on doubles,
// and re-saving the loaded model reproduces the first save byte for
// byte (the benchmark's retrain gate relies on that).
TEST(ModelIo, SvmRoundTripBitIdenticalAcrossKernels) {
  const auto ds = blob_dataset(30);
  const std::vector<ml::Kernel> kernels = {
      ml::Kernel::rbf(0.5), ml::Kernel::linear(),
      ml::Kernel::polynomial(3.0, 0.5, 1.0),
      ml::Kernel::polynomial(2.5, 0.05, 3.0)};
  Rng rng(5);
  Matrix probes;
  for (int i = 0; i < 20; ++i) {
    probes.append_row(std::vector<double>{rng.normal(4.0, 4.0),
                                          rng.normal(-2.0, 3.0)});
  }
  for (const auto& kernel : kernels) {
    for (const bool probability : {true, false}) {
      SCOPED_TRACE(kernel.name() + (probability ? " proba" : " votes"));
      ml::SvmConfig cfg;
      cfg.kernel = kernel;
      cfg.c = 10.0;
      cfg.probability = probability;
      ml::SvmClassifier svm(cfg, 7);
      svm.fit(ds.X, ds.labels, 3);
      std::ostringstream out;
      svm.save(out);
      const std::string first = out.str();
      ASSERT_EQ(first.rfind("svm-ovo-v2\n", 0), 0u);
      std::istringstream in(first);
      const auto loaded = ml::SvmClassifier::load(in);
      EXPECT_EQ(loaded.num_machines(), svm.num_machines());
      EXPECT_EQ(loaded.total_support_vectors(), svm.total_support_vectors());

      const auto& plan = svm.inference_plan();
      const auto& reloaded = loaded.inference_plan();
      ml::SvmInferencePlan::Scratch scratch;
      std::vector<double> dec(plan.num_machines());
      std::vector<double> dec_loaded(plan.num_machines());
      for (std::size_t r = 0; r < probes.rows(); ++r) {
        const auto x = probes.row(r);
        plan.decision_values(x.data(), 1, scratch, dec.data());
        reloaded.decision_values(x.data(), 1, scratch, dec_loaded.data());
        EXPECT_EQ(dec_loaded, dec) << "probe " << r;
        EXPECT_EQ(loaded.predict_proba(x), svm.predict_proba(x))
            << "probe " << r;
        EXPECT_EQ(loaded.predict(x), svm.predict(x));
      }

      std::ostringstream again;
      loaded.save(again);
      EXPECT_EQ(again.str(), first);
    }
  }
}

// svm-ovo-v2 writes each unique pool row once: the stream holds one
// `pool` vector of unique × dims values, not one row per machine SV.
TEST(ModelIo, SvmV2StoresEachUniqueRowOnce) {
  const auto ds = blob_dataset(30);
  ml::SvmConfig cfg;
  cfg.kernel = ml::Kernel::rbf(0.5);
  cfg.c = 10.0;
  ml::SvmClassifier svm(cfg, 7);
  svm.fit(ds.X, ds.labels, 3);
  std::ostringstream out;
  svm.save(out);
  std::istringstream in(out.str());
  std::string token;
  std::size_t pool_values = 0;
  while (in >> token) {
    ASSERT_NE(token, "sv");
    if (token == "pool") in >> pool_values;
  }
  const auto& plan = svm.inference_plan();
  EXPECT_EQ(pool_values, plan.unique_support_vectors() * plan.dims());
  EXPECT_LT(plan.unique_support_vectors(), plan.total_support_vectors());
}

// ---- semantic validation at the SVM load boundary -----------------------

/// An svm-ovo-v1 stream of `machines` machines that share `kernel`,
/// each with the support vectors [1, 0] (class a) and [0, 1] (class b).
std::string v1_stream(const std::string& classes, const std::string& machines,
                      const std::string& kernel, bool probability = true,
                      const std::string& rho = "0.25") {
  std::string out = "svm-ovo-v1\nclasses " + classes + "\nprobability " +
                    (probability ? "1" : "0") + "\nmachines " + machines +
                    "\n";
  const int n = std::stoi(machines);
  for (int m = 0; m < n; ++m) {
    out += "binary-svm-v1\n" + kernel + "\nrho " + rho +
           "\nhas_platt 1\nplatt_a -2\nplatt_b 0.1\nsvs 2\ndims 2\n"
           "coef 2 1 -1\nsv 2 1 0\nsv 2 0 1\n";
  }
  return out;
}

const char* const kRbf = "kernel_type 1\ngamma 0.5\ndegree 3\ncoef0 0";

bool svm_loads(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)ml::SvmClassifier::load(in);
    return true;
  } catch (const InvalidArgument&) {
    return false;
  }
}

TEST(ModelIo, SvmV1ConversionValidates) {
  // Well-formed streams load, the linear one with `gamma 0` included.
  EXPECT_TRUE(svm_loads(v1_stream("3", "3", kRbf)));
  EXPECT_TRUE(svm_loads(
      v1_stream("3", "3", "kernel_type 0\ngamma 0\ndegree 1\ncoef0 0")));
  EXPECT_TRUE(svm_loads(
      v1_stream("3", "3", "kernel_type 2\ngamma 0.5\ndegree 2.5\ncoef0 1")));
  // k = -1 gives k(k-1)/2 = 1 machine, which used to load and only fail
  // at the first predict.
  EXPECT_FALSE(svm_loads(v1_stream("-1", "1", kRbf)));
  EXPECT_FALSE(svm_loads(v1_stream("1", "0", kRbf)));
  EXPECT_FALSE(svm_loads(v1_stream("3", "2", kRbf)));
  // Non-positive γ used to load and serve p = 0.73.
  EXPECT_FALSE(svm_loads(
      v1_stream("3", "3", "kernel_type 1\ngamma -1\ndegree 3\ncoef0 0")));
  EXPECT_FALSE(svm_loads(
      v1_stream("3", "3", "kernel_type 1\ngamma 0\ndegree 3\ncoef0 0")));
  EXPECT_FALSE(svm_loads(
      v1_stream("3", "3", "kernel_type 2\ngamma 0\ndegree 3\ncoef0 0")));
  EXPECT_FALSE(svm_loads(
      v1_stream("3", "3", "kernel_type 2\ngamma 0.5\ndegree 0\ncoef0 0")));
  EXPECT_FALSE(svm_loads(
      v1_stream("3", "3", "kernel_type 2\ngamma 0.5\ndegree -2\ncoef0 0")));
}

TEST(ModelIo, SvmV1ProbabilityModelNeedsEveryPlattSigmoid) {
  auto text = v1_stream("3", "3", kRbf);
  const auto pos = text.rfind("has_platt 1");
  text.replace(pos, 11, "has_platt 0");
  EXPECT_FALSE(svm_loads(text));
  // Without probability fitting a machine's sigmoid is not needed.
  auto votes = v1_stream("3", "3", kRbf, /*probability=*/false);
  votes.replace(votes.rfind("has_platt 1"), 11, "has_platt 0");
  EXPECT_TRUE(svm_loads(votes));
}

/// A valid 3-class svm-ovo-v2 stream with one SV per class, with the
/// line that starts with `key` replaced by `line`.
std::string v2_stream(const std::string& key = "",
                      const std::string& line = "") {
  std::vector<std::string> lines = {
      "svm-ovo-v2",          "classes 3",          "probability 1",
      "kernel_type 1",       "gamma 0.5",          "degree 3",
      "coef0 0",             "dims 2",             "total_svs 6",
      "class_rows 3 1 1 1",  "pool 6 1 0 0 1 1 1", "coef 6 1 1 -1 1 -1 -1",
      "rho 3 0.1 0.2 0.3",   "platt 6 -2 0 -2 0 -2 0"};
  std::string out;
  for (const auto& l : lines) {
    const bool hit = !key.empty() && l.rfind(key + " ", 0) == 0;
    out += (hit ? line : l) + "\n";
  }
  return out;
}

TEST(ModelIo, SvmV2Validates) {
  ASSERT_TRUE(svm_loads(v2_stream()));
  EXPECT_FALSE(svm_loads(v2_stream("classes", "classes 1")));
  EXPECT_FALSE(svm_loads(v2_stream("classes", "classes -1")));
  EXPECT_FALSE(svm_loads(v2_stream("gamma", "gamma -1")));
  EXPECT_FALSE(svm_loads(v2_stream("gamma", "gamma 0")));
  EXPECT_FALSE(svm_loads(v2_stream("kernel_type", "kernel_type 7")));
  // Row counts must sum to the pool rows...
  EXPECT_FALSE(svm_loads(v2_stream("class_rows", "class_rows 3 1 1 2")));
  EXPECT_FALSE(svm_loads(v2_stream("class_rows", "class_rows 2 2 1")));
  EXPECT_FALSE(svm_loads(v2_stream("pool", "pool 5 1 0 0 1 1")));
  // ...and match the coefficient width.
  EXPECT_FALSE(svm_loads(v2_stream("coef", "coef 4 1 1 -1 1")));
  EXPECT_FALSE(svm_loads(v2_stream("rho", "rho 2 0.1 0.2")));
  EXPECT_FALSE(svm_loads(v2_stream("platt", "platt 4 -2 0 -2 0")));
  EXPECT_FALSE(svm_loads(v2_stream("total_svs", "total_svs 2")));
  EXPECT_FALSE(svm_loads(v2_stream("dims", "dims 0")));
  // A linear kernel ignores γ.
  auto linear = v2_stream("kernel_type", "kernel_type 0");
  linear.replace(linear.find("gamma 0.5"), 9, "gamma 0");
  EXPECT_TRUE(svm_loads(linear));
}

TEST(ModelIo, NaiveBayesRoundTrip) {
  const auto ds = blob_dataset(30);
  ml::NaiveBayesClassifier nb;
  nb.fit(ds.X, ds.labels, 4);  // one class unseen -> -inf prior path
  std::ostringstream out;
  nb.save(out);
  std::istringstream in(out.str());
  const auto loaded = ml::NaiveBayesClassifier::load(in);
  for (std::size_t r = 0; r < ds.X.rows(); ++r) {
    const auto pa = nb.predict_proba(ds.X.row(r));
    const auto pb = loaded.predict_proba(ds.X.row(r));
    for (std::size_t c = 0; c < pa.size(); ++c) {
      EXPECT_DOUBLE_EQ(pa[c], pb[c]);
    }
  }
}

TEST(ModelIo, JobClassifierFullPipelineRoundTrip) {
  auto gen = workload::WorkloadGenerator::standard({}, 21);
  std::vector<workload::GeneratedJob> jobs;
  for (const auto& app : {"VASP", "NAMD", "PYTHON"}) {
    auto batch = gen.generate_for(app, 40);
    jobs.insert(jobs.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
  const auto schema = supremm::AttributeSchema::full();
  const auto train = workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application());

  core::JobClassifierConfig cfg;
  cfg.algorithm = core::Algorithm::kRandomForest;
  cfg.forest.num_trees = 40;
  core::JobClassifier clf(cfg);
  clf.train(train);

  std::ostringstream out;
  clf.save(out);
  std::istringstream in(out.str());
  const auto loaded = core::JobClassifier::load(in);

  EXPECT_EQ(loaded.class_names(), clf.class_names());
  EXPECT_EQ(loaded.schema().names(), clf.schema().names());
  for (const auto& job : jobs) {
    const auto a = clf.predict(job.summary);
    const auto b = loaded.predict(job.summary);
    EXPECT_EQ(a.class_name, b.class_name);
    EXPECT_DOUBLE_EQ(a.probability, b.probability);
  }
}

TEST(ModelIo, JobClassifierSvmRoundTrip) {
  auto gen = workload::WorkloadGenerator::standard({}, 22);
  std::vector<workload::GeneratedJob> jobs;
  for (const auto& app : {"VASP", "GROMACS"}) {
    auto batch = gen.generate_for(app, 30);
    jobs.insert(jobs.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
  const auto schema = supremm::AttributeSchema::full();
  const auto train = workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application());
  core::JobClassifierConfig cfg;
  cfg.algorithm = core::Algorithm::kSvm;
  core::JobClassifier clf(cfg);
  clf.train(train);
  std::ostringstream out;
  clf.save(out);
  std::istringstream in(out.str());
  const auto loaded = core::JobClassifier::load(in);
  for (const auto& job : jobs) {
    EXPECT_EQ(clf.predict(job.summary).class_name,
              loaded.predict(job.summary).class_name);
  }
}

TEST(ModelIo, ForestRegressorRoundTrip) {
  Rng rng(41);
  Matrix X;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.uniform(0.0, 5.0);
    X.append_row(std::vector<double>{a, rng.normal()});
    y.push_back(3.0 * a + rng.normal(0.0, 0.1));
  }
  ml::ForestConfig cfg;
  cfg.num_trees = 25;
  ml::RandomForestRegressor rf(cfg, 5);
  rf.fit(X, y);
  std::ostringstream out;
  rf.save(out);
  std::istringstream in(out.str());
  const auto loaded = ml::RandomForestRegressor::load(in);
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_DOUBLE_EQ(loaded.predict(X.row(r)), rf.predict(X.row(r)));
  }
  EXPECT_THROW(loaded.oob_mse(), InvalidArgument);
}

TEST(ModelIo, SvrRoundTrip) {
  Rng rng(43);
  Matrix X;
  std::vector<double> y;
  for (int i = 0; i < 120; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    X.append_row(std::vector<double>{a});
    y.push_back(std::sin(a));
  }
  ml::SvmConfig cfg;
  cfg.kernel = ml::Kernel::rbf(1.0);
  cfg.c = 50.0;
  cfg.epsilon = 0.05;
  ml::SvmRegressor svr(cfg);
  svr.fit(X, y);
  std::ostringstream out;
  svr.save(out);
  std::istringstream in(out.str());
  const auto loaded = ml::SvmRegressor::load(in);
  EXPECT_EQ(loaded.num_support_vectors(), svr.num_support_vectors());
  for (double a = -1.5; a <= 1.5; a += 0.25) {
    EXPECT_DOUBLE_EQ(loaded.predict(std::vector<double>{a}),
                     svr.predict(std::vector<double>{a}));
  }
}

TEST(ModelIo, CorruptStreamsRejected) {
  std::istringstream garbage("not-a-model 42");
  EXPECT_THROW(ml::RandomForestClassifier::load(garbage), InvalidArgument);
  std::istringstream truncated("forest-v1 classes 3");
  EXPECT_THROW(ml::RandomForestClassifier::load(truncated),
               InvalidArgument);
  std::istringstream wrong_algo(
      "job-classifier-v1 algorithm quantum classes 1 class x");
  EXPECT_THROW(core::JobClassifier::load(wrong_algo), InvalidArgument);
}

// ---- old 17-digit streams ----------------------------------------------

/// Reference for the older writer, which put every double through
/// `ostream <<` at max_digits10, i.e. "%.17g", and wrote integers in
/// plain decimal, which "%.17g" reproduces below 2^53: `stream` with
/// each numeric token re-rendered with "%.17g".
std::string as_17g(const std::string& stream) {
  std::string out;
  std::size_t i = 0;
  while (i < stream.size()) {
    const std::size_t end = std::min(stream.find_first_of(" \n", i),
                                     stream.size());
    const std::string token = stream.substr(i, end - i);
    const bool numeric =
        !token.empty() &&
        (std::isdigit(static_cast<unsigned char>(token[0])) ||
         (token[0] == '-' && token.size() > 1 &&
          std::isdigit(static_cast<unsigned char>(token[1]))));
    if (numeric) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", std::strtod(token.c_str(),
                                                          nullptr));
      out += buf;
    } else {
      out += token;
    }
    if (end < stream.size()) out += stream[end];
    i = end + 1;
  }
  return out;
}

/// "%a" of each value: a hex-float compare, exact to the bit.
std::string hex(std::span<const double> values) {
  std::string out;
  for (const double v : values) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a ", v);
    out += buf;
  }
  return out;
}

template <class Model>
std::string saved(const Model& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

template <class Model>
Model loaded(const std::string& text) {
  std::istringstream in(text);
  return Model::load(in);
}

/// A model saved now and the same stream at 17 digits both load to
/// models that re-save to the same bytes (shortest text names exactly
/// one double, so every serialized value is bit-identical) and whose
/// `predict(model, x)` agree bit for bit with `reference` on each probe.
template <class Model, class Predict>
void expect_17g_stream_loads_identically(const Model& reference,
                                         const Matrix& probes,
                                         Predict predict) {
  const std::string now = saved(reference);
  const std::string old = as_17g(now);
  ASSERT_NE(old, now);  // the shortest writer did shorten something
  EXPECT_LT(now.size(), old.size());
  const auto from_now = loaded<Model>(now);
  const auto from_old = loaded<Model>(old);
  EXPECT_EQ(saved(from_now), now);  // save -> load -> save
  EXPECT_EQ(saved(from_old), now);
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    const auto want = hex(predict(reference, probes.row(r)));
    EXPECT_EQ(hex(predict(from_now, probes.row(r))), want) << "probe " << r;
    EXPECT_EQ(hex(predict(from_old, probes.row(r))), want) << "probe " << r;
  }
}

const auto kProba = [](const auto& model, std::span<const double> x) {
  return model.predict_proba(x);
};

TEST(ModelIo, Old17DigitSvmV2StreamLoadsBitIdentically) {
  const auto ds = blob_dataset(30);
  for (const bool probability : {true, false}) {
    ml::SvmConfig cfg;
    cfg.kernel = ml::Kernel::rbf(0.37);
    cfg.c = 10.0;
    cfg.probability = probability;
    ml::SvmClassifier svm(cfg, 7);
    svm.fit(ds.X, ds.labels, 3);
    expect_17g_stream_loads_identically(
        svm, ds.X, [](const ml::SvmClassifier& m, std::span<const double> x) {
          std::vector<double> dec(m.inference_plan().num_machines());
          ml::SvmInferencePlan::Scratch scratch;
          m.inference_plan().decision_values(x.data(), 1, scratch,
                                             dec.data());
          const auto p = m.predict_proba(x);
          dec.insert(dec.end(), p.begin(), p.end());
          return dec;
        });
  }
}

TEST(ModelIo, Old17DigitSvmV1StreamLoadsBitIdentically) {
  const auto ds = blob_dataset(25);
  ml::SvmConfig cfg;
  cfg.kernel = ml::Kernel::rbf(0.37);
  cfg.c = 10.0;
  cfg.probability = true;
  const auto machines = ml::fit_one_vs_one(ds.X, ds.labels, 3, cfg, 7);
  // svm-ovo-v1 has no writer in the library any more; spell it out.
  std::ostringstream out;
  ml::io::write_tag(out, "svm-ovo-v1");
  ml::io::write_scalar(out, "classes", std::int64_t{3});
  ml::io::write_scalar(out, "probability", std::int64_t{1});
  ml::io::write_scalar(out, "machines",
                       static_cast<std::int64_t>(machines.size()));
  for (const auto& m : machines) {
    ml::io::write_tag(out, "binary-svm-v1");
    ml::io::write_scalar(out, "kernel_type",
                         static_cast<std::int64_t>(m.kernel().type));
    ml::io::write_scalar(out, "gamma", m.kernel().gamma);
    ml::io::write_scalar(out, "degree", m.kernel().degree);
    ml::io::write_scalar(out, "coef0", m.kernel().coef0);
    ml::io::write_scalar(out, "rho", m.rho());
    ml::io::write_scalar(out, "has_platt", std::int64_t{1});
    ml::io::write_scalar(out, "platt_a", m.sigmoid().a);
    ml::io::write_scalar(out, "platt_b", m.sigmoid().b);
    const auto& svs = m.support_vectors();
    ml::io::write_scalar(out, "svs", static_cast<std::int64_t>(svs.rows()));
    ml::io::write_scalar(out, "dims", static_cast<std::int64_t>(svs.cols()));
    ml::io::write_vector(out, "coef", m.coefficients());
    for (std::size_t r = 0; r < svs.rows(); ++r) {
      ml::io::write_vector(out, "sv", svs.row(r));
    }
  }
  const std::string now = out.str();
  const std::string old = as_17g(now);
  ASSERT_NE(old, now);
  const auto from_now = loaded<ml::SvmClassifier>(now);
  const auto from_old = loaded<ml::SvmClassifier>(old);
  EXPECT_EQ(saved(from_old), saved(from_now));
  std::istringstream ref_in(old);
  const auto reference = ml::reference::OneVsOne::from_v1(ref_in);
  for (std::size_t r = 0; r < ds.X.rows(); ++r) {
    const auto x = ds.X.row(r);
    EXPECT_EQ(hex(from_old.predict_proba(x)), hex(from_now.predict_proba(x)));
    std::vector<double> fitted;
    for (const auto& m : machines) fitted.push_back(m.decision_value(x));
    EXPECT_EQ(hex(reference.decision_values(x)), hex(fitted)) << "row " << r;
  }
}

TEST(ModelIo, Old17DigitForestStreamLoadsBitIdentically) {
  const auto ds = blob_dataset(40);
  ml::ForestConfig cfg;
  cfg.num_trees = 20;
  ml::RandomForestClassifier rf(cfg, 3);
  rf.fit(ds.X, ds.labels, 3);
  expect_17g_stream_loads_identically(rf, ds.X, kProba);
}

TEST(ModelIo, Old17DigitNaiveBayesStreamLoadsBitIdentically) {
  const auto ds = blob_dataset(30);
  ml::NaiveBayesClassifier nb;
  nb.fit(ds.X, ds.labels, 4);  // unseen class: the -1e308 prior sentinel
  expect_17g_stream_loads_identically(nb, ds.X, kProba);
}

TEST(ModelIo, Old17DigitStandardizerStreamLoadsBitIdentically) {
  const auto ds = blob_dataset(20);
  ml::Standardizer s;
  s.fit(ds.X);
  expect_17g_stream_loads_identically(
      s, ds.X, [](const ml::Standardizer& m, std::span<const double> x) {
        std::vector<double> row(x.begin(), x.end());
        m.transform_row(row);
        return row;
      });
}

TEST(ModelIo, Old17DigitJobClassifierStreamsLoadBitIdentically) {
  auto gen = workload::WorkloadGenerator::standard({}, 23);
  std::vector<workload::GeneratedJob> jobs;
  for (const auto& app : {"VASP", "NAMD", "GROMACS"}) {
    auto batch = gen.generate_for(app, 25);
    jobs.insert(jobs.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
  const auto schema = supremm::AttributeSchema::full();
  const auto train = workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application());
  for (const auto algorithm :
       {core::Algorithm::kRandomForest, core::Algorithm::kSvm,
        core::Algorithm::kNaiveBayes}) {
    core::JobClassifierConfig cfg;
    cfg.algorithm = algorithm;
    cfg.forest.num_trees = 15;
    core::JobClassifier clf(cfg);
    clf.train(train);
    expect_17g_stream_loads_identically(
        clf, train.X,
        [](const core::JobClassifier& m, std::span<const double> x) {
          const auto p = m.predict_features(x);
          return std::vector<double>{static_cast<double>(p.label),
                                     p.probability};
        });
  }
}

// Standardizer load boundary: means finite, scales finite and positive.
// (Non-finite tokens already fail in the number codec.)
TEST(ModelIo, StandardizerLoadRejectsBadMeansAndScales) {
  const auto load = [](const std::string& text) {
    std::istringstream in(text);
    return ml::Standardizer::load(in);
  };
  EXPECT_NO_THROW(load("standardizer-v1\nmeans 2 0 1\nscales 2 1 2\n"));
  for (const char* bad :
       {"standardizer-v1\nmeans 2 0 nan\nscales 2 1 2\n",
        "standardizer-v1\nmeans 2 0 1e400\nscales 2 1 2\n",
        "standardizer-v1\nmeans 2 0 1\nscales 2 1 inf\n",
        "standardizer-v1\nmeans 2 0 1\nscales 2 1 0\n",
        "standardizer-v1\nmeans 2 0 1\nscales 2 1 -1\n"}) {
    EXPECT_THROW(load(bad), InvalidArgument) << bad;
  }
}

}  // namespace
}  // namespace xdmodml
