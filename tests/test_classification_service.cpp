// Tests for the streaming classification service.
#include "core/classification_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "workload/dataset_helpers.hpp"
#include "workload/generator.hpp"

namespace xdmodml::core {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen_ = new workload::WorkloadGenerator(
        workload::WorkloadGenerator::standard({}, 321));
    const auto train_jobs = gen_->generate_balanced(40);
    const auto schema = supremm::AttributeSchema::full();
    const auto train = workload::build_summary_dataset(
        train_jobs, schema, supremm::label_by_application());
    JobClassifierConfig cfg;
    cfg.algorithm = Algorithm::kRandomForest;
    cfg.forest.num_trees = 60;
    auto clf = std::make_shared<JobClassifier>(cfg);
    clf->train(train);
    clf_ = new std::shared_ptr<const JobClassifier>(std::move(clf));
  }
  static void TearDownTestSuite() {
    delete gen_;
    delete clf_;
    gen_ = nullptr;
    clf_ = nullptr;
  }
  static workload::WorkloadGenerator* gen_;
  static std::shared_ptr<const JobClassifier>* clf_;
};
workload::WorkloadGenerator* ServiceTest::gen_ = nullptr;
std::shared_ptr<const JobClassifier>* ServiceTest::clf_ = nullptr;

TEST_F(ServiceTest, IdentifiedJobsPassThrough) {
  ClassificationService service(*clf_, 0.9);
  const auto jobs = gen_->generate_native(20);
  for (const auto& job : jobs) {
    const auto result = service.ingest(job.summary);
    EXPECT_EQ(result.outcome, ClassificationService::Outcome::kIdentified);
  }
  EXPECT_EQ(service.stats().identified, 20u);
  EXPECT_EQ(service.stats().attributed, 0u);
  EXPECT_EQ(service.warehouse()->size(), 20u);
}

TEST_F(ServiceTest, CommunityNaJobsGetAttributed) {
  ClassificationService service(*clf_, 0.5);
  // NA pool of pure community jobs: many should clear the threshold.
  const auto jobs = gen_->generate_na(60, /*community_fraction=*/1.0);
  for (const auto& job : jobs) service.ingest(job.summary);
  EXPECT_GT(service.stats().attributed, 25u);
  EXPECT_EQ(service.stats().identified, 0u);
  // Attributed CPU hours recorded per application.
  EXPECT_FALSE(service.attributed_cpu_hours().empty());
  // Warehouse sees the attributed application names.
  xdmod::Filter na_filter;
  na_filter.label_source = supremm::LabelSource::kNotAvailable;
  std::size_t with_app = 0;
  {
    // Hold the view across the query loop so the returned pointers stay
    // pinned, and release it before touching stats() below — the view
    // owns the same mutex.
    const auto view = service.warehouse();
    for (const auto* job : view->query(na_filter)) {
      if (!job->application.empty()) ++with_app;
    }
  }
  EXPECT_EQ(with_app, service.stats().attributed);
}

TEST_F(ServiceTest, CustomCodesStayUnresolved) {
  ClassificationService service(*clf_, 0.9);
  const auto jobs = gen_->generate_uncategorized(50);
  for (const auto& job : jobs) service.ingest(job.summary);
  EXPECT_GT(service.stats().unresolved, 40u);
}

TEST_F(ServiceTest, ReportMentionsCounts) {
  ClassificationService service(*clf_, 0.9);
  service.ingest(gen_->generate_native(1).front().summary);
  const auto text = service.report();
  EXPECT_NE(text.find("1 jobs ingested"), std::string::npos);
  EXPECT_NE(text.find("1 identified"), std::string::npos);
}

TEST_F(ServiceTest, IngestBatchMatchesSerialIngest) {
  // The batched path must be outcome-for-outcome identical to a serial
  // ingest loop: same per-job results, same tallies, same warehouse.
  auto mixed = gen_->generate_native(15);
  for (auto& job : gen_->generate_na(25, /*community_fraction=*/1.0)) {
    mixed.push_back(std::move(job));
  }
  for (auto& job : gen_->generate_uncategorized(10)) {
    mixed.push_back(std::move(job));
  }

  ClassificationService serial(*clf_, 0.5);
  ClassificationService batched(*clf_, 0.5);
  std::vector<ClassificationService::IngestResult> serial_results;
  std::vector<supremm::JobSummary> batch;
  for (const auto& job : mixed) {
    serial_results.push_back(serial.ingest(job.summary));
    batch.push_back(job.summary);
  }
  const auto batch_results = batched.ingest_batch(std::move(batch));

  ASSERT_EQ(batch_results.size(), serial_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_EQ(batch_results[i].outcome, serial_results[i].outcome);
    EXPECT_EQ(batch_results[i].prediction.class_name,
              serial_results[i].prediction.class_name);
    EXPECT_DOUBLE_EQ(batch_results[i].prediction.probability,
                     serial_results[i].prediction.probability);
  }
  EXPECT_EQ(batched.stats().identified, serial.stats().identified);
  EXPECT_EQ(batched.stats().attributed, serial.stats().attributed);
  EXPECT_EQ(batched.stats().unresolved, serial.stats().unresolved);
  EXPECT_EQ(batched.warehouse()->size(), serial.warehouse()->size());
  EXPECT_EQ(batched.attributed_cpu_hours(), serial.attributed_cpu_hours());
}

TEST_F(ServiceTest, ConcurrentIngestKeepsExactTallies) {
  // The header promises several threads may share one service: hammer a
  // single instance from four threads and require *exact* tallies —
  // with the old unguarded stats_ the increments raced and drifted.
  ClassificationService service(*clf_, 0.5);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kJobsPerThread = 30;
  std::vector<std::vector<workload::GeneratedJob>> work;
  std::size_t expected_identified = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    // Alternate pools so identified and classified paths interleave.
    auto jobs = t % 2 == 0
                    ? gen_->generate_native(kJobsPerThread)
                    : gen_->generate_na(kJobsPerThread, 1.0);
    for (const auto& job : jobs) {
      if (job.summary.label_source == supremm::LabelSource::kIdentified) {
        ++expected_identified;
      }
    }
    work.push_back(std::move(jobs));
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &work, t] {
      for (const auto& job : work[t]) service.ingest(job.summary);
    });
  }
  for (auto& th : threads) th.join();

  const auto stats = service.stats();
  EXPECT_EQ(stats.total(), kThreads * kJobsPerThread);
  EXPECT_EQ(stats.identified, expected_identified);
  EXPECT_EQ(service.warehouse()->size(), kThreads * kJobsPerThread);
}

TEST_F(ServiceTest, ConcurrentIngestBatchKeepsExactTallies) {
  // ingest_batch itself fans out on the shared pool; several threads
  // calling it on one service must still produce exact totals.
  ClassificationService service(*clf_, 0.5);
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kJobsPerThread = 40;
  std::vector<std::vector<supremm::JobSummary>> batches;
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::vector<supremm::JobSummary> batch;
    for (const auto& job : gen_->generate_na(kJobsPerThread, 1.0)) {
      batch.push_back(job.summary);
    }
    batches.push_back(std::move(batch));
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &batches, t] {
      service.ingest_batch(std::move(batches[t]));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(service.stats().total(), kThreads * kJobsPerThread);
  EXPECT_EQ(service.warehouse()->size(), kThreads * kJobsPerThread);
}

TEST_F(ServiceTest, WarehouseViewBlocksConcurrentIngest) {
  // Regression test for the old reference escape: warehouse() used to
  // return the warehouse with no synchronization, so a reader could
  // race ingest (TSan flagged the map mutation under the reader's
  // feet) and watch the size change mid-read.  The locked view pins
  // the warehouse: while a view is alive the contents are frozen.
  ClassificationService service(*clf_, 0.5);
  const auto seed_jobs = gen_->generate_native(5);
  for (const auto& job : seed_jobs) service.ingest(job.summary);

  std::atomic<bool> stop{false};
  std::thread ingester([&] {
    const auto jobs = gen_->generate_native(64);
    std::size_t i = 0;
    while (!stop.load()) {
      service.ingest(jobs[i % jobs.size()].summary);
      ++i;
    }
  });
  for (int round = 0; round < 50; ++round) {
    const auto view = service.warehouse();
    const std::size_t size_first = view->size();
    const std::size_t size_again = view->size();
    EXPECT_EQ(size_first, size_again);
    // Query results stay valid for the lifetime of the view and agree
    // with the frozen size.
    EXPECT_EQ(view->query({}).size(), size_first);
  }
  stop.store(true);
  ingester.join();
  EXPECT_GE(service.warehouse()->size(), seed_jobs.size());
}

TEST_F(ServiceTest, MetricsSnapshotMatchesIngestTallies) {
  // The observability counters must agree exactly with the service's
  // own tallies.  Outcome counters are process-global and always-on, so
  // the assertion is on before/after deltas.
  const bool prev_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();
  const auto before = registry.snapshot();

  ClassificationService service(*clf_, 0.5);
  auto jobs = gen_->generate_native(10);
  for (auto& job : gen_->generate_na(30, /*community_fraction=*/1.0)) {
    jobs.push_back(std::move(job));
  }
  for (auto& job : gen_->generate_uncategorized(10)) {
    jobs.push_back(std::move(job));
  }
  for (const auto& job : jobs) service.ingest(job.summary);

  const auto stats = service.stats();
  const auto after = registry.snapshot();
  EXPECT_EQ(after.counter("service.identified") -
                before.counter("service.identified"),
            stats.identified);
  EXPECT_EQ(after.counter("service.attributed") -
                before.counter("service.attributed"),
            stats.attributed);
  EXPECT_EQ(after.counter("service.unresolved") -
                before.counter("service.unresolved"),
            stats.unresolved);

  // With the toggle on, every ingest timed exactly one classify and one
  // commit into the latency histograms.
  const auto* classify_before = before.histogram("service.classify_ns");
  const auto* commit_before = before.histogram("service.commit_ns");
  const auto* classify_after = after.histogram("service.classify_ns");
  const auto* commit_after = after.histogram("service.commit_ns");
  ASSERT_NE(classify_after, nullptr);
  ASSERT_NE(commit_after, nullptr);
  const auto count_of = [](const obs::MetricsSnapshot::HistogramValue* h) {
    return h == nullptr ? std::uint64_t{0} : h->count;
  };
  EXPECT_EQ(classify_after->count - count_of(classify_before), stats.total());
  EXPECT_EQ(commit_after->count - count_of(commit_before), stats.total());

  // report() embeds the registry snapshot while the toggle is on...
  EXPECT_NE(service.report().find("-- metrics snapshot --"),
            std::string::npos);
  EXPECT_NE(service.report().find("counter service.identified"),
            std::string::npos);
  // ...and stays a plain service summary when it is off.
  obs::set_enabled(false);
  EXPECT_EQ(service.report().find("-- metrics snapshot --"),
            std::string::npos);
  obs::set_enabled(prev_enabled);
}

/// The saved stream of `clf` with `edit` applied to every line.
template <class Edit>
std::string edited_stream(const JobClassifier& clf, Edit edit) {
  std::stringstream saved;
  clf.save(saved);
  std::ostringstream out;
  std::string line;
  while (std::getline(saved, line)) out << edit(line) << '\n';
  return out.str();
}

// A forest stream whose leaf distributions hold 1.5e17 used to load and
// serve p > 1; the tree loader now rejects any classification leaf that
// is not finite, non-negative and summing to 1.
TEST_F(ServiceTest, PoisonedLeafStreamIsRejectedAtLoad) {
  const auto crafted = edited_stream(**clf_, [](const std::string& line) {
    // Leaf distributions are "p <n> <v1> ... <vn>": poison v1.
    if (line.rfind("p ", 0) != 0 || line == "p 0") return line;
    std::istringstream fields(line.substr(2));
    std::size_t n = 0;
    double first = 0.0;
    fields >> n >> first;
    std::string rest;
    std::getline(fields, rest);
    return "p " + std::to_string(n) + " 1.5e17" + rest;
  });
  std::istringstream in(crafted);
  EXPECT_THROW((void)JobClassifier::load(in), InvalidArgument);
}

// The tree loader lets a leaf's probabilities sum to 1 within
// TreeEngine::kLeafSumTolerance (1e-9), so a crafted forest whose every
// leaf is {1 + 5e-10, 0, ...} loads and serves p = 1 + 5e-10.  The
// service's output contract is what keeps the job from being attributed:
// it must fail, count service.invalid_output and be dead-lettered, on
// both ingest paths.
TEST_F(ServiceTest, InvalidModelOutputFailsInsteadOfAttributing) {
  const auto crafted = edited_stream(**clf_, [](const std::string& line) {
    if (line.rfind("p ", 0) != 0 || line == "p 0") return line;
    std::istringstream fields(line.substr(2));
    std::size_t n = 0;
    fields >> n;
    std::string out = "p " + std::to_string(n) + " 1.0000000005";
    for (std::size_t c = 1; c < n; ++c) out += " 0";
    return out;
  });
  std::istringstream in(crafted);
  const auto bad =
      std::make_shared<const JobClassifier>(JobClassifier::load(in));
  const auto job = gen_->generate_na(1, /*community_fraction=*/1.0)
                       .front()
                       .summary;
  ASSERT_GT(bad->predict(job).probability, 1.0);  // the model serves garbage

  auto& invalid =
      obs::MetricsRegistry::instance().counter("service.invalid_output");
  const std::uint64_t before = invalid.value();
  ClassificationService service(bad, 0.5);
  std::vector<ClassificationService::IngestResult> results;
  results.push_back(service.ingest(job));
  for (auto& r : service.ingest_batch({job, job})) results.push_back(r);
  for (const auto& r : results) {
    EXPECT_EQ(r.outcome, ClassificationService::Outcome::kFailed);
    EXPECT_NE(r.error.find("invalid model output"), std::string::npos)
        << r.error;
  }
  EXPECT_EQ(service.stats().attributed, 0u);
  EXPECT_EQ(service.stats().failed, 3u);
  EXPECT_EQ(service.warehouse()->dead_letters().size(), 3u);
  EXPECT_EQ(invalid.value() - before, 3u);
}

TEST_F(ServiceTest, Validation) {
  EXPECT_THROW(ClassificationService(*clf_, 1.5), InvalidArgument);
  EXPECT_THROW(ClassificationService(nullptr, 0.9), InvalidArgument);
  JobClassifierConfig cfg;
  const auto untrained = std::make_shared<const JobClassifier>(cfg);
  EXPECT_THROW(ClassificationService(untrained, 0.9), InvalidArgument);
}

}  // namespace
}  // namespace xdmodml::core
