#include "core/classification_service.hpp"

#include <chrono>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace xdmodml::core {

namespace {

/// Serving-path metrics, registered once per process.
struct ServiceMetrics {
  obs::Counter& identified =
      obs::MetricsRegistry::instance().counter("service.identified");
  obs::Counter& attributed =
      obs::MetricsRegistry::instance().counter("service.attributed");
  obs::Counter& unresolved =
      obs::MetricsRegistry::instance().counter("service.unresolved");
  obs::Histogram& classify_ns =
      obs::MetricsRegistry::instance().histogram("service.classify_ns", "ns");
  obs::Histogram& commit_ns =
      obs::MetricsRegistry::instance().histogram("service.commit_ns", "ns");
  obs::Histogram& batch_ns = obs::MetricsRegistry::instance().histogram(
      "service.ingest_batch_ns", "ns");
  obs::Counter& failed =
      obs::MetricsRegistry::instance().counter("service.failed");
  obs::Counter& invalid_output =
      obs::MetricsRegistry::instance().counter("service.invalid_output");
  obs::Counter& classify_failures =
      obs::MetricsRegistry::instance().counter("fail.service.classify");
  obs::Counter& timeouts =
      obs::MetricsRegistry::instance().counter("fail.service.timeout");
  obs::Counter& batch_failures =
      obs::MetricsRegistry::instance().counter("fail.service.batch");
  obs::Counter& batch_serial_retries =
      obs::MetricsRegistry::instance().counter("retry.service.batch_serial");

  static ServiceMetrics& get() {
    static ServiceMetrics m;
    return m;
  }
};

}  // namespace

ClassificationService::ClassificationService(
    std::shared_ptr<const JobClassifier> classifier, double threshold)
    : ClassificationService(std::move(classifier), threshold, Limits{}) {}

ClassificationService::ClassificationService(
    std::shared_ptr<const JobClassifier> classifier, double threshold,
    Limits limits)
    : classifier_(std::move(classifier)), threshold_(threshold),
      limits_(limits) {
  XDMODML_CHECK(classifier_ != nullptr && classifier_->trained(),
                "service requires a trained classifier");
  XDMODML_CHECK(threshold >= 0.0 && threshold <= 1.0,
                "threshold must be in [0, 1]");
}

ClassificationService::IngestResult ClassificationService::classify(
    const supremm::JobSummary& job) const {
  // Unnamed span: per-job latency lands in the histogram without
  // flooding the trace ring (batches classify thousands of jobs).
  auto& metrics = ServiceMetrics::get();
  obs::ScopedTimer timer(metrics.classify_ns);
  // The deadline clock runs only when a deadline is set, keeping the
  // no-limits hot path clock-free (util/metrics.hpp cost rules).
  using Clock = std::chrono::steady_clock;
  const auto start = limits_.classify_timeout_ms > 0 ? Clock::now()
                                                     : Clock::time_point{};
  auto triaged = triage(job);
  IngestResult result = triaged ? std::move(*triaged) : predict_one(job);
  if (limits_.classify_timeout_ms > 0 && result.outcome != Outcome::kFailed) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - start);
    if (elapsed.count() >= 0 &&
        static_cast<std::uint64_t>(elapsed.count()) >
            limits_.classify_timeout_ms) {
      // Cooperative deadline: the work already ran, but an overrun
      // request is reported as a failure instead of a silently slow
      // success, so callers can shed load deterministically.
      result.outcome = Outcome::kFailed;
      result.error = "classify deadline exceeded (" +
                     std::to_string(elapsed.count()) + " ms > " +
                     std::to_string(limits_.classify_timeout_ms) + " ms)";
      metrics.timeouts.inc();
    }
  }
  return result;
}

namespace {

ClassificationService::IngestResult classify_failure(const std::exception& e) {
  ClassificationService::IngestResult result;
  result.outcome = ClassificationService::Outcome::kFailed;
  result.error = std::string("classify failed: ") + e.what();
  ServiceMetrics::get().classify_failures.inc();
  return result;
}

}  // namespace

std::optional<ClassificationService::IngestResult>
ClassificationService::triage(const supremm::JobSummary& job) const {
  try {
    // `service.classify` is the catch-all request fault: an error policy
    // models a classifier crash, a delay policy a slow model (which the
    // deadline check then turns into a structured timeout).
    XDMODML_FAILPOINT("service.classify");
  } catch (const std::exception& e) {
    return classify_failure(e);
  }
  if (job.label_source != supremm::LabelSource::kIdentified) {
    return std::nullopt;
  }
  IngestResult result;
  result.outcome = Outcome::kIdentified;
  return result;
}

ClassificationService::IngestResult ClassificationService::predict_one(
    const supremm::JobSummary& job) const {
  try {
    return decide(classifier_->predict(job));
  } catch (const std::exception& e) {
    return classify_failure(e);
  }
}

ClassificationService::IngestResult ClassificationService::decide(
    LabeledPrediction prediction) const {
  IngestResult result;
  const double p = prediction.probability;
  const int classes = static_cast<int>(classifier_->class_names().size());
  if (!std::isfinite(p) || p < 0.0 || p > 1.0 || prediction.label < 0 ||
      prediction.label >= classes) {
    result.outcome = Outcome::kFailed;
    result.error = "invalid model output: label " +
                   std::to_string(prediction.label) + ", probability " +
                   std::to_string(p);
    ServiceMetrics::get().invalid_output.inc();
  } else {
    result.outcome = p >= threshold_ ? Outcome::kAttributed
                                     : Outcome::kUnresolved;
  }
  result.prediction = std::move(prediction);
  return result;
}

void ClassificationService::classify_batch(
    const std::vector<supremm::JobSummary>& jobs,
    std::vector<IngestResult>& results) const {
  const auto& schema = classifier_->schema();
  std::vector<std::size_t> pending;
  Matrix features(0, schema.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (auto triaged = triage(jobs[i])) {
      results[i] = std::move(*triaged);
      continue;
    }
    try {
      features.append_row(jobs[i].extract(schema));
      pending.push_back(i);
    } catch (const std::exception& e) {
      results[i] = classify_failure(e);
    }
  }
  if (pending.empty()) return;
  std::vector<LabeledPrediction> predictions;
  try {
    predictions = classifier_->predict_features_batch(std::move(features));
  } catch (const std::exception&) {
    auto& metrics = ServiceMetrics::get();
    metrics.batch_failures.inc();
    metrics.batch_serial_retries.inc();
    for (const auto i : pending) results[i] = predict_one(jobs[i]);
    return;
  }
  for (std::size_t p = 0; p < pending.size(); ++p) {
    results[pending[p]] = decide(std::move(predictions[p]));
  }
}

void ClassificationService::commit(supremm::JobSummary job,
                                   IngestResult& result) {
  auto& metrics = ServiceMetrics::get();
  obs::ScopedTimer timer(metrics.commit_ns);
  std::lock_guard lock(mutex_);
  if (result.outcome == Outcome::kFailed) {
    ++stats_.failed;
    metrics.failed.inc();
    warehouse_.dead_letter(std::move(job), result.error);
    return;
  }
  if (result.outcome == Outcome::kAttributed) {
    // Store the attribution so warehouse breakdowns include it; the
    // label_source still says where the label came from.
    job.application = result.prediction.class_name;
  }
  // Reject before tallying so a refused row never skews the outcome
  // counters (tallies and warehouse contents move together or not at
  // all).  The attributed CPU hours are read before the move below.
  if (auto reason = xdmod::Warehouse::validate(job)) {
    result.outcome = Outcome::kFailed;
    result.error = "warehouse rejected job: " + *reason;
    ++stats_.failed;
    metrics.failed.inc();
    warehouse_.dead_letter(std::move(job), std::move(*reason));
    return;
  }
  const double cpu_hours =
      job.wall_seconds / 3600.0 * job.nodes * job.cores_per_node;
  try {
    warehouse_.ingest(std::move(job));
  } catch (const InvalidArgument& e) {
    // Unreachable for real data (validated above); an injected
    // `warehouse.validate.reject` with a probabilistic policy can
    // disagree between the two checks.  Scalar fields survive the move,
    // so the dead letter still names the job.
    result.outcome = Outcome::kFailed;
    result.error = e.what();
    ++stats_.failed;
    metrics.failed.inc();
    warehouse_.dead_letter(std::move(job), e.what());
    return;
  }
  switch (result.outcome) {
    case Outcome::kIdentified:
      ++stats_.identified;
      metrics.identified.inc();
      break;
    case Outcome::kAttributed:
      ++stats_.attributed;
      metrics.attributed.inc();
      attributed_cpu_hours_[result.prediction.class_name] += cpu_hours;
      break;
    case Outcome::kUnresolved:
      ++stats_.unresolved;
      metrics.unresolved.inc();
      break;
    case Outcome::kFailed:
      break;  // handled above
  }
}

ClassificationService::IngestResult ClassificationService::ingest(
    supremm::JobSummary job) {
  IngestResult result = classify(job);
  commit(std::move(job), result);
  return result;
}

std::vector<ClassificationService::IngestResult>
ClassificationService::ingest_batch(std::vector<supremm::JobSummary> jobs) {
  auto& metrics = ServiceMetrics::get();
  obs::ScopedTimer span(metrics.batch_ns, "service.ingest_batch");
  std::vector<IngestResult> results(jobs.size());
  // Phase 1: classify — no lock needed (the classifier is immutable),
  // and this step dominates the ingest cost.
  if (limits_.classify_timeout_ms == 0) {
    classify_batch(jobs, results);
  } else {
    // Deadlines are per request: keep the per-job classify path, in
    // parallel on the pool.
    try {
      ThreadPool::global().parallel_for(0, jobs.size(), [&](std::size_t i) {
        results[i] = classify(jobs[i]);
      });
    } catch (const fp::FailpointError&) {
      // Pool-infrastructure fault (`thread_pool.chunk`): classify is
      // pure and deterministic, so rerunning the whole batch serially
      // yields the exact results the parallel pass would have produced.
      metrics.batch_failures.inc();
      metrics.batch_serial_retries.inc();
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        results[i] = classify(jobs[i]);
      }
    }
  }
  // Phase 2: apply the state updates in job order so the warehouse and
  // tallies match a serial ingest loop exactly.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    commit(std::move(jobs[i]), results[i]);
  }
  return results;
}

ClassificationService::Stats ClassificationService::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::map<std::string, double> ClassificationService::attributed_cpu_hours()
    const {
  std::lock_guard lock(mutex_);
  return attributed_cpu_hours_;
}

std::string ClassificationService::report() const {
  std::lock_guard lock(mutex_);
  std::ostringstream os;
  os << "classification service: " << stats_.total() << " jobs ingested ("
     << stats_.identified << " identified, " << stats_.attributed
     << " attributed at p >= " << threshold_ << ", " << stats_.unresolved
     << " unresolved, " << stats_.failed << " failed)\n";
  os << "model: " << classifier_->model_info() << "\n";
  if (!warehouse_.dead_letters().empty()) {
    // Surfacing the dead letters is what keeps "recovered" honest: every
    // job the serving path refused is accounted for here, not dropped.
    TextTable table({"dead-lettered job", "reason"});
    for (const auto& dl : warehouse_.dead_letters()) {
      table.add_row({std::to_string(dl.job.job_id), dl.reason});
    }
    os << table.render();
  }
  if (!attributed_cpu_hours_.empty()) {
    TextTable table({"attributed application", "CPU hours"});
    for (const auto& [app, hours] : attributed_cpu_hours_) {
      table.add_row({app, format_double(hours, 1)});
    }
    os << table.render();
  }
  if (obs::enabled()) {
    // The registry snapshot (cache hit rates, SMO iterations, latency
    // histograms) rides along so one report() answers both "what did
    // the service decide" and "how is the machinery behaving".
    os << "\n-- metrics snapshot --\n"
       << obs::MetricsRegistry::instance().to_text();
  }
  return os.str();
}

}  // namespace xdmodml::core
