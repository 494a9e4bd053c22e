// The production service the paper's §IV announces ("we do plan to
// develop the machine learning technology that was explored in this work
// into production tools for use in XDMoD"): a streaming ingest path that
// stores every job in the warehouse and, for jobs Lariat could not
// identify, attributes an application label when the classifier clears a
// probability threshold.
//
// Concurrency contract: the classifier is shared, trained and immutable,
// so classification itself is lock-free; the mutable service state
// (stats, warehouse, attributed CPU hours) is guarded by an internal
// mutex.  Several threads may therefore call `ingest` / `ingest_batch`
// on the *same* service concurrently and the tallies stay exact.
// Accessors that return snapshots (`stats`, `attributed_cpu_hours`,
// `report`) take the same lock.  `warehouse()` returns an RAII view
// that *holds* that lock, so warehouse reads can never race ingest —
// the old unsynchronized reference escape, guarded only by a comment,
// is gone from the public API.
//
// Observability: ingest outcomes, classify/commit latency histograms
// and a batch-ingest span are recorded through util/metrics.hpp /
// util/trace.hpp; `report()` embeds the registry snapshot when the
// XDMODML_METRICS toggle is on.
//
// Fault contract: no exception escapes `ingest` / `ingest_batch` for a
// per-job failure.  A classify throw, an overrun classify deadline or a
// warehouse reject becomes Outcome::kFailed with `IngestResult::error`
// set and the job dead-lettered in the warehouse; a thread-pool fault
// during batch classification falls back to a serial pass.  Every such
// recovery is counted under fail.* / retry.* in the metrics registry.
//
// Output contract: a model answer is never attributed unless its
// probability is finite and in [0, 1] and its label names a class.
// Anything else (a corrupt model file can serve p = 1.5e17) becomes
// Outcome::kFailed and ticks `service.invalid_output`.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/job_classifier.hpp"
#include "xdmod/warehouse.hpp"

namespace xdmodml::core {

/// Streaming classify-and-ingest service.
class ClassificationService {
 public:
  /// Serving limits.  `classify_timeout_ms` is a cooperative deadline:
  /// classification is never preempted, but a request whose classify
  /// step overruns the deadline comes back as Outcome::kFailed (and is
  /// dead-lettered, not stored) instead of being silently slow.  0
  /// disables the check.  A service with a deadline classifies each job
  /// of an `ingest_batch` on its own (per-job `classify()` on the pool)
  /// instead of through the batched model call, so the deadline keeps
  /// its per-request meaning.
  struct Limits {
    std::uint64_t classify_timeout_ms = 0;
  };

  /// Shares a *trained* classifier (several services / threads may use
  /// the same immutable model).  `threshold` is the minimum top-class
  /// probability for attributing unidentified jobs.  (Two overloads
  /// because a nested type with default member initializers cannot be a
  /// `= {}` default argument inside its enclosing class.)
  ClassificationService(std::shared_ptr<const JobClassifier> classifier,
                        double threshold = 0.9);
  ClassificationService(std::shared_ptr<const JobClassifier> classifier,
                        double threshold, Limits limits);

  /// Outcome of ingesting one job.
  enum class Outcome {
    kIdentified,   ///< Lariat already knew the application
    kAttributed,   ///< classifier assigned a label above threshold
    kUnresolved,   ///< unidentified and below threshold
    kFailed,       ///< classify threw / deadline overrun / warehouse
                   ///< reject — job dead-lettered, error says why
  };
  struct IngestResult {
    Outcome outcome = Outcome::kUnresolved;
    LabeledPrediction prediction;  ///< filled for non-identified jobs
    std::string error;             ///< non-empty iff outcome == kFailed
  };

  /// Classifies (when needed) and stores the job.  Attributed jobs are
  /// stored with the predicted application so downstream warehouse
  /// queries see it; their Lariat label_source is preserved.  Safe to
  /// call from several threads at once (classification runs outside the
  /// lock; the state update inside it).
  IngestResult ingest(supremm::JobSummary job);

  /// Batched ingest: extracts the non-identified jobs' features into one
  /// matrix and classifies them with ONE batched model call
  /// (JobClassifier::predict_features_batch, which fans out on the
  /// shared thread pool), then applies the state updates in job order,
  /// so the results (and the warehouse contents) match a serial `ingest`
  /// loop exactly.  With `Limits::classify_timeout_ms > 0` the deadline
  /// is per request, so each job keeps the per-job classify path and
  /// deadline semantics match `ingest`.  `results[i]` corresponds to
  /// `jobs[i]`.
  std::vector<IngestResult> ingest_batch(
      std::vector<supremm::JobSummary> jobs);

  /// Read-only warehouse view holding the service mutex for its
  /// lifetime: ingest blocks while a view is alive, so queries see a
  /// consistent warehouse and pointers returned by `query()` stay
  /// valid until the view is released.  Keep views short-lived, and
  /// never call `ingest` / `ingest_batch` / `stats` / `report` from
  /// the holding thread while one is alive (the mutex is not
  /// recursive).
  class WarehouseView {
   public:
    const xdmod::Warehouse& operator*() const { return *warehouse_; }
    const xdmod::Warehouse* operator->() const { return warehouse_; }

   private:
    friend class ClassificationService;
    WarehouseView(std::unique_lock<std::mutex> lock,
                  const xdmod::Warehouse* warehouse)
        : lock_(std::move(lock)), warehouse_(warehouse) {}

    std::unique_lock<std::mutex> lock_;
    const xdmod::Warehouse* warehouse_;
  };

  /// Locked const view; the only warehouse accessor.  The mutable
  /// member stays private — ingest is the one writer.
  WarehouseView warehouse() const {
    return WarehouseView(std::unique_lock(mutex_), &warehouse_);
  }
  const JobClassifier& classifier() const { return *classifier_; }
  double threshold() const { return threshold_; }
  const Limits& limits() const { return limits_; }

  /// Running tallies.
  struct Stats {
    std::size_t identified = 0;
    std::size_t attributed = 0;
    std::size_t unresolved = 0;
    std::size_t failed = 0;  ///< structured-error outcomes (dead-lettered)
    std::size_t total() const {
      return identified + attributed + unresolved + failed;
    }
  };
  /// Consistent snapshot of the tallies.
  Stats stats() const;

  /// CPU hours attributed by the classifier, per application (snapshot).
  std::map<std::string, double> attributed_cpu_hours() const;

  /// Human-readable summary of the service state.
  std::string report() const;

 private:
  /// Classifies a non-identified job (no lock held, no state touched).
  /// Never throws: any classifier exception (or the injected
  /// `service.classify` fault) becomes a kFailed result, and an overrun
  /// classify deadline is downgraded to kFailed after the fact.
  IngestResult classify(const supremm::JobSummary& job) const;

  /// The model-free front of classify: the `service.classify` fault
  /// site and the Lariat pass-through.  The final result, or nullopt
  /// when the job needs the model.
  std::optional<IngestResult> triage(const supremm::JobSummary& job) const;

  /// Model step for one job; a throw becomes kFailed.
  IngestResult predict_one(const supremm::JobSummary& job) const;

  /// Applies the output contract, then the threshold.
  IngestResult decide(LabeledPrediction prediction) const;

  /// ingest_batch's classify step without a deadline: triage per job,
  /// one batched model call over the rest.  A throw from that call (a
  /// `thread_pool.chunk` fault, say) reruns the model jobs one by one,
  /// which yields the same bits because single == batch.
  void classify_batch(const std::vector<supremm::JobSummary>& jobs,
                      std::vector<IngestResult>& results) const;

  /// Applies one classified result under `mutex_` and stores the job.
  /// A warehouse reject downgrades `result` to kFailed and dead-letters
  /// the job instead of letting the exception escape the serving path.
  void commit(supremm::JobSummary job, IngestResult& result);

  std::shared_ptr<const JobClassifier> classifier_;
  double threshold_;
  Limits limits_;
  mutable std::mutex mutex_;  ///< guards everything below
  xdmod::Warehouse warehouse_;
  Stats stats_;
  std::map<std::string, double> attributed_cpu_hours_;
};

}  // namespace xdmodml::core
