// Benchmark harness for the paper's production path (see README.md).
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     [--trace 0|1] [--trace-out <file>]
//   perfbench_harness --digest <name> --seed <n>   (input digest only)
//   perfbench_harness --self-test
//
// Workloads:
//   svm_table2     summary CSV → dataset → RBF-SVM (γ = 0.1, C = 1000)
//                  train → save → load → serve 20,000 Lariat-less
//                  Table-2 jobs: windows of 1 client calling ingest()
//                  alternate with windows of 1 client calling
//                  ingest_batch.
//   forest_table2  the same with the random forest.
//   mixed_stream   raw TACC_Stats samples → aggregate_job → Lariat
//                  identify → ingest(), 3 closed-loop clients on one
//                  service plus a warehouse reporter.
//
// Inputs come from the seed alone; their generation (and the raw-sample
// simulation) happens before any clock starts and appears in no metric.
// Every loop is closed: a client sends its next request only after the
// previous one returned.  The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the process exits 2
// when a correctness gate fails.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "core/classification_service.hpp"
#include "core/job_classifier.hpp"
#include "lariat/lariat.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "ml/svm_plan.hpp"
#include "supremm/dataset_builder.hpp"
#include "supremm/summary_io.hpp"
#include "taccstats/aggregator.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace {

using namespace xdmodml;
using perfbench::Clock;
using perfbench::Metric;
using perfbench::MetricMap;
using perfbench::SpanGuard;
using perfbench::Tracer;
using Outcome = core::ClassificationService::Outcome;
using IngestResult = core::ClassificationService::IngestResult;

// ---- sizes -------------------------------------------------------------

/// Input sizes.  `small` shrinks them for the digest self-test only.
struct Sizes {
  std::size_t train_per_class = 300;  ///< balanced Table-2 training pool
  std::size_t serve_jobs = 20000;     ///< svm/forest serving stream
  std::size_t raw_pool = 1024;        ///< mixed_stream distinct raw jobs
  std::size_t quality_jobs = 6000;    ///< mixed_stream Uncategorized/NA sample
  static Sizes small() { return {3, 60, 16, 16}; }
};

constexpr std::size_t kBatchBlock = 512;        ///< ingest_batch block
constexpr std::size_t kSetupRepeats = 7;        ///< setup_s samples per run
constexpr std::size_t kTrainRepeats = 5;        ///< train_s samples per run
constexpr double kWindowSeconds = 0.25;         ///< serve statistics window
constexpr std::size_t kStreamClients = 3;       ///< mixed ingest clients
constexpr std::size_t kReportEvery = 256;       ///< commits per warehouse read
constexpr std::size_t kEpochJobs = 4096;        ///< jobs per service epoch
constexpr std::size_t kLayerRows = 2048;        ///< rows replayed per layer
constexpr double kCoverageTolerance = 0.05;     ///< phase reconciliation
constexpr std::size_t kTraceExportCap = 50000;  ///< Chrome events written

const std::vector<std::string>& table2_applications() {
  static const std::vector<std::string> apps{
      "AMBER",   "ARPS",      "CACTUS", "CHARMM++", "CHARMM",
      "CP2K",    "ENZO",      "FD3D",   "FLASH4",   "GADGET",
      "GROMACS", "IFORTDDWN", "LAMMPS", "NAMD",     "OPENFOAM",
      "PYTHON",  "Q-ESPRESSO", "SIESTA", "VASP",    "WRF"};
  return apps;
}

bool is_table2(const std::string& app) {
  const auto& apps = table2_applications();
  return std::find(apps.begin(), apps.end(), app) != apps.end();
}

/// Read-only streambuf over a string, so loading a model reads the
/// saved bytes in place instead of copying them into a stringstream.
class BytesBuf : public std::streambuf {
 public:
  explicit BytesBuf(const std::string& bytes) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

// ---- run state ---------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct Run {
  Options opt;
  /// Host CPU ticks when the run began, for the steal share it saw.
  perfbench::HostCpuTicks host_ticks0 = perfbench::host_cpu_ticks();
  MetricMap e2e;
  MetricMap layer;
  MetricMap unbounded;  ///< printed for the reader, not in the result line
  std::size_t attempted = 0;
  std::size_t gate_violations = 0;  ///< failed outcomes included
  std::vector<std::string> gate_messages;
  std::mutex gate_mutex;  ///< gate() is called from client threads

  void gate(bool ok, const std::string& what) {
    if (ok) return;
    std::lock_guard lock(gate_mutex);
    ++gate_violations;
    if (gate_messages.size() < 20) gate_messages.push_back(what);
  }
};

/// Per-result output contract: no failed outcome (no failpoint is armed,
/// so every request must succeed), a finite probability in [0, 1], a
/// label in range whose class name is the model's, and an outcome
/// consistent with the service threshold.
void check_result(Run& run, const IngestResult& r,
                  const std::vector<std::string>& classes, double threshold) {
  if (r.outcome == Outcome::kFailed) {
    run.gate(false, "failed outcome: " + r.error);
    return;
  }
  if (r.outcome == Outcome::kIdentified) return;
  const auto& p = r.prediction;
  const bool label_ok =
      p.label >= 0 && static_cast<std::size_t>(p.label) < classes.size() &&
      classes[static_cast<std::size_t>(p.label)] == p.class_name;
  const bool prob_ok = std::isfinite(p.probability) && p.probability >= 0.0 &&
                       p.probability <= 1.0;
  const bool outcome_ok = (r.outcome == Outcome::kAttributed) ==
                          (p.probability >= threshold);
  if (!(label_ok && prob_ok && outcome_ok)) {
    run.gate(false, "invalid prediction: label " + std::to_string(p.label) +
                        " '" + p.class_name + "' p=" +
                        perfbench::json_number(p.probability));
  }
}

bool same_result(const IngestResult& a, const IngestResult& b) {
  return a.outcome == b.outcome && a.prediction.label == b.prediction.label &&
         a.prediction.class_name == b.prediction.class_name &&
         a.prediction.probability == b.prediction.probability;
}

/// Tallies equal jobs attempted; warehouse rows plus dead letters too.
void check_service(Run& run, const core::ClassificationService& svc,
                   std::size_t attempted, const char* phase) {
  const auto stats = svc.stats();
  std::size_t rows = 0;
  {
    const auto view = svc.warehouse();
    rows = view->size() + view->dead_letters().size();
  }
  run.gate(stats.total() == attempted,
           std::string(phase) + ": outcome tallies " +
               std::to_string(stats.total()) + " != attempted " +
               std::to_string(attempted));
  run.gate(rows == attempted, std::string(phase) + ": warehouse rows " +
                                  std::to_string(rows) + " != attempted " +
                                  std::to_string(attempted));
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// ---- inputs ------------------------------------------------------------

/// Balanced Table-2 training pool, delivered as summary CSV text.
std::string make_train_csv(workload::WorkloadGenerator& gen,
                           std::size_t per_class) {
  std::vector<supremm::JobSummary> jobs;
  for (const auto& app : table2_applications()) {
    for (auto& g : gen.generate_for(app, per_class)) {
      jobs.push_back(std::move(g.summary));
    }
  }
  std::ostringstream out;
  supremm::write_jobs_csv(out, jobs);
  return out.str();
}

/// Native-mix Table-2 jobs with the Lariat fields cleared, so every job
/// reaches the model; `truth` keeps the generator's application.
struct ServeStream {
  std::vector<supremm::JobSummary> jobs;
  std::vector<std::string> truth;
};

ServeStream make_serve_stream(workload::WorkloadGenerator& gen,
                              std::size_t count) {
  ServeStream s;
  while (s.jobs.size() < count) {
    for (auto& g : gen.generate_native(count)) {
      if (s.jobs.size() >= count || !is_table2(g.summary.application)) {
        continue;
      }
      s.truth.push_back(g.summary.application);
      g.summary.executable_path.clear();
      g.summary.application.clear();
      g.summary.category.clear();
      g.summary.label_source = supremm::LabelSource::kNotAvailable;
      s.jobs.push_back(std::move(g.summary));
    }
  }
  return s;
}

/// One job as the collectors deliver it: per-node raw sample streams
/// plus the accounting record (Lariat path, start, exit code).
struct RawJob {
  std::vector<std::vector<taccstats::RawSample>> nodes;
  std::string executable;  ///< empty = no Lariat record (NA pool)
  std::string truth;       ///< community application, "" for custom code
  double start_epoch_seconds = 0.0;
  int exit_code = 0;
  std::size_t samples = 0;
};

taccstats::CollectorConfig collector_config() {
  const auto platform = workload::Platform::stampede();
  taccstats::CollectorConfig c;
  c.interval_seconds = 600.0;
  c.cores_per_node = platform.cores_per_node;
  c.counter_noise = 0.01;
  return c;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t x =
      seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

/// Which signature each raw job follows, its Lariat path and its seed.
struct RawPlans {
  std::vector<workload::AppSignature> signatures;  ///< standard + custom
  struct Job {
    std::size_t signature = 0;
    std::string executable;  ///< empty = no Lariat record (NA pool)
    std::uint64_t seed = 0;
  };
  std::vector<Job> jobs;
};

/// Draws the stream's job mix: about half identified community jobs, a
/// quarter Uncategorized (user binaries), a quarter NA (no Lariat
/// record; a quarter of those are community codes).  With
/// `unidentified_only` only the Uncategorized and NA parts are drawn.
RawPlans plan_raw_jobs(std::uint64_t seed, std::uint64_t salt,
                       std::size_t count, bool unidentified_only) {
  RawPlans plans;
  plans.signatures = workload::standard_signatures();
  std::vector<double> weights;
  for (const auto& s : plans.signatures) weights.push_back(s.mix_weight);
  const auto& user_names = lariat::common_user_binary_names();
  Rng rng(mix(seed, salt, 0x7a11));
  plans.jobs.resize(count);
  for (auto& job : plans.jobs) {
    const double u = unidentified_only ? rng.uniform(0.5, 1.0) : rng.uniform();
    if (u < 0.5) {
      job.signature = rng.categorical(weights);
      job.executable = plans.signatures[job.signature].executable;
    } else {
      const bool na = u >= 0.75;
      if (na && rng.bernoulli(0.25)) {
        job.signature = rng.categorical(weights);
      } else {
        auto custom = workload::random_custom_signature(rng);
        plans.signatures.push_back(std::move(custom));
        job.signature = plans.signatures.size() - 1;
      }
      if (!na) {
        job.executable = "/home/user" +
                         std::to_string(rng.uniform_index(5000)) + "/" +
                         user_names[rng.uniform_index(user_names.size())];
      }
    }
    job.seed = rng();
  }
  return plans;
}

/// Runs the TACC_Stats collector simulation for one planned job.
RawJob simulate_raw_job(const RawPlans& plans, std::size_t index) {
  const auto& planned = plans.jobs[index];
  const auto& sig = plans.signatures[planned.signature];
  const auto platform = workload::Platform::stampede();
  const auto collector = collector_config();
  Rng rng(planned.seed);
  const auto draw = sig.draw_job(platform, rng);
  const std::uint64_t model_seed = rng();
  const taccstats::NodeRateModel model = [&](std::size_t node,
                                             std::size_t interval) {
    Rng r(mix(model_seed, node, interval));
    return sig.interval_model(draw, platform, node, interval, r);
  };
  RawJob job;
  for (std::uint32_t n = 0; n < draw.nodes; ++n) {
    Rng node_rng = rng.split();
    job.nodes.push_back(taccstats::collect_node(model, n, draw.wall_seconds,
                                                collector, node_rng));
    job.samples += job.nodes.back().size();
  }
  job.executable = planned.executable;
  job.truth = sig.application;
  job.start_epoch_seconds = rng.uniform(0.0, 365.0 * 24.0 * 3600.0);
  job.exit_code = draw.failed ? 1 : 0;
  return job;
}

/// The mixed stream's distinct raw jobs, simulated on the shared pool.
std::vector<RawJob> make_raw_pool(std::uint64_t seed, std::size_t count) {
  const auto plans = plan_raw_jobs(seed, 0x5eed, count, false);
  std::vector<RawJob> pool(count);
  ThreadPool::global().parallel_for(
      0, count, [&](std::size_t i) { pool[i] = simulate_raw_job(plans, i); });
  return pool;
}

/// The request path of one raw job: aggregate the samples into a
/// SUPReMM summary, fill the accounting fields, identify with Lariat.
supremm::JobSummary summarize(const RawJob& raw, std::uint64_t job_id,
                              const lariat::ApplicationTable& table,
                              std::uint64_t request) {
  supremm::JobSummary job;
  {
    SpanGuard span("taccstats.aggregate_job", request);
    job = std::move(taccstats::aggregate_job(raw.nodes, collector_config()).job);
  }
  job.job_id = job_id;
  job.nodes = static_cast<std::uint32_t>(raw.nodes.size());
  job.start_epoch_seconds = raw.start_epoch_seconds;
  job.exit_code = raw.exit_code;
  job.executable_path = raw.executable;
  {
    SpanGuard span("lariat.identify", request);
    const auto ident = table.identify(job.executable_path);
    job.label_source = ident.source;
    job.application = ident.application;
    job.category = ident.category;
  }
  return job;
}

std::string raw_digest_text(const std::vector<RawJob>& pool) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& j : pool) {
    out << j.executable << '|' << j.truth << '|' << j.start_epoch_seconds
        << '|' << j.exit_code << '\n';
    for (const auto& node : j.nodes) {
      for (const auto& s : node) {
        out << s.timestamp << ' ' << s.mem_used_gb;
        for (const auto c : s.counters) out << ' ' << c;
        for (const auto t : s.core_user_ticks) out << ' ' << t;
        out << '\n';
      }
    }
  }
  return out.str();
}

// ---- phases ------------------------------------------------------------

struct Trained {
  ml::Dataset dataset;
  std::unique_ptr<core::JobClassifier> classifier;  ///< in-memory model
  std::string bytes;                                ///< saved model
  double seconds = 0.0;
};

/// Summary CSV → read_jobs_csv → build_dataset → train → save.  The
/// first call of a run also records the training-layer counters.
Trained phase_train(Run& run, core::Algorithm algorithm,
                    const std::string& csv, bool record_layers) {
  SpanGuard phase("phase.train");
  perfbench::CpuMeter cpu;
  Trained t;
  const auto smo_iter0 = counter("smo.iterations");
  const auto smo_rows0 = counter("smo.kernel_rows_computed");
  const auto hits0 = counter("gram_cache.hits");
  const auto misses0 = counter("gram_cache.misses");
  const auto nodes0 = counter("tree.nodes");
  const auto subtracted0 = counter("tree.hist_subtracted");

  const auto t0 = Clock::now();
  std::vector<supremm::JobSummary> jobs;
  {
    SpanGuard span("supremm.read_jobs_csv");
    BytesBuf buf(csv);
    std::istream in(&buf);
    jobs = supremm::read_jobs_csv(in);
  }
  {
    SpanGuard span("supremm.build_dataset");
    t.dataset = supremm::build_dataset(jobs, supremm::AttributeSchema::full(),
                                       supremm::label_by_application(),
                                       table2_applications());
  }
  core::JobClassifierConfig config;
  config.algorithm = algorithm;
  config.seed = run.opt.seed;
  t.classifier = std::make_unique<core::JobClassifier>(config);
  {
    SpanGuard span("core.JobClassifier.train");
    t.classifier->train(t.dataset);
  }
  {
    SpanGuard span("core.JobClassifier.save");
    std::ostringstream out;
    t.classifier->save(out);
    t.bytes = out.str();
  }
  t.seconds = perfbench::seconds_since(t0);
  if (!record_layers) return t;

  run.layer["util.cpu_util.train"] = {cpu.utilisation(), "fraction", 1,
                                      "train phase CPU / (wall x nproc)"};
  run.layer["ml.smo.iterations"] = {
      static_cast<double>(counter("smo.iterations") - smo_iter0), "count", 1,
      "smo.iterations delta over train"};
  run.layer["ml.smo.kernel_rows_computed"] = {
      static_cast<double>(counter("smo.kernel_rows_computed") - smo_rows0),
      "count", 1, "smo.kernel_rows_computed delta over train"};
  const auto hits = counter("gram_cache.hits") - hits0;
  const auto misses = counter("gram_cache.misses") - misses0;
  run.layer["ml.gram_cache.hit_rate"] = {
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses),
      "fraction", hits + misses, "gram_cache hits / lookups over train"};
  run.layer["ml.tree.nodes"] = {
      static_cast<double>(counter("tree.nodes") - nodes0), "count", 1,
      "tree.nodes delta over train"};
  run.layer["ml.tree.hist_subtracted"] = {
      static_cast<double>(counter("tree.hist_subtracted") - subtracted0),
      "count", 1, "tree.hist_subtracted delta over train"};
  return t;
}

/// Training is timed kTrainRepeats times, spread from the start to the
/// end of the run so the samples see different host conditions;
/// train_s is their trimmed mean.  Training is deterministic for a
/// seed, so every retrain must save bytes identical to the first.
void retrain(Run& run, core::Algorithm algorithm, const std::string& csv,
             const Trained& first, std::vector<double>& samples) {
  const Trained again = phase_train(run, algorithm, csv, false);
  run.gate(again.bytes == first.bytes,
           "retraining with the same seed saved a different model");
  samples.push_back(again.seconds);
}

void report_train(Run& run, const Trained& first,
                  const std::vector<double>& samples) {
  run.e2e["train_s"] = {perfbench::trimmed_mean(samples), "s", samples.size(),
                        "trimmed mean: CSV text to saved model bytes"};
  run.e2e["model_mb"] = {static_cast<double>(first.bytes.size()) / 1e6, "MB",
                         1, "saved model bytes"};
}

/// One set-up: model bytes → load → service constructed → first
/// unidentified ingest() returned (includes the SVM's lazy plan build).
std::shared_ptr<const core::JobClassifier> setup_once(
    Run& run, const std::string& bytes, const supremm::JobSummary& probe,
    std::vector<double>& samples) {
  SpanGuard phase("phase.setup");
  const auto t0 = Clock::now();
  std::shared_ptr<const core::JobClassifier> loaded;
  {
    SpanGuard span("core.JobClassifier.load");
    BytesBuf buf(bytes);
    std::istream in(&buf);
    loaded = std::make_shared<const core::JobClassifier>(
        core::JobClassifier::load(in));
  }
  std::unique_ptr<core::ClassificationService> svc;
  {
    SpanGuard span("core.service.construct");
    svc = std::make_unique<core::ClassificationService>(loaded);
  }
  IngestResult result;
  {
    SpanGuard span("core.ingest.first");
    result = svc->ingest(probe);
  }
  samples.push_back(perfbench::seconds_since(t0));
  run.gate(result.outcome != Outcome::kFailed &&
               result.outcome != Outcome::kIdentified,
           "setup probe was not classified: " + result.error);
  check_result(run, result, loaded->class_names(), svc->threshold());
  SpanGuard span("harness.teardown");
  svc.reset();
  return loaded;
}

/// Per-window statistics.  The serve measurement is cut into windows of
/// kWindowSeconds; a metric is the trimmed mean of its per-window
/// values.  On a shared host whose speed switches between levels every
/// few seconds, that follows the share of time spent at each level
/// smoothly, where one pooled median jumps between the levels.
struct Windows {
  std::vector<double> p50_us;
  std::vector<double> tail_us;
  std::vector<double> tail_ratio;  ///< window tail / window median
  std::vector<double> jobs_per_s;
  std::vector<double> pooled_us;   ///< every latency, for the pooled tail
  double tail_percentile = 0.0;    ///< lowest per-window tail percentile
  std::size_t tail_beyond = 0;     ///< fewest samples beyond it

  void add_latency_window(std::vector<double> us) {
    if (us.empty()) return;
    const double p50 = xdmodml::median(us);
    const auto tail = perfbench::tail_percentile(us);
    p50_us.push_back(p50);
    if (tail.percentile > 0.0) {
      if (tail_us.empty() || tail.percentile < tail_percentile) {
        tail_percentile = tail.percentile;
      }
      if (tail_us.empty() || tail.beyond < tail_beyond) {
        tail_beyond = tail.beyond;
      }
      tail_us.push_back(tail.value);
      tail_ratio.push_back(tail.value / p50);
    }
    pooled_us.insert(pooled_us.end(), us.begin(), us.end());
  }
};

/// "N windows, Q1–Q3 a–b": how far the per-window values moved.
std::string window_spread(const std::vector<double>& values) {
  return std::to_string(values.size()) + " windows, Q1-Q3 " +
         perfbench::json_number(xdmodml::quantile(values, 0.25)) + "-" +
         perfbench::json_number(xdmodml::quantile(values, 0.75));
}

/// Wall-clock throughput, printed but not bounded: the trimmed mean of
/// the window rates.  With all four vCPUs busy, a block waits for its
/// slowest worker, so a few percent of host steal cut a batch window's
/// throughput by up to 35%, and it spread too far across seeds to bound;
/// see cpu_per_job_metric.
Metric throughput_metric(const Windows& w, const std::string& what) {
  return {perfbench::trimmed_mean(w.jobs_per_s), "jobs/s", w.jobs_per_s.size(),
          what + "; trimmed mean over windows, " + window_spread(w.jobs_per_s)};
}

/// CPU cost per served job: process user + system time over jobs.  The
/// guest kernel does not charge time the hypervisor stole to the
/// process, so this holds still when the host lends the VM less CPU,
/// where wall-clock throughput on all four vCPUs does not.
Metric cpu_per_job_metric(double cpu_s, std::size_t jobs,
                          const std::string& what) {
  return {jobs > 0 ? cpu_s * 1e6 / static_cast<double>(jobs) : 0.0, "us", jobs,
          what + " / jobs"};
}

/// Latency metrics.  The tail is printed but not part of the result:
/// across seeds it spread more than any allowed bound (see README.md).
void report_windows(Run& run, const Windows& w) {
  run.e2e["ingest_p50_us"] = {perfbench::trimmed_mean(w.p50_us), "us",
                              w.pooled_us.size(),
                              window_spread(w.p50_us) + "; pooled median " +
                                  perfbench::json_number(
                                      xdmodml::median(w.pooled_us))};
  const auto pooled = perfbench::tail_percentile(w.pooled_us);
  run.unbounded["ingest_tail_ratio"] = {
      perfbench::trimmed_mean(w.tail_ratio), "ratio", w.tail_ratio.size(),
      "p" + perfbench::json_number(w.tail_percentile) + " (>= " +
          std::to_string(w.tail_beyond) +
          " beyond) / median per window; tail " +
          perfbench::json_number(perfbench::trimmed_mean(w.tail_us)) +
          " us"};
  run.unbounded["ingest_tail_us"] = {
      pooled.value, "us", w.pooled_us.size(),
      "p" + perfbench::json_number(pooled.percentile) + " of all requests, " +
          std::to_string(pooled.beyond) + " beyond"};
  run.gate(!w.jobs_per_s.empty(), "no throughput window completed");
}

/// One closed-loop client calling ingest() over the stream in passes,
/// with a fresh service per pass.  `serve` continues where the previous
/// call stopped, so slices of it can interleave with other phases.
class SingleClient {
 public:
  SingleClient(Run& run, std::shared_ptr<const core::JobClassifier> clf,
               const std::vector<supremm::JobSummary>& stream,
               std::vector<IngestResult>* first_pass)
      : run_(run), clf_(std::move(clf)), stream_(stream),
        first_pass_(first_pass) {}

  /// Serves until `until` or until `limit` requests in total; appends
  /// each request's latency (µs) to `us`.
  void serve(Clock::time_point until, std::size_t limit,
             std::vector<double>& us, std::uint64_t& next_request) {
    SpanGuard phase("phase.serve_single");
    const auto t_start = Clock::now();
    while (attempted_ < limit) {
      if (!svc_) svc_ = std::make_unique<core::ClassificationService>(clf_);
      supremm::JobSummary job;
      {
        SpanGuard span("harness.copy_input");
        job = stream_[pos_];
      }
      const auto t0 = Clock::now();
      IngestResult r;
      {
        SpanGuard span("core.ingest", ++next_request);
        r = svc_->ingest(std::move(job));
      }
      const auto t1 = Clock::now();
      us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      ++attempted_;
      ++in_pass_;
      check_result(run_, r, clf_->class_names(), svc_->threshold());
      if (pass_ == 0 && first_pass_) first_pass_->push_back(std::move(r));
      if (++pos_ == stream_.size()) close_pass();
      if (t1 >= until) break;
    }
    wall_s_ += perfbench::seconds_since(t_start);
  }

  /// Verifies the open pass's service.
  void finish() {
    // A pass that ended on the stream's last job is already closed, and
    // an empty phase span would fail the trace coverage check.
    if (!svc_) return;
    SpanGuard phase("phase.finish");
    close_pass();
  }
  std::size_t attempted() const { return attempted_; }
  double wall_s() const { return wall_s_; }

 private:
  void close_pass() {
    {
      SpanGuard span("harness.verify");
      check_service(run_, *svc_, in_pass_, "serve_single");
    }
    SpanGuard span("harness.teardown");
    svc_.reset();
    pos_ = 0;
    in_pass_ = 0;
    ++pass_;
  }

  Run& run_;
  std::shared_ptr<const core::JobClassifier> clf_;
  const std::vector<supremm::JobSummary>& stream_;
  std::vector<IngestResult>* first_pass_;
  std::unique_ptr<core::ClassificationService> svc_;
  std::size_t pos_ = 0;
  std::size_t in_pass_ = 0;
  std::size_t pass_ = 0;
  std::size_t attempted_ = 0;
  double wall_s_ = 0.0;
};

/// One client calling ingest_batch() in blocks of 512 jobs, classified
/// on the nproc-worker pool; passes and slices as in SingleClient.
class BatchClient {
 public:
  BatchClient(Run& run, std::shared_ptr<const core::JobClassifier> clf,
              const std::vector<supremm::JobSummary>& stream,
              std::vector<IngestResult>* first_pass)
      : run_(run), clf_(std::move(clf)), stream_(stream),
        first_pass_(first_pass) {}

  struct Served {
    std::size_t jobs = 0;
    double busy_s = 0.0;  ///< wall time inside ingest_batch
    double cpu_s = 0.0;   ///< process CPU time inside ingest_batch
  };

  /// Serves blocks until `until` or `max_blocks`.
  Served serve(Clock::time_point until, std::size_t max_blocks) {
    SpanGuard phase("phase.serve_batch");
    Served served;
    for (std::size_t b = 0; b < max_blocks; ++b) {
      if (!svc_) svc_ = std::make_unique<core::ClassificationService>(clf_);
      const std::size_t end = std::min(stream_.size(), pos_ + kBatchBlock);
      std::vector<supremm::JobSummary> block;
      {
        SpanGuard span("harness.copy_input");
        block.assign(stream_.begin() + static_cast<std::ptrdiff_t>(pos_),
                     stream_.begin() + static_cast<std::ptrdiff_t>(end));
      }
      const double cpu0 = perfbench::process_cpu_seconds();
      const auto t0 = Clock::now();
      std::vector<IngestResult> results;
      {
        SpanGuard span("core.ingest_batch");
        results = svc_->ingest_batch(std::move(block));
      }
      const auto t1 = Clock::now();
      served.cpu_s += perfbench::process_cpu_seconds() - cpu0;
      served.busy_s += std::chrono::duration<double>(t1 - t0).count();
      run_.gate(results.size() == end - pos_, "ingest_batch result count");
      served.jobs += results.size();
      in_pass_ += results.size();
      for (auto& r : results) {
        check_result(run_, r, clf_->class_names(), svc_->threshold());
        if (pass_ == 0 && first_pass_) first_pass_->push_back(std::move(r));
      }
      pos_ = end;
      if (pos_ == stream_.size()) close_pass();
      if (t1 >= until) break;
    }
    attempted_ += served.jobs;
    return served;
  }

  void finish() {
    // A pass that ended on the stream's last job is already closed, and
    // an empty phase span would fail the trace coverage check.
    if (!svc_) return;
    SpanGuard phase("phase.finish");
    close_pass();
  }
  std::size_t attempted() const { return attempted_; }

 private:
  void close_pass() {
    {
      SpanGuard span("harness.verify");
      check_service(run_, *svc_, in_pass_, "serve_batch");
    }
    SpanGuard span("harness.teardown");
    svc_.reset();
    pos_ = 0;
    in_pass_ = 0;
    ++pass_;
  }

  Run& run_;
  std::shared_ptr<const core::JobClassifier> clf_;
  const std::vector<supremm::JobSummary>& stream_;
  std::vector<IngestResult>* first_pass_;
  std::unique_ptr<core::ClassificationService> svc_;
  std::size_t pos_ = 0;
  std::size_t in_pass_ = 0;
  std::size_t pass_ = 0;
  std::size_t attempted_ = 0;
};

// ---- traced layer replay -----------------------------------------------

/// Calls the inner public functions that the service and the classifier
/// reach only inside their own calls, on the same inputs: fitting on
/// the training set, model I/O, plan build, and per-row serving steps.
void phase_layers(Run& run, core::Algorithm algorithm, const Trained& t,
                  const core::JobClassifier& served,
                  const std::vector<supremm::JobSummary>& rows_in) {
  SpanGuard phase("phase.layers");
  const std::size_t k = t.dataset.class_names.size();
  ml::Standardizer standardizer;
  Matrix z;
  {
    SpanGuard span("ml.Standardizer.fit_transform");
    z = standardizer.fit_transform(t.dataset.X);
  }
  std::unique_ptr<ml::Classifier> model;
  std::string bytes;
  const bool svm = algorithm == core::Algorithm::kSvm;
  if (svm) {
    auto m = std::make_unique<ml::SvmClassifier>(ml::SvmConfig{}, run.opt.seed);
    {
      SpanGuard span("ml.SvmClassifier.fit");
      m->fit(z, t.dataset.labels, static_cast<int>(k));
    }
    std::ostringstream out;
    {
      SpanGuard span("ml.model_io.save");
      m->save(out);
    }
    bytes = out.str();
    BytesBuf buf(bytes);
    std::istream in(&buf);
    std::unique_ptr<ml::SvmClassifier> loaded;
    {
      SpanGuard span("ml.model_io.load");
      loaded = std::make_unique<ml::SvmClassifier>(ml::SvmClassifier::load(in));
    }
    const ml::SvmInferencePlan* plan = nullptr;
    {
      SpanGuard span("ml.SvmInferencePlan.build");
      plan = &loaded->inference_plan();
    }
    run.layer["ml.svm.unique_svs"] = {
        static_cast<double>(plan->unique_support_vectors()), "count", 1,
        "deduplicated SV pool rows"};
    run.layer["ml.svm.pool_kib"] = {
        static_cast<double>(plan->pool_bytes()) / 1024.0, "KiB", 1,
        "SV pool payload"};
    model = std::move(loaded);
  } else {
    auto m = std::make_unique<ml::RandomForestClassifier>(ml::ForestConfig{},
                                                          run.opt.seed);
    {
      SpanGuard span("ml.RandomForestClassifier.fit");
      m->fit(z, t.dataset.labels, static_cast<int>(k));
    }
    std::ostringstream out;
    {
      SpanGuard span("ml.model_io.save");
      m->save(out);
    }
    bytes = out.str();
    BytesBuf buf(bytes);
    std::istream in(&buf);
    SpanGuard span("ml.model_io.load");
    model = std::make_unique<ml::RandomForestClassifier>(
        ml::RandomForestClassifier::load(in));
  }

  const auto& schema = served.schema();
  const std::size_t n = std::min(rows_in.size(), kLayerRows);
  std::vector<double> krow;
  if (svm) {
    krow.resize(static_cast<const ml::SvmClassifier&>(*model)
                    .inference_plan()
                    .unique_support_vectors());
  }
  Matrix standardized(n, schema.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x;
    {
      SpanGuard span("supremm.JobSummary.extract");
      x = rows_in[i].extract(schema);
    }
    {
      SpanGuard span("ml.Standardizer.transform_row");
      served.standardizer().transform_row(x);
    }
    if (svm) {
      const auto& plan =
          static_cast<const ml::SvmClassifier&>(*model).inference_plan();
      SpanGuard span("ml.SvmInferencePlan.kernel_row");
      plan.kernel_row(x, krow);
    }
    ml::Prediction p;
    {
      SpanGuard span("ml.predict_with_probability");
      p = model->predict_with_probability(x);
    }
    run.gate(std::isfinite(p.probability) && p.probability >= 0.0 &&
                 p.probability <= 1.0 && p.label >= 0 &&
                 p.label < static_cast<int>(k),
             "layer replay prediction out of range");
    std::copy(x.begin(), x.end(), standardized.row(i).begin());
  }
  for (std::size_t off = 0; off + kBatchBlock <= n; off += kBatchBlock) {
    Matrix block(kBatchBlock, schema.size());
    for (std::size_t i = 0; i < kBatchBlock; ++i) {
      const auto src = standardized.row(off + i);
      std::copy(src.begin(), src.end(), block.row(i).begin());
    }
    SpanGuard span("ml.predict_batch_with_probability");
    const auto preds = model->predict_batch_with_probability(block);
    run.gate(preds.size() == kBatchBlock, "batch prediction count");
  }
}

// ---- mixed stream --------------------------------------------------------

/// What one distinct raw job contributes when served: the warehouse
/// group it lands in and its CPU hours (from a serial replay).
struct Contribution {
  std::string group;  ///< "" = dead-lettered (never stored)
  double cpu_hours = 0.0;
};

struct StreamLog {
  struct Done {
    double at_s = 0.0;       ///< completion time since the phase began
    double us = 0.0;         ///< request latency
    bool classified = false; ///< the job reached the model
  };
  std::vector<Done> done;
  std::size_t attempted = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU until the clients stopped
};

/// 3 closed-loop clients share one service and push raw jobs through
/// aggregate → identify → ingest; a 4th thread reads the warehouse
/// (application × CPU hours) once per 256 commits.  Jobs are served in
/// epochs of kEpochJobs, each with a fresh service, so the warehouse a
/// reader scans stays bounded.  A closed epoch's service is kept and
/// verified against the serial replay after the segment's clock stops,
/// so no verification runs inside a measured window.
StreamLog phase_stream(Run& run,
                       const std::shared_ptr<const core::JobClassifier>& clf,
                       const std::vector<RawJob>& pool,
                       const std::vector<Contribution>& replay,
                       double budget_s, std::size_t max_requests,
                       std::uint64_t& next_request) {
  SpanGuard phase("phase.stream");
  const std::uint32_t phase_id = phase.id();
  const auto table = lariat::ApplicationTable::standard();
  const auto t_start = Clock::now();
  const double cpu_start = perfbench::process_cpu_seconds();
  const auto deadline = t_start + to_duration(budget_s);
  const std::uint64_t request_base = next_request;

  std::mutex service_mutex;  ///< guards `service` (the reporter copies it)
  std::shared_ptr<core::ClassificationService> service =
      std::make_shared<core::ClassificationService>(clf);
  std::atomic<std::size_t> next{0};
  std::size_t epoch_begin = 0;
  std::size_t epoch_end = std::min(kEpochJobs, max_requests);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> committed{0};
  std::mutex report_mutex;  ///< guards report_due and the stop hand-off
  std::condition_variable report_cv;
  std::size_t report_due = 0;  ///< warehouse reads owed to the reporter
  auto request_stop = [&]() {
    {
      std::lock_guard lock(report_mutex);
      stop = true;
    }
    report_cv.notify_all();
  };
  std::size_t served_total = 0;
  struct ClosedEpoch {
    std::shared_ptr<core::ClassificationService> service;
    std::size_t lo = 0;
    std::size_t hi = 0;
  };
  std::vector<ClosedEpoch> closed_epochs;

  auto verify_epoch = [&](core::ClassificationService& svc, std::size_t lo,
                          std::size_t hi) {
    const std::size_t count = hi - lo;
    check_service(run, svc, count, "stream");
    std::set<std::uint64_t> ids;
    std::map<std::string, double> expected;
    for (std::size_t i = lo; i < hi; ++i) {
      const auto& c = replay[i % pool.size()];
      if (!c.group.empty()) expected[c.group] += c.cpu_hours;
    }
    const auto view = svc.warehouse();
    for (const auto* job : view->query({})) ids.insert(job->job_id);
    for (const auto& dl : view->dead_letters()) ids.insert(dl.job.job_id);
    bool ids_ok = ids.size() == count;
    if (ids_ok && count > 0) {
      ids_ok = *ids.begin() == lo + 1 && *ids.rbegin() == hi;
    }
    run.gate(ids_ok, "stream: stored job ids differ from the input set");
    std::map<std::string, double> actual;
    for (const auto& row :
         view->aggregate(xdmod::Dimension::kApplication,
                         xdmod::Statistic::kCpuHours)) {
      actual[row.group] = row.value;
    }
    bool hours_ok = actual.size() == expected.size();
    for (const auto& [group, hours] : expected) {
      const auto it = actual.find(group);
      hours_ok = hours_ok && it != actual.end() &&
                 std::abs(it->second - hours) <=
                     1e-9 * std::max(1.0, std::abs(hours));
    }
    run.gate(hours_ok, "stream: per-application CPU hours differ from the "
                       "serial replay");
  };

  auto on_epoch_closed = [&]() noexcept {
    SpanGuard span("harness.epoch_turnover", 0, phase_id);
    try {
      const std::size_t hi = std::min(next.load(), epoch_end);
      {
        std::lock_guard lock(service_mutex);
        closed_epochs.push_back({service, epoch_begin, hi});
      }
      served_total = hi;
      if (Clock::now() >= deadline || hi >= max_requests) {
        request_stop();
        return;
      }
      auto fresh = std::make_shared<core::ClassificationService>(clf);
      {
        std::lock_guard lock(service_mutex);
        service = std::move(fresh);
      }
      epoch_begin = hi;
      epoch_end = std::min(hi + kEpochJobs, max_requests);
      next.store(epoch_begin);
    } catch (const std::exception& e) {
      run.gate(false, std::string("stream epoch turnover threw: ") + e.what());
      request_stop();
    }
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(kStreamClients),
                    on_epoch_closed);

  std::vector<std::vector<StreamLog::Done>> latencies(kStreamClients);
  auto client = [&](std::size_t c) {
    const auto& classes = clf->class_names();
    while (!stop.load()) {
      std::shared_ptr<core::ClassificationService> svc;
      {
        std::lock_guard lock(service_mutex);
        svc = service;
      }
      const std::size_t end = epoch_end;
      while (Clock::now() < deadline) {
        const std::size_t i = next.fetch_add(1);
        if (i >= end) break;
        const std::uint64_t request = request_base + i + 1;
        const RawJob& raw = pool[i % pool.size()];
        const auto t0 = Clock::now();
        IngestResult r;
        bool identified = false;
        {
          SpanGuard span("request", request, phase_id);
          auto job = summarize(raw, i + 1, table, request);
          identified = job.label_source == supremm::LabelSource::kIdentified;
          SpanGuard ingest(identified ? "core.ingest.identified"
                                      : "core.ingest",
                           request);
          r = svc->ingest(std::move(job));
        }
        const auto t1 = Clock::now();
        latencies[c].push_back(
            {std::chrono::duration<double>(t1 - t_start).count(),
             std::chrono::duration<double, std::micro>(t1 - t0).count(),
             !identified});
        if ((committed.fetch_add(1) + 1) % kReportEvery == 0) {
          {
            std::lock_guard lock(report_mutex);
            ++report_due;
          }
          report_cv.notify_one();
        }
        check_result(run, r, classes, svc->threshold());
      }
      sync.arrive_and_wait();
    }
  };

  auto reporter = [&]() {
    while (true) {
      {
        std::unique_lock lock(report_mutex);
        report_cv.wait(lock, [&] { return report_due > 0 || stop.load(); });
        if (stop.load()) break;
        --report_due;
      }
      std::shared_ptr<core::ClassificationService> svc;
      {
        std::lock_guard lock(service_mutex);
        svc = service;
      }
      SpanGuard span("xdmod.report", 0, phase_id);
      const auto view = svc->warehouse();
      SpanGuard agg("xdmod.Warehouse.aggregate");
      const auto rows = view->aggregate(xdmod::Dimension::kApplication,
                                        xdmod::Statistic::kCpuHours);
      run.gate(!rows.empty() || view->size() == 0, "empty aggregate");
    }
  };

  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kStreamClients; ++c) {
      threads.emplace_back(client, c);
    }
    std::jthread report_thread(reporter);
    threads.clear();  // joins the clients; the last barrier phase sets stop
  }

  StreamLog log;
  log.wall_s = perfbench::seconds_since(t_start);
  log.cpu_s = perfbench::process_cpu_seconds() - cpu_start;
  log.attempted = served_total;
  {
    SpanGuard span("harness.verify", 0, phase_id);
    for (const auto& e : closed_epochs) verify_epoch(*e.service, e.lo, e.hi);
  }
  {
    SpanGuard span("harness.teardown", 0, phase_id);
    closed_epochs.clear();
  }
  for (std::size_t c = 0; c < kStreamClients; ++c) {
    log.done.insert(log.done.end(), latencies[c].begin(),
                    latencies[c].end());
  }
  run.gate(log.done.size() == served_total,
           "stream: latency samples differ from requests served");
  next_request = request_base + served_total;
  return log;
}

/// Serial replay of the distinct raw jobs through a fresh service: the
/// reference the concurrent stream's warehouse must match.  Also checks
/// that the loaded model labels each unidentified job as the in-memory
/// model that was saved does.
std::vector<Contribution> replay_pool(
    Run& run, const core::JobClassifier& in_memory,
    const std::shared_ptr<const core::JobClassifier>& clf,
    const std::vector<RawJob>& pool) {
  const auto table = lariat::ApplicationTable::standard();
  core::ClassificationService svc(clf);
  std::vector<Contribution> out(pool.size());
  std::size_t label_mismatch = 0;
  for (std::size_t b = 0; b < pool.size(); ++b) {
    auto job = summarize(pool[b], b + 1, table, 0);
    const bool identified =
        job.label_source == supremm::LabelSource::kIdentified;
    const double hours =
        job.wall_seconds / 3600.0 * job.nodes * job.cores_per_node;
    const auto direct =
        identified ? core::LabeledPrediction{} : in_memory.predict(job);
    const std::string app = job.application;
    const auto r = svc.ingest(std::move(job));
    check_result(run, r, clf->class_names(), svc.threshold());
    if (r.outcome == Outcome::kFailed) continue;
    const std::string group =
        r.outcome == Outcome::kAttributed ? r.prediction.class_name : app;
    out[b] = {group.empty() ? "(unknown)" : group, hours};
    if (!identified && direct.label != r.prediction.label) ++label_mismatch;
  }
  check_service(run, svc, pool.size(), "replay");
  run.gate(label_mismatch == 0, "save/load changed " +
                                    std::to_string(label_mismatch) +
                                    " labels on the mixed pool");
  return out;
}

/// Model quality on the stream's unidentified pools.  The distinct
/// stream pool holds too few Uncategorized/NA jobs for steady shares,
/// so a larger sample from the same pools is simulated, aggregated and
/// served serially through a fresh service; both metrics are exact for
/// a seed.
void quality_sample(Run& run, const core::JobClassifier& in_memory,
                    const std::shared_ptr<const core::JobClassifier>& clf,
                    std::size_t count) {
  const auto plans = plan_raw_jobs(run.opt.seed, 0x9a11, count, true);
  const auto table = lariat::ApplicationTable::standard();
  std::vector<supremm::JobSummary> jobs(count);
  std::vector<std::string> truth(count);
  ThreadPool::global().parallel_for(0, count, [&](std::size_t i) {
    const RawJob raw = simulate_raw_job(plans, i);
    jobs[i] = summarize(raw, i + 1, table, 0);
    truth[i] = raw.truth;
  });
  core::ClassificationService svc(clf);
  std::size_t attributed = 0;
  std::size_t known = 0;
  std::size_t correct = 0;
  std::size_t label_mismatch = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto direct = in_memory.predict(jobs[i]);
    const auto r = svc.ingest(jobs[i]);
    check_result(run, r, clf->class_names(), svc.threshold());
    run.gate(r.outcome != Outcome::kIdentified,
             "an Uncategorized/NA job was identified");
    if (r.outcome == Outcome::kAttributed) ++attributed;
    if (direct.label != r.prediction.label) ++label_mismatch;
    if (is_table2(truth[i])) {
      ++known;
      if (r.prediction.class_name == truth[i]) ++correct;
    }
  }
  check_service(run, svc, count, "quality");
  run.gate(label_mismatch == 0, "save/load changed " +
                                    std::to_string(label_mismatch) +
                                    " labels on the quality sample");
  run.gate(known > 0, "quality sample holds no Table-2 community job");
  run.e2e["accuracy"] = {
      known ? static_cast<double>(correct) / static_cast<double>(known) : 0.0,
      "fraction", known, "NA community jobs: top class = truth"};
  run.e2e["attributed_share"] = {
      static_cast<double>(attributed) / static_cast<double>(count),
      "fraction", count,
      "Uncategorized/NA jobs attributed at the service threshold"};
}

// ---- per-layer metrics from the trace ------------------------------------

double row_median_us(const perfbench::TraceReport& rep, const char* name) {
  for (const auto& r : rep.rows) {
    if (r.name == name) return r.median_us;
  }
  return 0.0;
}

std::size_t row_count(const perfbench::TraceReport& rep, const char* name) {
  for (const auto& r : rep.rows) {
    if (r.name == name) return r.count;
  }
  return 0;
}

void layer_from_trace(Run& run, const perfbench::TraceReport& rep) {
  auto us = [&](const char* metric, const char* span) {
    run.layer[metric] = {row_median_us(rep, span), "us", row_count(rep, span),
                         std::string("median ") + span};
  };
  auto ms = [&](const char* metric, const char* span) {
    run.layer[metric] = {row_median_us(rep, span) / 1e3, "ms",
                         row_count(rep, span), std::string("median ") + span};
  };
  us("taccstats.aggregate_us", "taccstats.aggregate_job");
  us("lariat.identify_us", "lariat.identify");
  ms("supremm.read_csv_ms", "supremm.read_jobs_csv");
  ms("supremm.build_dataset_ms", "supremm.build_dataset");
  us("supremm.extract_us", "supremm.JobSummary.extract");
  ms("ml.standardize_ms", "ml.Standardizer.fit_transform");
  us("ml.standardize_row_us", "ml.Standardizer.transform_row");
  ms("ml.svm.fit_ms", "ml.SvmClassifier.fit");
  ms("ml.forest.fit_ms", "ml.RandomForestClassifier.fit");
  ms("ml.model_io.save_ms", "ml.model_io.save");
  ms("ml.model_io.load_ms", "ml.model_io.load");
  ms("ml.svm.plan_build_ms", "ml.SvmInferencePlan.build");
  us("ml.svm.kernel_row_us", "ml.SvmInferencePlan.kernel_row");
  us("ml.predict_us", "ml.predict_with_probability");
  run.layer["ml.predict_batch_us_per_job"] = {
      row_median_us(rep, "ml.predict_batch_with_probability") / kBatchBlock,
      "us", row_count(rep, "ml.predict_batch_with_probability"),
      "median 512-row predict_batch_with_probability / 512"};
  us("core.ingest_us", "core.ingest");
  us("core.commit_us", "core.ingest.identified");
  ms("core.ingest_batch_ms", "core.ingest_batch");
  ms("xdmod.aggregate_ms", "xdmod.Warehouse.aggregate");
  const double self =
      row_median_us(rep, "core.ingest") -
      row_median_us(rep, "supremm.JobSummary.extract") -
      row_median_us(rep, "ml.Standardizer.transform_row") -
      row_median_us(rep, "ml.predict_with_probability");
  run.layer["core.service_self_us"] = {
      row_count(rep, "core.ingest") > 0 ? self : 0.0, "us",
      row_count(rep, "core.ingest"),
      "ingest - extract - standardize_row - predict (medians)"};
}

/// Fills every declared per-layer metric that does not apply to this
/// workload with 0 so each traced result carries the full set.
void zero_fill_layers(Run& run) {
  static const char* const kUnits[][2] = {
      {"taccstats.samples_per_job", "count"}, {"xdmod.rows", "count"},
      {"ml.svm.unique_svs", "count"},         {"ml.svm.pool_kib", "KiB"},
      {"util.pool.tasks", "count"},           {"util.pool.queue_hwm", "count"}};
  for (const auto& [name, unit] : kUnits) {
    if (!run.layer.count(name)) run.layer[name] = {0.0, unit, 0, "not on path"};
  }
}

void print_trace_table(const perfbench::TraceReport& rep) {
  std::printf("\n%-40s %10s %12s %12s %12s\n", "span (layer call)", "count",
              "total ms", "self ms", "median us");
  for (const auto& r : rep.rows) {
    std::printf("%-40s %10zu %12.3f %12.3f %12.3f\n", r.name.c_str(), r.count,
                r.total_ms, r.self_ms, r.median_us);
  }
  std::printf("spans: %zu, children exceeding parent: %zu\n", rep.spans,
              rep.child_exceeds_parent);
  for (const auto& [phase, cov] : rep.phase_coverage) {
    std::printf("phase %-28s children cover %.4f of wall (tolerance %.2f)\n",
                phase.c_str(), cov, kCoverageTolerance);
  }
}

void finish_trace(Run& run, double overhead) {
  const auto spans = Tracer::instance().collect();
  const auto rep = perfbench::analyze_trace(spans);
  print_trace_table(rep);
  run.gate(rep.child_exceeds_parent == 0, "trace: a child span exceeds its parent");
  for (const auto& [phase, cov] : rep.phase_coverage) {
    run.gate(cov >= 1.0 - kCoverageTolerance,
             "trace: " + phase + " children cover only " +
                 perfbench::json_number(cov) + " of its wall time");
  }
  layer_from_trace(run, rep);
  run.layer["trace_overhead"] = {overhead, "ratio", 1,
                                 "traced / untraced serve wall - 1"};
  zero_fill_layers(run);
  if (!run.opt.trace_out.empty()) {
    const bool ok = perfbench::write_chrome_trace(run.opt.trace_out, spans,
                                                  kTraceExportCap);
    run.gate(ok, "cannot write " + run.opt.trace_out);
    std::printf("chrome trace: %s (%zu spans, at most %zu exported)\n",
                run.opt.trace_out.c_str(), spans.size(), kTraceExportCap);
  }
}

// ---- workloads ---------------------------------------------------------

constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

void run_table2(Run& run, core::Algorithm algorithm) {
  const Sizes sizes;
  auto gen = workload::WorkloadGenerator::standard({}, run.opt.seed);
  const std::string csv = make_train_csv(gen, sizes.train_per_class);
  const ServeStream stream = make_serve_stream(gen, sizes.serve_jobs);
  std::printf("inputs: %zu training jobs (%zu bytes CSV), %zu serve jobs\n",
              sizes.train_per_class * table2_applications().size(), csv.size(),
              stream.jobs.size());
  const supremm::JobSummary& probe = stream.jobs.front();

  // Train and set-up spans are recorded in a traced run; the serve
  // measurement itself always runs untraced.
  auto& tracer = Tracer::instance();
  tracer.set_enabled(run.opt.trace);
  const Trained t = phase_train(run, algorithm, csv, true);
  std::vector<double> setup_samples;
  const auto clf = setup_once(run, t.bytes, probe, setup_samples);
  tracer.set_enabled(false);

  // Single and batch windows alternate, so both phases sample the same
  // host conditions; set-ups are taken at quarter points of the run.
  std::uint64_t next_request = 0;
  std::vector<IngestResult> single_first;
  std::vector<IngestResult> batch_first;
  SingleClient single(run, clf, stream.jobs, &single_first);
  BatchClient batch(run, clf, stream.jobs, &batch_first);
  Windows w;
  double batch_cpu_s = 0.0;
  double batch_wall_s = 0.0;
  std::size_t batch_jobs = 0;
  double ingest_cpu_s = 0.0;  ///< inside ingest_batch only
  const auto pool_tasks0 = counter("thread_pool.tasks");
  double served_s = 0.0;
  std::size_t setups = 1;
  std::vector<double> train_samples{t.seconds};
  while (served_s < run.opt.seconds) {
    const auto t0 = Clock::now();
    std::vector<double> us;
    single.serve(t0 + to_duration(kWindowSeconds), kUnlimited, us,
                 next_request);
    w.add_latency_window(std::move(us));
    const auto t1 = Clock::now();
    const double cpu0 = perfbench::process_cpu_seconds();
    const auto served = batch.serve(t1 + to_duration(kWindowSeconds), kUnlimited);
    batch_cpu_s += perfbench::process_cpu_seconds() - cpu0;
    const auto t2 = Clock::now();
    batch_wall_s += std::chrono::duration<double>(t2 - t1).count();
    batch_jobs += served.jobs;
    ingest_cpu_s += served.cpu_s;
    if (served.busy_s > 0.0) {
      w.jobs_per_s.push_back(static_cast<double>(served.jobs) / served.busy_s);
    }
    served_s += std::chrono::duration<double>(t2 - t0).count();
    if (setups < kSetupRepeats - 1 &&
        served_s >= static_cast<double>(setups) * run.opt.seconds /
                        static_cast<double>(kSetupRepeats - 1)) {
      tracer.set_enabled(run.opt.trace);
      setup_once(run, t.bytes, probe, setup_samples);
      tracer.set_enabled(false);
      ++setups;
    }
    if (train_samples.size() < kTrainRepeats - 1 &&
        served_s >= static_cast<double>(train_samples.size()) *
                        run.opt.seconds /
                        static_cast<double>(kTrainRepeats - 1)) {
      retrain(run, algorithm, csv, t, train_samples);
    }
  }
  // Short runs finish the first pass untimed, so the quality metrics and
  // the gates below always cover the whole stream.
  const std::size_t n_jobs = stream.jobs.size();
  if (single.attempted() < n_jobs) {
    std::vector<double> untimed;
    single.serve(Clock::time_point::max(), n_jobs, untimed, next_request);
  }
  if (batch.attempted() < n_jobs) {
    batch.serve(Clock::time_point::max(),
                (n_jobs - batch.attempted() + kBatchBlock - 1) / kBatchBlock);
  }
  single.finish();
  batch.finish();
  setup_once(run, t.bytes, probe, setup_samples);
  retrain(run, algorithm, csv, t, train_samples);
  report_train(run, t, train_samples);

  run.e2e["setup_s"] = {perfbench::trimmed_mean(setup_samples), "s",
                        setup_samples.size(),
                        "trimmed mean: load + service + first ingest"};
  report_windows(run, w);
  run.e2e["ingest_cpu_us_per_job"] = cpu_per_job_metric(
      ingest_cpu_s, batch_jobs, "process CPU inside ingest_batch of 512");
  run.unbounded["ingest_jobs_per_s"] = throughput_metric(w, "ingest_batch of 512");
  run.layer["util.cpu_util.serve"] = {
      batch_cpu_s / (batch_wall_s * perfbench::logical_cpus()), "fraction", 1,
      "ingest_batch windows"};
  run.layer["util.pool.tasks"] = {
      static_cast<double>(counter("thread_pool.tasks") - pool_tasks0), "count",
      1, "thread_pool.tasks delta over the serve windows"};
  run.layer["util.pool.queue_hwm"] = {
      static_cast<double>(obs::MetricsRegistry::instance()
                              .gauge("thread_pool.queue_hwm")
                              .value()),
      "count", 1, "thread_pool.queue_hwm gauge"};
  run.attempted = single.attempted() + batch.attempted() + setup_samples.size();

  // Gates: single == batch per job; save → load keeps every label.
  run.gate(single_first.size() == n_jobs && batch_first.size() == n_jobs,
           "first pass did not cover the served stream");
  std::size_t differ = 0;
  for (std::size_t i = 0; i < n_jobs && i < batch_first.size(); ++i) {
    if (!same_result(single_first[i], batch_first[i])) ++differ;
  }
  run.gate(differ == 0, std::to_string(differ) +
                            " jobs differ between single and batch ingest");
  const auto direct = t.classifier->predict_dataset(
      supremm::build_unlabeled(stream.jobs, t.classifier->schema()));
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < direct.size() && i < single_first.size(); ++i) {
    if (single_first[i].prediction.label != direct[i].label) ++mismatched;
  }
  run.gate(mismatched == 0, "save/load changed " + std::to_string(mismatched) +
                                " labels on the served stream");

  // Quality metrics from what the service served on the first pass.
  std::size_t correct = 0;
  std::size_t attributed = 0;
  for (std::size_t i = 0; i < single_first.size(); ++i) {
    if (single_first[i].prediction.class_name == stream.truth[i]) ++correct;
    if (single_first[i].outcome == Outcome::kAttributed) ++attributed;
  }
  const auto served =
      static_cast<double>(std::max<std::size_t>(1, single_first.size()));
  run.e2e["accuracy"] = {static_cast<double>(correct) / served, "fraction",
                         single_first.size(),
                         "served top class = generator truth"};
  run.e2e["attributed_share"] = {
      static_cast<double>(attributed) / served, "fraction",
      single_first.size(), "served jobs attributed at the service threshold"};

  if (run.opt.trace) {
    // Same requests again, traced, for the per-layer spans and the
    // tracing overhead; then a few traced batch blocks and the replay
    // of the inner layer calls.
    tracer.set_enabled(true);
    SingleClient traced(run, clf, stream.jobs, nullptr);
    std::vector<double> ignored;
    traced.serve(Clock::time_point::max(), single.attempted(), ignored,
                 next_request);
    traced.finish();
    BatchClient traced_batch(run, clf, stream.jobs, nullptr);
    traced_batch.serve(Clock::time_point::max(), 8);
    traced_batch.finish();
    phase_layers(run, algorithm, t, *clf, stream.jobs);
    tracer.set_enabled(false);
    finish_trace(run, traced.wall_s() / single.wall_s() - 1.0);
  }
}

/// Adds the complete windows of one stream segment.  Throughput counts
/// every request; latency counts the requests that reached the model.
/// Identified jobs skip the model and take about half as long, so with
/// half the stream identified the all-request median would sit in the
/// gap between the two modes and jump with the mix.
void add_stream_windows(Windows& w, const StreamLog& log,
                        std::vector<double>& identified_us) {
  const auto n = static_cast<std::size_t>(log.wall_s / kWindowSeconds);
  std::vector<std::vector<double>> by_window(n);
  std::vector<std::size_t> count(n, 0);
  for (const auto& d : log.done) {
    const auto k = static_cast<std::size_t>(d.at_s / kWindowSeconds);
    if (k >= n) continue;
    ++count[k];
    if (d.classified) {
      by_window[k].push_back(d.us);
    } else {
      identified_us.push_back(d.us);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    w.jobs_per_s.push_back(static_cast<double>(count[k]) / kWindowSeconds);
    w.add_latency_window(std::move(by_window[k]));
  }
}

void run_mixed(Run& run) {
  const Sizes sizes;
  auto gen = workload::WorkloadGenerator::standard({}, run.opt.seed);
  const std::string csv = make_train_csv(gen, sizes.train_per_class);
  const auto pool = make_raw_pool(run.opt.seed, sizes.raw_pool);
  std::size_t samples = 0;
  for (const auto& j : pool) samples += j.samples;
  std::printf("inputs: %zu training jobs, %zu distinct raw jobs (%zu samples)\n",
              sizes.train_per_class * table2_applications().size(), pool.size(),
              samples);
  const auto table = lariat::ApplicationTable::standard();
  std::vector<supremm::JobSummary> unidentified;
  for (std::size_t b = 0; b < pool.size(); ++b) {
    auto job = summarize(pool[b], b + 1, table, 0);
    if (job.label_source != supremm::LabelSource::kIdentified) {
      unidentified.push_back(std::move(job));
    }
  }
  run.gate(!unidentified.empty(), "stream pool holds no unidentified job");
  const supremm::JobSummary& probe = unidentified.front();

  auto& tracer = Tracer::instance();
  tracer.set_enabled(run.opt.trace);
  const Trained t = phase_train(run, core::Algorithm::kSvm, csv, true);
  std::vector<double> setup_samples;
  const auto clf = setup_once(run, t.bytes, probe, setup_samples);
  tracer.set_enabled(false);
  const auto replay = replay_pool(run, *t.classifier, clf, pool);
  quality_sample(run, *t.classifier, clf, sizes.quality_jobs);

  // The stream runs in segments with a set-up between segments, each
  // segment on a fresh service.
  std::uint64_t next_request = 0;
  Windows w;
  std::size_t served = 0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> identified_us;
  std::vector<double> train_samples{t.seconds};
  const std::size_t segments = kSetupRepeats - 1;
  for (std::size_t seg = 0; seg < segments; ++seg) {
    if (seg % 2 == 1) {  // with the first and last: kTrainRepeats samples
      retrain(run, core::Algorithm::kSvm, csv, t, train_samples);
    }
    if (seg > 0) {
      tracer.set_enabled(run.opt.trace);
      setup_once(run, t.bytes, probe, setup_samples);
      tracer.set_enabled(false);
    }
    auto log = phase_stream(run, clf, pool, replay,
                            run.opt.seconds / static_cast<double>(segments),
                            kUnlimited, next_request);
    cpu_s += log.cpu_s;
    wall_s += log.wall_s;
    served += log.attempted;
    add_stream_windows(w, log, identified_us);
  }
  setup_once(run, t.bytes, probe, setup_samples);
  retrain(run, core::Algorithm::kSvm, csv, t, train_samples);
  report_train(run, t, train_samples);

  run.e2e["setup_s"] = {perfbench::trimmed_mean(setup_samples), "s",
                        setup_samples.size(),
                        "trimmed mean: load + service + first ingest"};
  report_windows(run, w);
  run.e2e["ingest_p50_us"].note +=
      "; classified requests only, identified median " +
      perfbench::json_number(xdmodml::median(identified_us)) + " us (n=" +
      std::to_string(identified_us.size()) + ")";
  run.e2e["ingest_cpu_us_per_job"] = cpu_per_job_metric(
      cpu_s, served, "process CPU of the stream segments, all threads");
  run.unbounded["ingest_jobs_per_s"] =
      throughput_metric(w, "3 clients, raw samples to warehouse");
  run.layer["util.cpu_util.serve"] = {
      cpu_s / (wall_s * perfbench::logical_cpus()), "fraction", 1,
      "stream segments"};
  run.layer["taccstats.samples_per_job"] = {
      static_cast<double>(samples) / static_cast<double>(pool.size()), "count",
      pool.size(), "raw samples per job, all nodes"};
  run.layer["xdmod.rows"] = {static_cast<double>(served), "count", 1,
                             "stored + dead-lettered rows"};
  run.attempted =
      served + setup_samples.size() + pool.size() + sizes.quality_jobs;

  if (run.opt.trace) {
    // One average segment's requests again, traced.  The overhead is
    // per request against all untraced segments: the first segment alone
    // runs slower, while the warehouse's memory is first touched.
    tracer.set_enabled(true);
    const auto traced =
        phase_stream(run, clf, pool, replay, 1e9,
                     std::max<std::size_t>(1, served / segments), next_request);
    phase_layers(run, core::Algorithm::kSvm, t, *clf, unidentified);
    tracer.set_enabled(false);
    const double traced_s_per_job =
        traced.wall_s / static_cast<double>(traced.attempted);
    const double untraced_s_per_job = wall_s / static_cast<double>(served);
    finish_trace(run, traced_s_per_job / untraced_s_per_job - 1.0);
  }
}

// ---- output ------------------------------------------------------------

/// Host, build and run identity.  `steal_share` is the share of the
/// host's CPU time the hypervisor took during this run (/proc/stat);
/// runs that lost more than a few percent are not comparable with runs
/// that did not.
void print_fingerprint(const Run& run) {
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  const char* digest = std::getenv("PERFBENCH_SOURCE_DIGEST");
  const double steal =
      perfbench::steal_share(run.host_ticks0, perfbench::host_cpu_ticks());
  std::printf(
      "fingerprint {\"cpu\": \"%s\", \"nproc\": %u, \"l2_bytes\": %ld, "
      "\"l3_bytes\": %ld, \"simd\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"pool_threads\": %zu, \"seed\": %llu, \"workload\": \"%s\", "
      "\"seconds\": %s, \"trace\": %d, \"steal_share\": %s}\n",
      perfbench::json_escape(perfbench::cpu_model()).c_str(),
      perfbench::logical_cpus(), sysconf(_SC_LEVEL2_CACHE_SIZE),
      sysconf(_SC_LEVEL3_CACHE_SIZE),
      std::string(simd::isa_name(simd::active())).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, sha ? sha : "unknown",
      digest ? digest : "unknown", ThreadPool::global().size(),
      static_cast<unsigned long long>(run.opt.seed), run.opt.workload.c_str(),
      perfbench::json_number(run.opt.seconds).c_str(), run.opt.trace ? 1 : 0,
      perfbench::json_number(steal).c_str());
}

void print_metrics(const char* title, const MetricMap& metrics) {
  std::printf("\n%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-30s %16s %-9s n=%-8zu %s\n", name.c_str(),
                perfbench::json_number(m.value).c_str(), m.unit.c_str(),
                m.samples, m.note.c_str());
  }
}

int emit_result(Run& run) {
  const std::size_t failed = run.gate_violations;
  if (run.attempted == 0) run.attempted = 1;
  run.e2e["success_rate"] = {
      1.0 - static_cast<double>(failed) / static_cast<double>(run.attempted),
      "fraction", run.attempted,
      "1 - gate violations (failed outcomes included) / attempted"};
  run.e2e["peak_rss_mb"] = {perfbench::peak_rss_mb(), "MB", 1,
                            "process peak RSS"};
  print_fingerprint(run);
  print_metrics("end-to-end metrics", run.e2e);
  print_metrics("also measured, not bounded", run.unbounded);
  if (run.opt.trace) print_metrics("per-layer metrics (traced run)", run.layer);
  const bool correct = run.gate_violations == 0;
  if (!correct) {
    std::printf("\ncorrectness gates FAILED (%zu violations):\n",
                run.gate_violations);
    for (const auto& m : run.gate_messages) std::printf("  - %s\n", m.c_str());
  }
  const MetricMap& out = run.opt.trace ? run.layer : run.e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += perfbench::json_escape(name);
    json += "\": {\"value\": ";
    json += perfbench::json_number(m.value);
    json += ", \"unit\": \"";
    json += perfbench::json_escape(m.unit);
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 2;
}

// ---- digest and self-test ------------------------------------------------

int print_digest(const std::string& workload, std::uint64_t seed) {
  const Sizes sizes = Sizes::small();
  std::uint64_t h = perfbench::fnv1a(workload);
  auto gen = workload::WorkloadGenerator::standard({}, seed);
  h = perfbench::fnv1a(make_train_csv(gen, sizes.train_per_class), h);
  if (workload == "mixed_stream") {
    h = perfbench::fnv1a(raw_digest_text(make_raw_pool(seed, sizes.raw_pool)), h);
    const auto quality = plan_raw_jobs(seed, 0x9a11, sizes.quality_jobs, true);
    for (std::size_t i = 0; i < quality.jobs.size(); ++i) {
      h = perfbench::fnv1a(raw_digest_text({simulate_raw_job(quality, i)}), h);
    }
  } else {
    const auto stream = make_serve_stream(gen, sizes.serve_jobs);
    std::ostringstream out;
    supremm::write_jobs_csv(out, stream.jobs);
    for (const auto& t : stream.truth) out << t << '\n';
    h = perfbench::fnv1a(out.str(), h);
  }
  std::printf("%016llx\n", static_cast<unsigned long long>(h));
  return 0;
}

int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  auto near = [](double a, double b) { return std::abs(a - b) < 1e-12; };
  // Trimmed mean: the lowest and highest tenth (at least one each from
  // five values up) are dropped.
  expect(near(perfbench::trimmed_mean({1, 2, 3, 4}), 2.5),
         "trimmed mean of 4 values drops nothing");
  expect(near(perfbench::trimmed_mean({100, 2, 3, 4, -50}), 3.0),
         "trimmed mean of 5 values drops min and max");
  {
    std::vector<double> v(20);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i);
    v[0] = -1e9;
    v[19] = 1e9;
    expect(near(perfbench::trimmed_mean(v), 9.5),
           "trimmed mean of 20 values drops the outer two each side");
  }
  // Tail rule: the highest percentile with >= 10 samples beyond it.
  std::vector<double> v1000(1000);
  for (std::size_t i = 0; i < v1000.size(); ++i) v1000[i] = double(i + 1);
  {
    const auto t = perfbench::tail_percentile(v1000);
    expect(t.percentile == 99.0 && t.beyond == 10 && near(t.value, 990.0),
           "tail of 1000 samples is p99 with 10 beyond");
  }
  {
    std::vector<double> v999(v1000.begin(), v1000.end() - 1);
    const auto t = perfbench::tail_percentile(v999);
    expect(t.percentile == 90.0 && t.beyond == 99 && near(t.value, 900.0),
           "tail of 999 samples falls back to p90 (p99 leaves 9)");
  }
  {
    std::vector<double> v(20000, 1.0);
    const auto t = perfbench::tail_percentile(v);
    expect(t.percentile == 99.9 && t.beyond == 20, "tail of 20000 is p99.9");
  }
  {
    const auto t = perfbench::tail_percentile(std::vector<double>(10, 1.0));
    expect(t.percentile == 0.0, "10 samples support no tail");
  }
  // Span nesting and self time.
  {
    std::vector<perfbench::Span> spans{
        {"phase", 0, 100, 1, 0, 0, 1},
        {"child", 10, 60, 2, 1, 0, 1},
        {"child", 50, 90, 3, 1, 0, 2},
        {"grandchild", 20, 30, 4, 2, 0, 1}};
    const auto rep = perfbench::analyze_trace(spans);
    double phase_self = -1.0;
    for (const auto& r : rep.rows) {
      if (r.name == "phase") phase_self = r.self_ms * 1e6;
    }
    expect(rep.child_exceeds_parent == 0 && near(phase_self, 20.0) &&
               near(rep.phase_coverage.at(0).second, 0.8),
           "self time subtracts the union of child intervals");
    spans.push_back({"bad", 95, 120, 5, 1, 0, 1});
    expect(perfbench::analyze_trace(spans).child_exceeds_parent == 1,
           "a child outliving its parent is detected");
  }
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload W --seed N --seconds S "
               "[--trace 0|1] [--trace-out FILE]\n"
               "       perfbench_harness --digest W --seed N\n"
               "       perfbench_harness --self-test\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string digest;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--self-test") return self_test();
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--digest") digest = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = value() == "1";
      else if (arg == "--trace-out") opt.trace_out = value();
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage();
    }
  }
  if (!digest.empty()) return print_digest(digest, opt.seed);
  if (opt.seconds <= 0.0) return usage();

  Run run;
  run.opt = opt;
  try {
    if (opt.workload == "svm_table2") {
      run_table2(run, core::Algorithm::kSvm);
    } else if (opt.workload == "forest_table2") {
      run_table2(run, core::Algorithm::kRandomForest);
    } else if (opt.workload == "mixed_stream") {
      run_mixed(run);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return emit_result(run);
}
