// Compiled SVM inference plan: single-query and batched prediction
// throughput, SIMD vs scalar.
//
// The paper's deployment story pushes every unidentified job through a
// 20-class one-vs-one SVM (190 machines, rbf γ=0.1, C=1000).  The
// fitted model is one deduplicated, class-blocked SV pool (DESIGN.md
// §12) swept by one register-tiled kernel: kernel rows for up to four
// queries, then dense class-block coefficient sums.  This bench trains
// the Table-2 model, gates on correctness — batch == single bit for
// bit, save → load → predict bit-identical, dedup > 2× — and times
// three arms:
//
//   compiled_single / compiled_batch  — plan path (native ISA)
//   compiled_batch_scalar             — plan path, scalar microkernels
//
// A failed gate prints ERROR, skips the timings and exits 1.  The
// decision-value differential against a per-machine walk lives in
// test_svm_infer (tests/svm_reference.hpp).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ml/svm.hpp"
#include "ml/svm_plan.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace xdmodml;
using namespace xdmodml::bench;

struct InferModel {
  ml::SvmClassifier svm;
  Matrix probes;          ///< standardized probe features
  std::size_t classes;
};

InferModel build_model(std::uint64_t seed, std::size_t per_class,
                       std::size_t n_probes) {
  auto gen = workload::WorkloadGenerator::standard({}, seed);
  const auto schema = supremm::AttributeSchema::full();
  const auto train_jobs = generate_table2_train(gen, per_class);
  const auto train = workload::build_summary_dataset(
      train_jobs, schema, supremm::label_by_application(),
      table2_applications());

  ml::Standardizer standardizer;
  const Matrix X = standardizer.fit_transform(train.X);

  ml::SvmConfig cfg;
  cfg.kernel = ml::Kernel::rbf(0.1);
  cfg.c = 1000.0;
  cfg.probability = true;
  ml::SvmClassifier svm(cfg, 42);
  svm.fit(X, train.labels, static_cast<int>(train.class_names.size()));

  const auto probe_jobs = generate_table2_test(gen, n_probes);
  Matrix probes;
  for (const auto& job : probe_jobs) {
    auto row = job.summary.extract(schema);
    standardizer.transform_row(row);
    probes.append_row(row);
  }
  return {std::move(svm), std::move(probes), train.class_names.size()};
}

/// Sums predict_proba over every probe row (single-query path).
double sweep_single(const ml::SvmClassifier& svm, const Matrix& probes) {
  double sink = 0.0;
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    sink += svm.predict_proba(probes.row(r))[0];
  }
  return sink;
}

/// Sums predict_proba_batch over the probe matrix (batched path).
double sweep_batch(const ml::SvmClassifier& svm, const Matrix& probes) {
  double sink = 0.0;
  for (const auto& p : svm.predict_proba_batch(probes)) sink += p[0];
  return sink;
}

bool verify_paths(const ml::SvmClassifier& svm, const Matrix& probes) {
  // A batch must reproduce single queries bit for bit.
  const auto batch = svm.predict_batch_with_probability(probes);
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    const auto single = svm.predict_with_probability(probes.row(r));
    if (single.label != batch[r].label ||
        single.probability != batch[r].probability) {
      std::printf("ERROR: batch differs from single query on probe %zu\n",
                  r);
      return false;
    }
  }

  // The saved model is the plan: a reloaded copy predicts identically.
  std::stringstream stream;
  svm.save(stream);
  const auto loaded = ml::SvmClassifier::load(stream);
  const auto reloaded = loaded.predict_batch_with_probability(probes);
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    if (reloaded[r].label != batch[r].label ||
        reloaded[r].probability != batch[r].probability) {
      std::printf("ERROR: save/load changed the prediction of probe %zu\n",
                  r);
      return false;
    }
  }
  std::printf("saved model: %zu bytes\n\n", stream.str().size());
  return true;
}

bool run_experiment() {
  const auto model = build_model(601, scaled(30), scaled(500));
  const auto& svm = model.svm;
  const auto& probes = model.probes;
  auto& json = BenchJsonRecorder::instance();
  const std::size_t threads = ThreadPool::global().size();
  const auto best_isa = simd::active();
  const double n = static_cast<double>(probes.rows());

  std::printf("=== compiled SVM inference: %zu classes, %zu machines, "
              "%zu probes, %zu pool thread(s), isa=%s ===\n\n",
              model.classes, svm.num_machines(), probes.rows(), threads,
              std::string(simd::isa_name(best_isa)).c_str());

  const auto& plan = svm.inference_plan();
  std::printf("plan: %zu/%zu unique SVs, dedup %.2fx, %zu KiB pool, "
              "provenance=%s\n\n",
              plan.unique_support_vectors(), plan.total_support_vectors(),
              plan.dedup_ratio(), plan.pool_bytes() / 1024,
              plan.provenance_keyed() ? "rows" : "content-hash");
  if (plan.dedup_ratio() <= 2.0) {
    std::printf("ERROR: dedup ratio %.2fx below the 2x acceptance gate\n",
                plan.dedup_ratio());
    return false;
  }
  if (!verify_paths(svm, probes)) return false;

  struct Arm {
    const char* op;
    simd::Isa isa;
    bool batch;
  };
  const Arm arms[] = {
      {"compiled_single", best_isa, false},
      {"compiled_batch", best_isa, true},
      {"compiled_batch_scalar", simd::Isa::kScalar, true},
  };

  TextTable table({"arm", "ms (median)", "probes/sec"});
  for (const auto& arm : arms) {
    simd::set_active(arm.isa);
    const auto t = time_median_ms(
        [&] {
          benchmark::DoNotOptimize(arm.batch ? sweep_batch(svm, probes)
                                             : sweep_single(svm, probes));
        },
        /*repeats=*/3);
    simd::set_active(best_isa);
    json.record("bench_svm_infer", arm.op, t.median_ms, probes.rows(),
                arm.batch ? threads : 1, t.repeats);
    table.add_row({arm.op, format_double(t.median_ms, 2),
                   format_double(n / t.median_ms * 1000.0, 0)});
  }
  std::printf("%s", table.render().c_str());
  return true;
}

void bm_compiled_single(benchmark::State& state) {
  const auto model = build_model(602, scaled(20), 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_single(model.svm, model.probes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(model.probes.rows()));
}
BENCHMARK(bm_compiled_single)->Unit(benchmark::kMillisecond);

void bm_compiled_batch(benchmark::State& state) {
  const auto model = build_model(602, scaled(20), 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_batch(model.svm, model.probes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(model.probes.rows()));
}
BENCHMARK(bm_compiled_batch)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  xdmodml::bench::BenchJsonRecorder::instance().parse_args(argc, argv);
  if (!run_experiment()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
