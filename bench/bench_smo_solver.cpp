// SMO / Gram-row engine perf harness.
//
// Times the training hot path three ways and records the results as
// machine-readable JSON (BENCH_smo.json by default; override with
// --json=<path> or XDMODML_BENCH_JSON):
//   1. kernel-row fill — the pre-PR scalar Kernel::operator() loop vs
//      the norm-cached GramRowEngine on the SIMD microkernels (warm),
//      cold (engine construction included), and with the microkernel
//      ISA forced to scalar to isolate the AVX2 contribution;
//   2. one binary RBF SMO solve with shrinking off vs on;
//   3. the paper's 20-class one-vs-one RBF fit (γ = 0.1, C = 1000) on
//      the engine + shared-cache + shrinking path (the only one the
//      classifier has).
// Every op is a median over warmed-up repeats (time_median_ms), and the
// JSON rows carry the repeat count.  Sizes honour XDMODML_SCALE like
// every other bench.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "ml/svm.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace xdmodml;
using namespace xdmodml::bench;

/// Balanced, standardized 20-application training set.
ml::Dataset make_table2_dataset(std::size_t per_class) {
  auto gen = workload::WorkloadGenerator::standard({}, 4242);
  const auto jobs = generate_table2_train(gen, per_class);
  const auto schema = supremm::AttributeSchema::full();
  auto ds = workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application(), table2_applications());
  ml::Standardizer std_;
  std_.fit(ds.X);
  ds.X = std_.transform(ds.X);
  return ds;
}

void run_experiment() {
  auto& json = BenchJsonRecorder::instance();
  const std::size_t threads = ThreadPool::global().size();
  const auto kernel = ml::Kernel::rbf(0.1);

  // 100 jobs/class ≈ 2000 jobs — the same order as the paper's training
  // sets, and large enough that kernel work (which scales ~n² per
  // machine) dominates the fixed per-machine solver overhead.
  const std::size_t per_class = scaled(100);
  const auto ds = make_table2_dataset(per_class);
  const std::size_t n = ds.size();
  std::printf("=== SMO solver / Gram-row engine timings ===\n");
  std::printf(
      "dataset: %zu jobs, %zu features, %zu classes, %zu threads, "
      "simd=%s\n\n",
      n, ds.num_features(), ds.num_classes(), threads,
      std::string(simd::isa_name(simd::active())).c_str());

  // ---- 1. kernel-row fill: scalar vs engine ------------------------
  std::vector<double> row(n);
  const auto scalar_t = time_median_ms([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const auto xi = ds.X.row(i);
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = kernel(xi, ds.X.row(j));
      }
      benchmark::DoNotOptimize(row.data());
    }
  });
  // Cold = engine construction (norm cache pass) + one full sweep.
  const auto cold_t = time_median_ms([&] {
    const ml::GramRowEngine engine(ds.X, kernel);
    for (std::size_t i = 0; i < n; ++i) {
      engine.fill_row(i, row);
      benchmark::DoNotOptimize(row.data());
    }
  });
  const ml::GramRowEngine engine(ds.X, kernel);
  const auto sweep_once = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      engine.fill_row(i, row);
      benchmark::DoNotOptimize(row.data());
    }
  };
  const auto warm_t = time_median_ms(sweep_once);
  // Same engine with the microkernels pinned to the scalar table —
  // isolates the AVX2/FMA contribution from the norm-cache win.
  TimedRuns nosimd_t;
  const simd::Isa active_isa = simd::active();
  if (simd::set_active(simd::Isa::kScalar)) {
    nosimd_t = time_median_ms(sweep_once);
    simd::set_active(active_isa);
  }
  std::printf("full Gram sweep (%zu rows x %zu cols, median of %zu):\n", n, n,
              warm_t.repeats);
  std::printf("  scalar kernel loop   : %9.2f ms\n", scalar_t.median_ms);
  std::printf("  engine, scalar isa   : %9.2f ms  (%.2fx)\n",
              nosimd_t.median_ms, scalar_t.median_ms / nosimd_t.median_ms);
  std::printf("  engine, cold         : %9.2f ms  (%.2fx)\n", cold_t.median_ms,
              scalar_t.median_ms / cold_t.median_ms);
  std::printf("  engine, warm norms   : %9.2f ms  (%.2fx)\n\n",
              warm_t.median_ms, scalar_t.median_ms / warm_t.median_ms);
  json.record("bench_smo_solver", "gram_sweep_scalar", scalar_t.median_ms, n,
              threads, scalar_t.repeats);
  json.record("bench_smo_solver", "gram_sweep_engine_scalar_isa",
              nosimd_t.median_ms, n, threads, nosimd_t.repeats);
  json.record("bench_smo_solver", "gram_sweep_engine_cold", cold_t.median_ms,
              n, threads, cold_t.repeats);
  json.record("bench_smo_solver", "gram_sweep_engine_warm", warm_t.median_ms,
              n, threads, warm_t.repeats);

  // ---- 2. binary SMO: shrinking off vs on --------------------------
  // The first two classes give a deterministic binary subset.
  std::vector<std::size_t> rows_bin;
  std::vector<signed char> y_bin;
  for (std::size_t i = 0; i < n; ++i) {
    if (ds.labels[i] == 0 || ds.labels[i] == 1) {
      rows_bin.push_back(i);
      y_bin.push_back(ds.labels[i] == 0 ? 1 : -1);
    }
  }
  const Matrix x_bin = ds.X.gather_rows(rows_bin);
  const std::size_t nb = x_bin.rows();
  const ml::GramRowEngine bin_engine(x_bin, kernel);
  std::vector<double> p_bin(nb, -1.0);
  std::vector<double> c_bin(nb, 1000.0);
  ml::SmoProblem prob;
  prob.n = nb;
  prob.p = p_bin;
  prob.y = y_bin;
  prob.c = c_bin;
  prob.kernel_row = [&bin_engine](std::size_t i, std::span<double> out) {
    bin_engine.fill_row(i, out);
  };
  prob.kernel_diag = [&bin_engine](std::size_t i) {
    return bin_engine.diagonal(i);
  };
  ml::SmoResult res_off;
  ml::SmoResult res_on;
  ml::SmoConfig cfg_off;
  cfg_off.shrinking = false;
  const auto smo_off_t =
      time_median_ms([&] { res_off = ml::solve_smo(prob, cfg_off); });
  ml::SmoConfig cfg_on;
  cfg_on.shrinking = true;
  const auto smo_on_t =
      time_median_ms([&] { res_on = ml::solve_smo(prob, cfg_on); });
  std::printf("binary RBF SMO (%zu rows, C=1000, median of %zu):\n", nb,
              smo_on_t.repeats);
  std::printf("  shrinking off: %9.2f ms  (%zu iterations, obj %.4f)\n",
              smo_off_t.median_ms, res_off.iterations, res_off.objective);
  std::printf("  shrinking on : %9.2f ms  (%zu iterations, obj %.4f)\n\n",
              smo_on_t.median_ms, res_on.iterations, res_on.objective);
  json.record("bench_smo_solver", "smo_binary_noshrink", smo_off_t.median_ms,
              nb, threads, smo_off_t.repeats);
  json.record("bench_smo_solver", "smo_binary_shrink", smo_on_t.median_ms, nb,
              threads, smo_on_t.repeats);

  // ---- 3. 20-class one-vs-one fit -----------------------------------
  // Probability mode on (the default and the paper's Figures 1–4
  // workflow): every machine also trains Platt CV folds, so the shared
  // cache amortises each Gram row across machine + folds.
  const ml::SvmConfig engine_cfg;
  const auto ovo_engine_t = time_median_ms(
      [&] {
        ml::SvmClassifier clf(engine_cfg);
        clf.fit(ds.X, ds.labels, static_cast<int>(ds.num_classes()));
      },
      3);
  std::printf(
      "20-class one-vs-one RBF fit (%zu jobs, %zu machines, median of "
      "%zu):\n",
      n, ds.num_classes() * (ds.num_classes() - 1) / 2,
      ovo_engine_t.repeats);
  std::printf("  engine + shared + shrink  : %9.2f ms\n\n",
              ovo_engine_t.median_ms);
  json.record("bench_smo_solver", "ovo20_fit_engine", ovo_engine_t.median_ms,
              n, threads, ovo_engine_t.repeats);
  json.write();
}

void bm_gram_row_engine(benchmark::State& state) {
  const auto ds = make_table2_dataset(20);
  const ml::GramRowEngine engine(ds.X, ml::Kernel::rbf(0.1));
  std::vector<double> row(ds.size());
  std::size_t i = 0;
  for (auto _ : state) {
    engine.fill_row(i, row);
    benchmark::DoNotOptimize(row.data());
    i = (i + 1) % ds.size();
  }
}
BENCHMARK(bm_gram_row_engine)->Unit(benchmark::kMicrosecond);

void bm_gram_row_scalar(benchmark::State& state) {
  const auto ds = make_table2_dataset(20);
  const auto kernel = ml::Kernel::rbf(0.1);
  std::vector<double> row(ds.size());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto xi = ds.X.row(i);
    for (std::size_t j = 0; j < ds.size(); ++j) {
      row[j] = kernel(xi, ds.X.row(j));
    }
    benchmark::DoNotOptimize(row.data());
    i = (i + 1) % ds.size();
  }
}
BENCHMARK(bm_gram_row_scalar)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  auto& json = xdmodml::bench::BenchJsonRecorder::instance();
  json.parse_args(argc, argv);
  if (!json.enabled()) json.set_path("BENCH_smo.json");
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
