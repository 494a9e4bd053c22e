// Random-forest training perf harness: histogram-binned splits over a
// shared BinnedDataset.
//
// Times the forest hot path and records the results as machine-readable
// JSON (BENCH_forest.json by default; override with --json=<path> or
// XDMODML_BENCH_JSON):
//   1. binning cost — one BinnedDataset build over the full training
//      table (the once-per-forest cost every tree amortises);
//   2. the headline 200-tree job-classification fit with its OOB error;
//   3. a tree-count sweep (50/100/200 trees);
//   4. a feature-width sweep (8/16/full attributes), each subset's codes
//      derived from the shared table via select_features instead of
//      re-binning.
// Every op is a median over warmed-up repeats (time_median_ms); sizes
// honour XDMODML_SCALE like every other bench.  With --metrics the rows
// carry the observability snapshot (tree.nodes, tree.hist_built,
// tree.hist_subtracted, ... — see DESIGN.md §9/§10).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "ml/binned_dataset.hpp"
#include "ml/random_forest.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace xdmodml;
using namespace xdmodml::bench;

/// Balanced 20-application training set on the full attribute schema.
/// Raw features: trees are invariant to monotone per-feature transforms,
/// so the forest benches (unlike the SVM ones) skip standardization.
ml::Dataset make_forest_dataset(std::size_t per_class) {
  auto gen = workload::WorkloadGenerator::standard({}, 4242);
  const auto jobs = generate_table2_train(gen, per_class);
  const auto schema = supremm::AttributeSchema::full();
  return workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application(), table2_applications());
}

ml::ForestConfig forest_config(std::size_t trees) {
  ml::ForestConfig cfg;
  cfg.num_trees = trees;
  return cfg;
}

/// Fits one forest and returns its OOB error.
double fit_oob(const ml::Dataset& ds, const ml::ForestConfig& cfg,
               std::uint64_t seed = 7) {
  ml::RandomForestClassifier forest(cfg, seed);
  forest.fit(ds.X, ds.labels, static_cast<int>(ds.num_classes()));
  return forest.oob_error();
}

void run_experiment() {
  auto& json = BenchJsonRecorder::instance();
  const std::size_t threads = ThreadPool::global().size();

  // 100 jobs/class ≈ 2000 jobs over the 20 Table-2 applications — the
  // same fixture as the SVM benches, so the two BENCH files describe the
  // same classification problem.
  const std::size_t per_class = scaled(100);
  const std::size_t headline_trees = scaled(200);
  const auto ds = make_forest_dataset(per_class);
  const std::size_t n = ds.size();
  std::printf("=== random-forest training timings ===\n");
  std::printf("dataset: %zu jobs, %zu features, %zu classes, %zu threads\n\n",
              n, ds.num_features(), ds.num_classes(), threads);

  // ---- 1. binning cost ---------------------------------------------
  const auto bin_t = time_median_ms([&] {
    const ml::BinnedDataset binned(ds.X);
    benchmark::DoNotOptimize(&binned);
  });
  {
    const ml::BinnedDataset binned(ds.X);
    std::printf(
        "BinnedDataset build      : %9.2f ms  (%zu bins max, %.1f KiB)\n\n",
        bin_t.median_ms, binned.max_bins_used(),
        static_cast<double>(binned.memory_bytes()) / 1024.0);
  }
  json.record("bench_forest", "binned_build", bin_t.median_ms, n, threads,
              bin_t.repeats);

  // ---- 2. headline fit --------------------------------------------
  double oob = 0.0;
  const auto cfg = forest_config(headline_trees);
  const auto fit_t = time_median_ms([&] { oob = fit_oob(ds, cfg); }, 3);
  std::printf(
      "%zu-tree fit (%zu jobs, median of %zu): %9.2f ms  (OOB %.4f)\n\n",
      headline_trees, n, fit_t.repeats, fit_t.median_ms, oob);
  json.record("bench_forest", "fit200_hist", fit_t.median_ms, n, threads,
              fit_t.repeats);
  // OOB error in percent, recorded so the trajectory can track accuracy
  // (wall_ms carries the value; this row is accuracy, not time).
  json.record("bench_forest", "oob200_hist_pct", 100.0 * oob, n, threads,
              fit_t.repeats);

  // ---- 3. tree-count sweep -----------------------------------------
  std::printf("tree-count sweep (median of 3):\n");
  for (const std::size_t base : {50, 100, 200}) {
    const std::size_t trees = scaled(static_cast<std::size_t>(base));
    const auto sweep_cfg = forest_config(trees);
    const auto fit = time_median_ms([&] { fit_oob(ds, sweep_cfg); }, 3);
    std::printf("  %4zu trees: %9.2f ms\n", trees, fit.median_ms);
    json.record("bench_forest", "trees" + std::to_string(base) + "_hist",
                fit.median_ms, n, threads, fit.repeats);
  }
  std::printf("\n");

  // ---- 4. feature-width sweep --------------------------------------
  // Each width reuses the full-table codes: its dataset is a
  // select_features view of the one shared BinnedDataset, the same path
  // the predictor-sweep experiment (Figure 6) takes per cutoff.
  const auto shared = std::make_shared<const ml::BinnedDataset>(ds.X);
  std::vector<std::size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  const std::size_t sweep_trees = scaled(100);
  std::printf("feature-width sweep (%zu trees, median of 3):\n", sweep_trees);
  for (const std::size_t width : {std::size_t{8}, std::size_t{16},
                                  ds.num_features()}) {
    if (width > ds.num_features()) continue;
    std::vector<std::size_t> keep(width);
    std::iota(keep.begin(), keep.end(), 0);
    const auto sub = ds.select_features(keep);
    const auto sweep_cfg = forest_config(sweep_trees);
    const auto fit = time_median_ms(
        [&] {
          const auto sub_binned = std::make_shared<const ml::BinnedDataset>(
              shared->select_features(keep));
          ml::RandomForestClassifier forest(sweep_cfg, 7);
          forest.fit_rows(sub.X, sub.labels,
                          static_cast<int>(sub.num_classes()), all_rows,
                          sub_binned);
        },
        3);
    std::printf("  %4zu features: %9.2f ms\n", width, fit.median_ms);
    json.record("bench_forest", "width" + std::to_string(width) + "_hist",
                fit.median_ms, n, threads, fit.repeats);
  }
  json.write();
}

void bm_forest_fit_hist(benchmark::State& state) {
  const auto ds = make_forest_dataset(20);
  const auto cfg = forest_config(20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit_oob(ds, cfg));
  }
}
BENCHMARK(bm_forest_fit_hist)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto& json = xdmodml::bench::BenchJsonRecorder::instance();
  json.parse_args(argc, argv);
  if (!json.enabled()) json.set_path("BENCH_forest.json");
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
