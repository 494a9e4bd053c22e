// Test-side reference for one-vs-one SVM prediction: every machine's
// decision value from the scalar kernel over its own support vectors
// (BinarySvm::decision_value), then LIBSVM's clipped Platt + pairwise
// coupling, or hard votes.  The library serves from SvmInferencePlan
// only; this per-machine walk is the differential oracle it is checked
// against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <span>
#include <vector>

#include "ml/model_io.hpp"
#include "ml/svm.hpp"
#include "util/matrix.hpp"

namespace xdmodml::ml::reference {

struct OneVsOne {
  std::vector<BinarySvm> machines;  ///< lexicographic (a, b) order
  int classes = 0;
  bool probability = false;

  /// Parses an svm-ovo-v1 stream.
  static OneVsOne from_v1(std::istream& in) {
    io::TokenReader reader(in);
    reader.expect("svm-ovo-v1");
    OneVsOne ovo;
    ovo.classes = static_cast<int>(reader.read_int("classes"));
    ovo.probability = reader.read_int("probability") != 0;
    const auto n = reader.read_int("machines");
    for (std::int64_t m = 0; m < n; ++m) {
      ovo.machines.push_back(BinarySvm::load(in));
    }
    return ovo;
  }

  /// The machines SvmClassifier(config, seed).fit(X, y, classes)
  /// compiles into its plan.
  static OneVsOne fit(const Matrix& X, std::span<const int> y, int classes,
                      const SvmConfig& config, std::uint64_t seed) {
    return {fit_one_vs_one(X, y, classes, config, seed), classes,
            config.probability};
  }

  std::vector<double> decision_values(std::span<const double> x) const {
    std::vector<double> out;
    for (const auto& m : machines) out.push_back(m.decision_value(x));
    return out;
  }

  /// One-vs-one vote counts per class.
  std::vector<double> votes(std::span<const double> x) const {
    std::vector<double> out(static_cast<std::size_t>(classes), 0.0);
    std::size_t m = 0;
    for (int a = 0; a < classes; ++a) {
      for (int b = a + 1; b < classes; ++b, ++m) {
        ++out[static_cast<std::size_t>(
            machines[m].decision_value(x) > 0.0 ? a : b)];
      }
    }
    return out;
  }

  /// Coupled probabilities, or vote fractions without probability.
  std::vector<double> predict_proba(std::span<const double> x) const {
    if (!probability) {
      auto fractions = votes(x);
      for (auto& v : fractions) v /= static_cast<double>(machines.size());
      return fractions;
    }
    const auto k = static_cast<std::size_t>(classes);
    Matrix pairwise(k, k, 0.0);
    std::size_t m = 0;
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b, ++m) {
        const double r = std::clamp(machines[m].probability_positive(x),
                                    1e-7, 1.0 - 1e-7);
        pairwise(a, b) = r;
        pairwise(b, a) = 1.0 - r;
      }
    }
    return couple_pairwise_probabilities(pairwise);
  }

  static int argmax(const std::vector<double>& v) {
    return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
  }
  int predict(std::span<const double> x) const {
    return argmax(predict_proba(x));
  }
  int predict_by_votes(std::span<const double> x) const {
    return argmax(votes(x));
  }
};

}  // namespace xdmodml::ml::reference
