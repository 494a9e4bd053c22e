// Test-side reference for CART: the classic sort-and-scan split search.
// For each candidate feature the samples reaching a node are sorted by
// raw value and every midpoint between distinct consecutive values is
// scored incrementally.  The library searches splits over a
// BinnedDataset only; on features with at most 256 distinct values
// (one bin per value) its trees must match these bit for bit, which is
// what the SplitEquivalence tests check.
//
// The reference follows the engine's conventions exactly: features are
// drawn by a lazy Fisher–Yates over one pool kept across nodes
// (Rng::uniform_index), features constant within a node do not count
// against mtry, a candidate wins only with strict `gain > best`, the
// threshold is the midpoint of the straddling values, and the left
// subtree is built first, so nodes come out in preorder.  `Forest`
// bootstraps with the same per-tree `root.split()` streams as
// RandomForestClassifier.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace xdmodml::ml::reference {

inline std::vector<std::size_t> all_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

class CartTree {
 public:
  /// Fits on the rows in `samples` (duplicates allowed).  Classification
  /// when `num_classes > 0` (labels in y_class), else regression.
  static CartTree fit(const Matrix& X, std::span<const int> y_class,
                      std::span<const double> y_value, int num_classes,
                      std::vector<std::size_t> samples,
                      const TreeConfig& config, Rng& rng) {
    CartTree tree;
    Builder b{X, y_class, y_value, static_cast<std::size_t>(num_classes),
              std::move(samples), config, rng, all_rows(X.cols()), tree};
    b.build(0, b.samples.size(), 0);
    return tree;
  }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const { return depth_; }

  std::span<const double> leaf_probs(std::span<const double> x) const {
    return descend(x).probs;
  }
  double leaf_value(std::span<const double> x) const {
    return descend(x).value;
  }

 private:
  struct Node {
    int feature = -1;  ///< -1 marks a leaf
    double threshold = 0.0;
    std::size_t right = 0;  ///< the left child is the next node
    std::vector<double> probs;
    double value = 0.0;
  };

  struct Builder {
    const Matrix& X;
    std::span<const int> y_class;
    std::span<const double> y_value;
    std::size_t classes;
    std::vector<std::size_t> samples;
    const TreeConfig& config;
    Rng& rng;
    std::vector<std::size_t> pool;
    CartTree& tree;

    static double gini(const std::vector<std::size_t>& counts,
                       std::size_t total) {
      double sum_sq = 0.0;
      for (const auto c : counts) {
        const double p = static_cast<double>(c) / static_cast<double>(total);
        sum_sq += p * p;
      }
      return 1.0 - sum_sq;
    }

    std::size_t build(std::size_t begin, std::size_t end, std::size_t depth) {
      const std::size_t n = end - begin;
      const auto nd = static_cast<double>(n);
      const std::size_t index = tree.nodes_.size();
      tree.nodes_.emplace_back();
      tree.depth_ = std::max(tree.depth_, depth + 1);

      std::vector<std::size_t> counts(classes, 0);
      double sum = 0.0;
      double sum_sq = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        if (classes > 0) {
          ++counts[static_cast<std::size_t>(y_class[samples[i]])];
        } else {
          sum += y_value[samples[i]];
          sum_sq += y_value[samples[i]] * y_value[samples[i]];
        }
      }
      const double impurity =
          classes > 0 ? gini(counts, n)
                      : std::max(0.0, sum_sq / nd - (sum / nd) * (sum / nd));
      auto leaf = [&] {
        Node& node = tree.nodes_[index];
        for (const auto c : counts) {
          node.probs.push_back(static_cast<double>(c) / nd);
        }
        node.value = sum / nd;
        return index;
      };
      const bool pure =
          classes > 0 ? std::count_if(counts.begin(), counts.end(),
                                      [](std::size_t c) { return c > 0; }) <= 1
                      : impurity <= 1e-12;
      if (pure || n < config.min_samples_split ||
          (config.max_depth != 0 && depth >= config.max_depth)) {
        return leaf();
      }

      const std::size_t features = pool.size();
      const std::size_t mtry = config.max_features == 0
                                   ? features
                                   : std::min(config.max_features, features);
      int best_feature = -1;
      double best_threshold = 0.0;
      double best = config.min_impurity_decrease;
      std::size_t evaluated = 0;
      std::vector<std::pair<double, std::size_t>> sorted;
      for (std::size_t fi = 0; fi < features && evaluated < mtry; ++fi) {
        std::swap(pool[fi], pool[fi + static_cast<std::size_t>(
                                          rng.uniform_index(features - fi))]);
        const std::size_t f = pool[fi];
        sorted.clear();
        for (std::size_t i = begin; i < end; ++i) {
          sorted.emplace_back(X(samples[i], f), samples[i]);
        }
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto& a, const auto& b) {
                    return a.first < b.first;
                  });
        if (sorted.front().first == sorted.back().first) continue;
        ++evaluated;

        std::vector<std::size_t> left(classes, 0);
        std::vector<std::size_t> right = counts;
        double left_sum = 0.0, left_sq = 0.0;
        double right_sum = sum, right_sq = sum_sq;
        for (std::size_t i = 0; i + 1 < n; ++i) {
          const std::size_t s = sorted[i].second;
          if (classes > 0) {
            ++left[static_cast<std::size_t>(y_class[s])];
            --right[static_cast<std::size_t>(y_class[s])];
          } else {
            const double v = y_value[s];
            left_sum += v;
            left_sq += v * v;
            right_sum -= v;
            right_sq -= v * v;
          }
          if (sorted[i].first == sorted[i + 1].first) continue;
          const std::size_t nl = i + 1;
          const std::size_t nr = n - nl;
          if (nl < config.min_samples_leaf || nr < config.min_samples_leaf) {
            continue;
          }
          const auto l = static_cast<double>(nl);
          const auto r = static_cast<double>(nr);
          double gain = 0.0;
          if (classes > 0) {
            gain = impurity - (l * gini(left, nl) + r * gini(right, nr)) / nd;
          } else {
            const double var_l =
                std::max(0.0, left_sq / l - (left_sum / l) * (left_sum / l));
            const double var_r = std::max(
                0.0, right_sq / r - (right_sum / r) * (right_sum / r));
            gain = impurity - (l * var_l + r * var_r) / nd;
          }
          if (gain > best) {
            best = gain;
            best_feature = static_cast<int>(f);
            // Midpoint, halves summed only when the sum overflows.
            const double a = sorted[i].first;
            const double b = sorted[i + 1].first;
            best_threshold = std::isfinite(0.5 * (a + b)) ? 0.5 * (a + b)
                                                          : 0.5 * a + 0.5 * b;
          }
        }
      }
      if (best_feature < 0) return leaf();

      const auto f = static_cast<std::size_t>(best_feature);
      const auto mid = static_cast<std::size_t>(
          std::partition(samples.data() + begin, samples.data() + end,
                         [&](std::size_t s) {
                           return X(s, f) <= best_threshold;
                         }) -
          samples.data());
      if (mid == begin || mid == end) return leaf();
      tree.nodes_[index].feature = best_feature;
      tree.nodes_[index].threshold = best_threshold;
      build(begin, mid, depth + 1);
      const std::size_t right = build(mid, end, depth + 1);
      tree.nodes_[index].right = right;
      return index;
    }
  };

  const Node& descend(std::span<const double> x) const {
    std::size_t i = 0;
    while (nodes_[i].feature >= 0) {
      const auto f = static_cast<std::size_t>(nodes_[i].feature);
      i = x[f] <= nodes_[i].threshold ? i + 1 : nodes_[i].right;
    }
    return nodes_[i];
  }

  std::vector<Node> nodes_;
  std::size_t depth_ = 0;
};

/// RandomForestClassifier(config, seed).fit(X, y, classes) with every
/// tree grown by CartTree: the same per-tree streams, bootstrap draws,
/// default mtry, soft vote and OOB majority vote.
class Forest {
 public:
  static Forest fit(const Matrix& X, std::span<const int> y, int classes,
                    ForestConfig config, std::uint64_t seed) {
    Forest forest;
    forest.classes_ = static_cast<std::size_t>(classes);
    if (config.tree.max_features == 0) {
      config.tree.max_features = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::sqrt(static_cast<double>(X.cols()))));
    }
    const std::size_t n = X.rows();
    std::vector<std::uint32_t> votes(n * forest.classes_, 0);
    Rng root(seed);
    std::vector<Rng> streams;
    for (std::size_t t = 0; t < config.num_trees; ++t) {
      streams.push_back(root.split());
    }
    for (auto& rng : streams) {
      std::vector<std::size_t> in_bag = all_rows(n);
      std::vector<char> seen(n, 0);
      if (config.bootstrap) {
        for (std::size_t i = 0; i < n; ++i) {
          const auto j = static_cast<std::size_t>(rng.uniform_index(n));
          in_bag[i] = j;
          seen[j] = 1;
        }
      }
      forest.trees_.push_back(CartTree::fit(X, y, {}, classes,
                                            std::move(in_bag), config.tree,
                                            rng));
      if (!config.bootstrap) continue;
      for (std::size_t row = 0; row < n; ++row) {
        if (seen[row]) continue;
        ++votes[row * forest.classes_ +
                argmax(forest.trees_.back().leaf_probs(X.row(row)))];
      }
    }

    std::size_t evaluated = 0;
    std::size_t wrong = 0;
    for (std::size_t row = 0; row < n; ++row) {
      const std::span<const std::uint32_t> row_votes(
          votes.data() + row * forest.classes_, forest.classes_);
      if (std::accumulate(row_votes.begin(), row_votes.end(),
                          std::uint64_t{0}) == 0) {
        continue;
      }
      ++evaluated;
      if (static_cast<int>(argmax(row_votes)) != y[row]) ++wrong;
    }
    if (evaluated > 0) {
      forest.oob_error_ =
          static_cast<double>(wrong) / static_cast<double>(evaluated);
    }
    return forest;
  }

  std::vector<double> predict_proba(std::span<const double> x) const {
    std::vector<double> proba(classes_, 0.0);
    for (const auto& tree : trees_) {
      const auto probs = tree.leaf_probs(x);
      for (std::size_t c = 0; c < classes_; ++c) proba[c] += probs[c];
    }
    for (auto& p : proba) p /= static_cast<double>(trees_.size());
    return proba;
  }

  int predict(std::span<const double> x) const {
    return static_cast<int>(argmax<double>(predict_proba(x)));
  }

  double oob_error() const { return oob_error_; }

 private:
  template <typename T>
  static std::size_t argmax(std::span<const T> v) {
    return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) -
                                    v.begin());
  }

  std::size_t classes_ = 0;
  std::vector<CartTree> trees_;
  double oob_error_ = -1.0;
};

}  // namespace xdmodml::ml::reference
