// CART decision trees (classification via Gini impurity, regression via
// variance reduction), the building block of the random forest.
//
// Splits are searched over a quantile-binned `BinnedDataset`: per-bin
// class-count (or count/sum/sumsq) histograms are accumulated in one O(n)
// pass per candidate feature and the ≤256 bins are scanned instead of
// sorting the node's samples.  A node derives a child's histogram from
// its own minus the sibling's whenever that is cheaper than rescanning
// (the parent-minus-sibling subtraction trick).  On features with at most
// 256 distinct values this is exactly the classic sort-and-scan CART;
// tests/cart_reference.hpp keeps that algorithm as the differential
// oracle.
//
// `max_features` enables the per-split feature subsampling that
// distinguishes a *random* forest from plain bagging.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "util/rng.hpp"

namespace xdmodml::ml {

class BinnedDataset;

/// Hyper-parameters shared by tree classifier / regressor / forest.
struct TreeConfig {
  std::size_t max_depth = 0;          ///< 0 = unlimited
  std::size_t min_samples_split = 2;  ///< do not split smaller nodes
  std::size_t min_samples_leaf = 1;   ///< both children must have >= this
  std::size_t max_features = 0;       ///< features tried per split; 0 = all
  double min_impurity_decrease = 0.0; ///< prune splits that gain less
};

namespace detail {

/// Task-agnostic CART engine used by both public wrappers.
///
/// A trained tree is a set of flat per-node arrays in the builder's
/// preorder, so a split node's left child is always the next node and
/// only the right child is stored.  Leaves point into one contiguous
/// pool: `num_classes` probabilities per classification leaf, or the
/// single value of a regression leaf.  The same arrays are the fit
/// output, the serialized form and what prediction descends.
class TreeEngine {
 public:
  enum class Task { kClassification, kRegression };

  TreeEngine(Task task, TreeConfig config) : task_(task), config_(config) {}

  /// Trains on the rows of X listed in `sample_indices` (duplicates allowed
  /// — this is how the forest passes bootstrap samples).  For
  /// classification, `y_class` supplies labels; for regression, `y_value`.
  /// `binned` supplies the shared quantile-binned codes of X (the forest
  /// bins once and passes the same dataset to every tree); when null the
  /// engine bins X itself.
  void fit(const Matrix& X, std::span<const int> y_class,
           std::span<const double> y_value, int num_classes,
           std::span<const std::size_t> sample_indices, Rng& rng,
           const BinnedDataset* binned = nullptr);

  /// Leaf class distribution for one row (classification).
  std::span<const double> leaf_probs(std::span<const double> x) const;

  /// Leaf value for one row (regression).
  double leaf_value(std::span<const double> x) const;

  std::size_t node_count() const { return feature_.size(); }
  std::size_t depth() const;
  bool trained() const { return !feature_.empty(); }

  Task task() const { return task_; }
  int num_classes() const { return num_classes_; }
  std::size_t num_features() const { return num_features_; }

  /// Total impurity decrease contributed by each feature (Gini importance).
  std::span<const double> impurity_importance() const {
    return impurity_importance_;
  }

  /// How far a loaded classification leaf's probabilities may sum from
  /// 1; a trained leaf (class counts / node size) is a few ulp off.
  static constexpr double kLeafSumTolerance = 1e-9;

  /// Serialization of a *trained* engine (inference state only).  `load`
  /// rejects any stream whose left children are not in preorder, whose
  /// classification leaves are not finite, non-negative and summing to 1
  /// within kLeafSumTolerance, or whose regression leaves are not finite.
  void save(std::ostream& out) const;
  static TreeEngine load(std::istream& in);

 private:
  struct BuildContext;
  std::size_t build_node(BuildContext& ctx, std::size_t begin,
                         std::size_t end, std::size_t depth_now);
  /// Index of the leaf that x reaches.
  std::size_t descend(std::span<const double> x) const;
  /// Appends a node in preorder and returns its index; a leaf's pool
  /// offset is the current pool end, where the caller appends its entries.
  std::size_t push_node(std::int32_t feature, double threshold);

  Task task_;
  TreeConfig config_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::vector<std::int32_t> feature_;  ///< split feature; -1 marks a leaf
  std::vector<double> threshold_;      ///< go left when x[feature] <= it
  std::vector<std::uint32_t> right_;   ///< right child of a split node
  std::vector<std::uint32_t> leaf_;    ///< a leaf's offset into leaf_pool_
  std::vector<double> leaf_pool_;
  std::vector<double> impurity_importance_;
};

}  // namespace detail

/// Single CART classifier with a `Classifier` interface.
class DecisionTreeClassifier final : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeConfig config = {},
                                  std::uint64_t seed = 1);

  void fit(const Matrix& X, std::span<const int> y, int num_classes) override;
  std::vector<double> predict_proba(std::span<const double> x) const override;
  int num_classes() const override { return num_classes_; }

  std::size_t node_count() const { return engine_.node_count(); }
  std::size_t depth() const { return engine_.depth(); }

 private:
  detail::TreeEngine engine_;
  Rng rng_;
  int num_classes_ = 0;
};

/// Single CART regressor with a `Regressor` interface.
class DecisionTreeRegressor final : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeConfig config = {},
                                 std::uint64_t seed = 1);

  void fit(const Matrix& X, std::span<const double> y) override;
  double predict(std::span<const double> x) const override;

  std::size_t node_count() const { return engine_.node_count(); }

 private:
  detail::TreeEngine engine_;
  Rng rng_;
};

}  // namespace xdmodml::ml
