#include "ml/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "ml/model_io.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace xdmodml::ml {

void Dataset::validate() const {
  XDMODML_CHECK(labels.empty() || targets.empty(),
                "dataset cannot have both labels and targets");
  if (!labels.empty()) {
    XDMODML_CHECK(labels.size() == X.rows(),
                  "label count must match row count");
    for (const int y : labels) {
      XDMODML_CHECK(y >= 0 && static_cast<std::size_t>(y) < class_names.size(),
                    "label out of range of class_names");
    }
  }
  if (!targets.empty()) {
    XDMODML_CHECK(targets.size() == X.rows(),
                  "target count must match row count");
  }
  if (!feature_names.empty()) {
    XDMODML_CHECK(feature_names.size() == X.cols(),
                  "feature_names must match column count");
  }
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.X = X.gather_rows(indices);
  out.feature_names = feature_names;
  out.class_names = class_names;
  if (!labels.empty()) {
    out.labels.reserve(indices.size());
    for (const auto i : indices) {
      XDMODML_CHECK(i < labels.size(), "subset index out of range");
      out.labels.push_back(labels[i]);
    }
  }
  if (!targets.empty()) {
    out.targets.reserve(indices.size());
    for (const auto i : indices) {
      XDMODML_CHECK(i < targets.size(), "subset index out of range");
      out.targets.push_back(targets[i]);
    }
  }
  return out;
}

Dataset Dataset::select_features(
    std::span<const std::size_t> feature_indices) const {
  Dataset out;
  out.X = X.gather_cols(feature_indices);
  out.labels = labels;
  out.targets = targets;
  out.class_names = class_names;
  if (!feature_names.empty()) {
    out.feature_names.reserve(feature_indices.size());
    for (const auto f : feature_indices) {
      out.feature_names.push_back(feature_names[f]);
    }
  }
  return out;
}

std::vector<std::size_t> Dataset::class_counts() const {
  std::vector<std::size_t> counts(num_classes(), 0);
  for (const int y : labels) ++counts[static_cast<std::size_t>(y)];
  return counts;
}

SplitIndices stratified_split(const Dataset& ds, double train_fraction,
                              Rng& rng) {
  XDMODML_CHECK(train_fraction >= 0.0 && train_fraction <= 1.0,
                "train_fraction must be in [0, 1]");
  XDMODML_CHECK(!ds.labels.empty(), "stratified_split requires labels");
  std::vector<std::vector<std::size_t>> by_class(ds.num_classes());
  for (std::size_t i = 0; i < ds.labels.size(); ++i) {
    by_class[static_cast<std::size_t>(ds.labels[i])].push_back(i);
  }
  SplitIndices split;
  for (auto& rows : by_class) {
    rng.shuffle(rows);
    const auto n_train = static_cast<std::size_t>(
        std::llround(train_fraction * static_cast<double>(rows.size())));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      (i < n_train ? split.train : split.test).push_back(rows[i]);
    }
  }
  rng.shuffle(split.train);
  rng.shuffle(split.test);
  return split;
}

std::vector<std::size_t> balanced_sample(const Dataset& ds,
                                         std::size_t per_class, Rng& rng) {
  XDMODML_CHECK(!ds.labels.empty(), "balanced_sample requires labels");
  std::vector<std::vector<std::size_t>> by_class(ds.num_classes());
  for (std::size_t i = 0; i < ds.labels.size(); ++i) {
    by_class[static_cast<std::size_t>(ds.labels[i])].push_back(i);
  }
  std::vector<std::size_t> out;
  for (auto& rows : by_class) {
    rng.shuffle(rows);
    const std::size_t take = std::min(per_class, rows.size());
    out.insert(out.end(), rows.begin(), rows.begin() + take);
  }
  rng.shuffle(out);
  return out;
}

std::vector<std::size_t> random_sample(std::size_t dataset_size,
                                       std::size_t n, Rng& rng) {
  return rng.sample_without_replacement(dataset_size,
                                        std::min(n, dataset_size));
}

void Standardizer::fit(const Matrix& X) {
  XDMODML_CHECK(X.rows() > 0, "Standardizer::fit requires data");
  means_.assign(X.cols(), 0.0);
  scales_.assign(X.cols(), 1.0);
  for (std::size_t c = 0; c < X.cols(); ++c) {
    RunningStats rs;
    for (std::size_t r = 0; r < X.rows(); ++r) rs.add(X(r, c));
    means_[c] = rs.mean();
    const double sd = rs.stddev();
    scales_[c] = sd > 0.0 ? sd : 1.0;
  }
}

Matrix Standardizer::transform(const Matrix& X) const {
  XDMODML_CHECK(fitted(), "Standardizer used before fit()");
  XDMODML_CHECK(X.cols() == means_.size(),
                "Standardizer column count mismatch");
  Matrix out = X;
  for (std::size_t r = 0; r < out.rows(); ++r) transform_row(out.row(r));
  return out;
}

void Standardizer::transform_row(std::span<double> row) const {
  XDMODML_CHECK(fitted(), "Standardizer used before fit()");
  XDMODML_CHECK(row.size() == means_.size(),
                "Standardizer row width mismatch");
  for (std::size_t c = 0; c < row.size(); ++c) {
    row[c] = (row[c] - means_[c]) / scales_[c];
  }
}

Matrix Standardizer::fit_transform(const Matrix& X) {
  fit(X);
  return transform(X);
}

void Standardizer::save(std::ostream& out) const {
  XDMODML_CHECK(fitted(), "cannot save an unfitted Standardizer");
  io::write_tag(out, "standardizer-v1");
  io::write_vector(out, "means", means_);
  io::write_vector(out, "scales", scales_);
}

Standardizer Standardizer::load(std::istream& in) {
  io::TokenReader reader(in);
  reader.expect("standardizer-v1");
  Standardizer s;
  s.means_ = reader.read_vector("means");
  s.scales_ = reader.read_vector("scales");
  XDMODML_CHECK(s.means_.size() == s.scales_.size() && !s.means_.empty(),
                "corrupt standardizer stream");
  for (const double mean : s.means_) {
    XDMODML_CHECK(std::isfinite(mean), "corrupt standardizer mean");
  }
  for (const double scale : s.scales_) {
    XDMODML_CHECK(std::isfinite(scale) && scale > 0.0,
                  "corrupt standardizer scale");
  }
  return s;
}

int LabelEncoder::encode(const std::string& label) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == label) return static_cast<int>(i);
  }
  names_.push_back(label);
  return static_cast<int>(names_.size() - 1);
}

std::optional<int> LabelEncoder::lookup(const std::string& label) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == label) return static_cast<int>(i);
  }
  return std::nullopt;
}

const std::string& LabelEncoder::decode(int code) const {
  XDMODML_CHECK(code >= 0 && static_cast<std::size_t>(code) < names_.size(),
                "LabelEncoder::decode out of range");
  return names_[static_cast<std::size_t>(code)];
}

}  // namespace xdmodml::ml
