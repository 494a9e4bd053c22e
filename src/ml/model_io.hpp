// Token-stream helpers for model serialization.
//
// Models serialize to a line-oriented text format: a header token, then
// tagged fields.  The format is versioned per model type; loaders
// validate every tag and throw InvalidArgument on mismatch, so a
// truncated or foreign file cannot produce a silently wrong model.
//
// Each model class exposes `save(std::ostream&)` and a static
// `load(std::istream&)`; this header provides the shared reader/writer
// plumbing they use.
//
// `SvmClassifier` writes `svm-ovo-v2` (its class-blocked plan, see
// ml/svm_plan.hpp); its loader reads v2 directly and converts
// `svm-ovo-v1` (one binary-svm block per machine) through
// `SvmInferencePlan::build`, with the same semantic validation on both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace xdmodml::ml::io {

/// Writes a tagged scalar / vector line.
void write_tag(std::ostream& out, const std::string& tag);
void write_scalar(std::ostream& out, const std::string& tag, double value);
void write_scalar(std::ostream& out, const std::string& tag,
                  std::int64_t value);
void write_string(std::ostream& out, const std::string& tag,
                  const std::string& value);
void write_vector(std::ostream& out, const std::string& tag,
                  std::span<const double> values);
/// Index vectors (row provenance) serialize as exact integers, not the
/// max_digits10 doubles of write_vector.
void write_index_vector(std::ostream& out, const std::string& tag,
                        std::span<const std::size_t> values);

/// Token reader with tag validation.
class TokenReader {
 public:
  explicit TokenReader(std::istream& in) : in_(in) {}

  /// Consumes exactly `tag` or throws.
  void expect(const std::string& tag);

  /// Consumes and returns the next token — for versioned headers where
  /// the loader must branch on which tag it finds (e.g. binary-svm-v1
  /// vs binary-svm-v2) instead of demanding one exact spelling.
  std::string read_tag();

  double read_double(const std::string& tag);
  std::int64_t read_int(const std::string& tag);
  std::string read_string(const std::string& tag);
  std::vector<double> read_vector(const std::string& tag);
  std::vector<std::size_t> read_index_vector(const std::string& tag);

 private:
  std::string next_token();
  std::istream& in_;
};

}  // namespace xdmodml::ml::io
