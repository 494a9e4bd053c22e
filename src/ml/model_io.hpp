// Token-stream helpers for model serialization.
//
// Models serialize to a line-oriented text format: a header token, then
// tagged fields.  The format is versioned per model type; loaders
// validate every tag and throw InvalidArgument on mismatch, so a
// truncated or foreign file cannot produce a silently wrong model.
//
// Each model class exposes `save(std::ostream&)` and a static
// `load(std::istream&)`; this header provides the shared reader/writer
// plumbing they use.  Doubles are written shortest round-trip and read
// back whole-token, finite only (util/number_text.hpp): every value
// loads bit-identically, save -> load -> save reproduces the bytes, and
// streams written by the older 17-significant-digit writer load to the
// same doubles.  Writers format each line into a stack buffer; the
// reader tokenizes straight from the stream's buffer, with no
// allocation per number.
//
// `SvmClassifier` writes `svm-ovo-v2` (its class-blocked plan, see
// ml/svm_plan.hpp); its loader reads v2 directly and converts
// `svm-ovo-v1` (one binary-svm block per machine) through
// `SvmInferencePlan::build`, with the same semantic validation on both.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace xdmodml::ml::io {

/// Writes a tagged scalar / vector line.
void write_tag(std::ostream& out, std::string_view tag);
void write_scalar(std::ostream& out, std::string_view tag, double value);
void write_scalar(std::ostream& out, std::string_view tag,
                  std::int64_t value);
void write_string(std::ostream& out, std::string_view tag,
                  std::string_view value);
void write_vector(std::ostream& out, std::string_view tag,
                  std::span<const double> values);
/// Index vectors (row provenance) serialize as exact integers.
void write_index_vector(std::ostream& out, std::string_view tag,
                        std::span<const std::size_t> values);

/// Token reader with tag validation.
///
/// Tokens are whitespace-separated (space, \t, \n, \v, \f, \r) and read
/// from `in.rdbuf()` one character at a time, stopping at the whitespace
/// after each token: nothing past the consumed token is read, so several
/// readers (and loaders) can take turns on one stream.  A number or tag
/// token longer than kMaxToken characters is rejected; `read_string` and
/// `read_tag` take tokens of any length.
class TokenReader {
 public:
  static constexpr std::size_t kMaxToken = 256;

  explicit TokenReader(std::istream& in) : in_(in) {}

  /// Consumes exactly `tag` or throws.
  void expect(std::string_view tag);

  /// Consumes and returns the next token — for versioned headers where
  /// the loader must branch on which tag it finds (e.g. binary-svm-v1
  /// vs binary-svm-v2) instead of demanding one exact spelling.
  std::string read_tag();

  double read_double(std::string_view tag);
  std::int64_t read_int(std::string_view tag);
  std::string read_string(std::string_view tag);
  std::vector<double> read_vector(std::string_view tag);
  /// read_vector that appends the elements to `out` and returns how
  /// many it appended.
  std::size_t read_vector_into(std::string_view tag, std::vector<double>& out);
  std::vector<std::size_t> read_index_vector(std::string_view tag);

 private:
  /// The next token, valid until the next read; throws when the stream
  /// holds no further token or the token exceeds kMaxToken.
  std::string_view next_token();
  std::string next_long_token();
  double next_double(std::string_view tag);
  std::int64_t next_int(std::string_view tag);

  std::istream& in_;
  std::array<char, kMaxToken> buf_;
};

}  // namespace xdmodml::ml::io
