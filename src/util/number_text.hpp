// Number <-> text codec shared by the model streams (ml/model_io), the
// job-summary CSV (supremm/summary_io) and CsvWriter.
//
// Doubles are written shortest round-trip: std::to_chars with no format
// or precision argument emits the fewest significant digits that parse
// back to the same bits, choosing fixed or scientific notation by
// length, so the text is never longer than "%.17g" would be.  Tokens are
// parsed whole with std::from_chars, in the C locale, and only finite
// values are accepted: "inf", "nan", an empty token, trailing garbage
// ("0.5x"), out-of-range magnitudes ("1e400", "1e-400") and a leading
// '+' or whitespace are all rejected.  Text written at 17 significant
// digits by the older `ostream << double` writer parses to the same
// doubles, because both conversions are correctly rounded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace xdmodml::numtext {

/// Room write_double needs: the longest shortest-round-trip double,
/// "-2.2250738585072014e-308", is 24 characters.
inline constexpr std::size_t kMaxChars = 32;

/// Writes the shortest round-trip text of `v` at `out`, which must have
/// kMaxChars writable characters; returns one past the last one written.
char* write_double(char* out, double v);

/// Parses the whole token as a finite double; nullopt otherwise.
std::optional<double> parse_double(std::string_view token);

/// Parses the whole token as a base-10 int64 ('-' allowed, '+' not).
std::optional<std::int64_t> parse_int(std::string_view token);

}  // namespace xdmodml::numtext
