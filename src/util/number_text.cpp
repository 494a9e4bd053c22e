#include "util/number_text.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

namespace xdmodml::numtext {

char* write_double(char* out, double v) {
  return std::to_chars(out, out + kMaxChars, v).ptr;
}

std::optional<double> parse_double(std::string_view token) {
  const char* const end = token.data() + token.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::int64_t> parse_int(std::string_view token) {
  const char* const end = token.data() + token.size();
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace xdmodml::numtext
