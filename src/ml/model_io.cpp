#include "ml/model_io.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "util/error.hpp"

namespace xdmodml::ml::io {

namespace {
constexpr std::int64_t kReserveCap = std::int64_t{1} << 16;
}  // namespace

void write_tag(std::ostream& out, const std::string& tag) {
  out << tag << '\n';
}

void write_scalar(std::ostream& out, const std::string& tag, double value) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << tag << ' ' << value << '\n';
}

void write_scalar(std::ostream& out, const std::string& tag,
                  std::int64_t value) {
  out << tag << ' ' << value << '\n';
}

void write_string(std::ostream& out, const std::string& tag,
                  const std::string& value) {
  XDMODML_CHECK(value.find_first_of(" \t\n") == std::string::npos,
                "serialized strings must be token-safe");
  out << tag << ' ' << value << '\n';
}

void write_vector(std::ostream& out, const std::string& tag,
                  std::span<const double> values) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << tag << ' ' << values.size();
  for (const double v : values) out << ' ' << v;
  out << '\n';
}

void write_index_vector(std::ostream& out, const std::string& tag,
                        std::span<const std::size_t> values) {
  out << tag << ' ' << values.size();
  for (const std::size_t v : values) out << ' ' << v;
  out << '\n';
}

std::string TokenReader::next_token() {
  std::string token;
  if (!(in_ >> token)) {
    throw InvalidArgument("model stream truncated");
  }
  return token;
}

std::string TokenReader::read_tag() { return next_token(); }

void TokenReader::expect(const std::string& tag) {
  const auto token = next_token();
  XDMODML_CHECK(token == tag,
                "model stream: expected '" + tag + "', got '" + token + "'");
}

double TokenReader::read_double(const std::string& tag) {
  expect(tag);
  double v = 0.0;
  XDMODML_CHECK(static_cast<bool>(in_ >> v),
                "model stream: bad double for tag " + tag);
  return v;
}

std::int64_t TokenReader::read_int(const std::string& tag) {
  expect(tag);
  std::int64_t v = 0;
  XDMODML_CHECK(static_cast<bool>(in_ >> v),
                "model stream: bad integer for tag " + tag);
  return v;
}

std::string TokenReader::read_string(const std::string& tag) {
  expect(tag);
  return next_token();
}

std::vector<std::size_t> TokenReader::read_index_vector(
    const std::string& tag) {
  expect(tag);
  std::int64_t n = 0;
  XDMODML_CHECK(static_cast<bool>(in_ >> n) && n >= 0,
                "model stream: bad index vector length for tag " + tag);
  // Reserve at most kReserveCap up front and grow as elements arrive: a
  // corrupt length cannot allocate more than the stream actually holds.
  std::vector<std::size_t> values;
  values.reserve(static_cast<std::size_t>(std::min(n, kReserveCap)));
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t raw = 0;
    XDMODML_CHECK(static_cast<bool>(in_ >> raw) && raw >= 0,
                  "model stream: bad index element for tag " + tag);
    values.push_back(static_cast<std::size_t>(raw));
  }
  return values;
}

std::vector<double> TokenReader::read_vector(const std::string& tag) {
  expect(tag);
  std::int64_t n = 0;
  XDMODML_CHECK(static_cast<bool>(in_ >> n) && n >= 0,
                "model stream: bad vector length for tag " + tag);
  std::vector<double> values;  // reserved and grown as above
  values.reserve(static_cast<std::size_t>(std::min(n, kReserveCap)));
  for (std::int64_t i = 0; i < n; ++i) {
    double v = 0.0;
    XDMODML_CHECK(static_cast<bool>(in_ >> v),
                  "model stream: bad vector element for tag " + tag);
    values.push_back(v);
  }
  return values;
}

}  // namespace xdmodml::ml::io
