#include "ml/model_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <streambuf>

#include "util/error.hpp"
#include "util/number_text.hpp"

namespace xdmodml::ml::io {

namespace {

constexpr std::int64_t kReserveCap = std::int64_t{1} << 16;
constexpr int kEof = std::char_traits<char>::eof();

/// One tagged line, formatted into a stack buffer and handed to the
/// stream in buffer-sized writes: one write per line, except for
/// vectors longer than the buffer.  `finish` ends the line.
class LineWriter {
 public:
  LineWriter(std::ostream& out, std::string_view tag) : out_(out) {
    text(tag);
  }

  void text(std::string_view s) {
    if (s.size() >= buf_.size() - n_) {
      flush();
      if (s.size() >= buf_.size()) {
        out_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return;
      }
    }
    std::memcpy(buf_.data() + n_, s.data(), s.size());
    n_ += s.size();
  }

  void field(double v) {
    char* p = room();
    n_ = static_cast<std::size_t>(numtext::write_double(p, v) - buf_.data());
  }

  void field(std::int64_t v) { integer(v); }
  void field(std::size_t v) { integer(v); }

  void finish() {
    buf_[n_++] = '\n';  // text() and field() always leave a free byte
    flush();
  }

 private:
  template <class T>
  void integer(T v) {
    char* p = room();
    n_ = static_cast<std::size_t>(
        std::to_chars(p, p + numtext::kMaxChars, v).ptr - buf_.data());
  }

  /// Makes room for ' ' + kMaxChars + the final '\n', writes the ' ' and
  /// returns where the number goes.
  char* room() {
    if (buf_.size() - n_ < numtext::kMaxChars + 2) flush();
    buf_[n_++] = ' ';
    return buf_.data() + n_;
  }

  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(n_));
    n_ = 0;
  }

  std::ostream& out_;
  std::array<char, 4096> buf_;
  std::size_t n_ = 0;
};

bool is_space(int c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Skips whitespace, then hands each character of the next token to
/// `put`, stopping on (not consuming) the whitespace that ends it.
/// Returns false, with failbit set, when no token is left.
template <class Put>
bool scan_token(std::istream& in, Put put) {
  std::streambuf* sb = in.good() ? in.rdbuf() : nullptr;
  if (sb == nullptr) {
    in.setstate(std::ios::failbit);
    return false;
  }
  int c = sb->sgetc();
  while (c != kEof && is_space(c)) c = sb->snextc();
  if (c == kEof) {
    in.setstate(std::ios::eofbit | std::ios::failbit);
    return false;
  }
  do {
    put(static_cast<char>(c));
    c = sb->snextc();
  } while (c != kEof && !is_space(c));
  if (c == kEof) in.setstate(std::ios::eofbit);
  return true;
}

[[noreturn]] void throw_truncated() {
  throw InvalidArgument("model stream truncated");
}

}  // namespace

void write_tag(std::ostream& out, std::string_view tag) {
  LineWriter line(out, tag);
  line.finish();
}

void write_scalar(std::ostream& out, std::string_view tag, double value) {
  LineWriter line(out, tag);
  line.field(value);
  line.finish();
}

void write_scalar(std::ostream& out, std::string_view tag,
                  std::int64_t value) {
  LineWriter line(out, tag);
  line.field(value);
  line.finish();
}

void write_string(std::ostream& out, std::string_view tag,
                  std::string_view value) {
  XDMODML_CHECK(value.find_first_of(" \t\n") == std::string_view::npos,
                "serialized strings must be token-safe");
  LineWriter line(out, tag);
  line.text(" ");
  line.text(value);
  line.finish();
}

void write_vector(std::ostream& out, std::string_view tag,
                  std::span<const double> values) {
  LineWriter line(out, tag);
  line.field(values.size());
  for (const double v : values) line.field(v);
  line.finish();
}

void write_index_vector(std::ostream& out, std::string_view tag,
                        std::span<const std::size_t> values) {
  LineWriter line(out, tag);
  line.field(values.size());
  for (const std::size_t v : values) line.field(v);
  line.finish();
}

std::string_view TokenReader::next_token() {
  std::size_t n = 0;
  if (!scan_token(in_, [&](char c) {
        if (n < buf_.size()) buf_[n] = c;
        ++n;
      })) {
    throw_truncated();
  }
  XDMODML_CHECK(n <= buf_.size(),
                "model stream: token longer than " +
                    std::to_string(buf_.size()) + " characters");
  return {buf_.data(), n};
}

std::string TokenReader::next_long_token() {
  std::string token;
  if (!scan_token(in_, [&](char c) { token.push_back(c); })) {
    throw_truncated();
  }
  return token;
}

double TokenReader::next_double(std::string_view tag) {
  const auto token = next_token();
  const auto v = numtext::parse_double(token);
  XDMODML_CHECK(v.has_value(), "model stream: bad number '" +
                                   std::string(token) + "' for tag " +
                                   std::string(tag));
  return *v;
}

std::int64_t TokenReader::next_int(std::string_view tag) {
  const auto token = next_token();
  const auto v = numtext::parse_int(token);
  XDMODML_CHECK(v.has_value(), "model stream: bad integer '" +
                                   std::string(token) + "' for tag " +
                                   std::string(tag));
  return *v;
}

std::string TokenReader::read_tag() { return next_long_token(); }

void TokenReader::expect(std::string_view tag) {
  const auto token = next_token();
  XDMODML_CHECK(token == tag, "model stream: expected '" + std::string(tag) +
                                  "', got '" + std::string(token) + "'");
}

double TokenReader::read_double(std::string_view tag) {
  expect(tag);
  return next_double(tag);
}

std::int64_t TokenReader::read_int(std::string_view tag) {
  expect(tag);
  return next_int(tag);
}

std::string TokenReader::read_string(std::string_view tag) {
  expect(tag);
  return next_long_token();
}

std::vector<std::size_t> TokenReader::read_index_vector(
    std::string_view tag) {
  expect(tag);
  const std::int64_t n = next_int(tag);
  XDMODML_CHECK(n >= 0, "model stream: bad index vector length for tag " +
                            std::string(tag));
  // Reserve at most kReserveCap up front and grow as elements arrive: a
  // corrupt length cannot allocate more than the stream actually holds.
  std::vector<std::size_t> values;
  values.reserve(static_cast<std::size_t>(std::min(n, kReserveCap)));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t raw = next_int(tag);
    XDMODML_CHECK(raw >= 0, "model stream: negative index for tag " +
                                std::string(tag));
    values.push_back(static_cast<std::size_t>(raw));
  }
  return values;
}

std::size_t TokenReader::read_vector_into(std::string_view tag,
                                          std::vector<double>& out) {
  expect(tag);
  const std::int64_t n = next_int(tag);
  XDMODML_CHECK(n >= 0, "model stream: bad vector length for tag " +
                            std::string(tag));
  // Reserved as above; an append into a non-empty vector leaves growth
  // to push_back, so repeated appends stay amortized O(1).
  if (out.empty()) {
    out.reserve(static_cast<std::size_t>(std::min(n, kReserveCap)));
  }
  for (std::int64_t i = 0; i < n; ++i) out.push_back(next_double(tag));
  return static_cast<std::size_t>(n);
}

std::vector<double> TokenReader::read_vector(std::string_view tag) {
  std::vector<double> values;
  read_vector_into(tag, values);
  return values;
}

}  // namespace xdmodml::ml::io
