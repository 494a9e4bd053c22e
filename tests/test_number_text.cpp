// Tests for the shared number <-> text codec: shortest round-trip
// formatting, whole-token finite-only parsing, and compatibility with
// text written at 17 significant digits.
#include "util/number_text.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace xdmodml::numtext {
namespace {

/// Bits of a double, so -0.0 and 0.0 compare unequal.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// write_double as a string.
std::string double_text(double v) {
  char buf[kMaxChars];
  return {buf, write_double(buf, v)};
}

/// What the older `ostream << double` writer at max_digits10 emitted.
std::string text_17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void expect_round_trip(double v) {
  const std::string text = double_text(v);
  const auto parsed = parse_double(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(bits(*parsed), bits(v)) << text;
  EXPECT_LE(text.size(), text_17g(v).size()) << text;
  // Text written at 17 digits parses to the same double.
  const auto old = parse_double(text_17g(v));
  ASSERT_TRUE(old.has_value()) << text_17g(v);
  EXPECT_EQ(bits(*old), bits(v)) << text_17g(v);
}

TEST(NumberText, SpecialFiniteValuesRoundTripBitForBit) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  for (const double v :
       {0.0, -0.0, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, denorm_min,
        -denorm_min, DBL_MIN - denorm_min, 3 * denorm_min, 0.1, 1.0 / 3,
        -1e308, 1e21, 1e22, 123456789012345678.0, DBL_EPSILON, 1.0}) {
    expect_round_trip(v);
  }
}

TEST(NumberText, RandomFiniteBitPatternsRoundTripBitForBit) {
  Rng rng(20240611);
  int tested = 0;
  while (tested < 200000) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    expect_round_trip(v);
    ++tested;
  }
}

TEST(NumberText, ShortestTextExamples) {
  EXPECT_EQ(double_text(0.1), "0.1");
  EXPECT_EQ(double_text(-2.0), "-2");
  EXPECT_EQ(double_text(-0.0), "-0");
  EXPECT_EQ(double_text(1e-17), "1e-17");
  EXPECT_EQ(double_text(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(double_text(DBL_MAX), "1.7976931348623157e+308");
}

// A token is accepted only if from_chars consumes all of it and the
// value is finite.  A leading '+' is rejected: no writer emits one.
TEST(NumberText, RejectsNonFinitePartialAndMalformedTokens) {
  for (const char* bad :
       {"inf", "-inf", "infinity", "nan", "-nan", "", "0.5x", "1e", "1e+",
        "1e400", "-1e400", "1e-400", "2e-324", "+1", "+1.5", " 1", "1 ",
        "0x1p3", "-", ".", "1,5", "--1"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_double("1."), 1.0);
  EXPECT_EQ(parse_double(".5"), 0.5);
  EXPECT_EQ(parse_double("1E3"), 1000.0);
  EXPECT_EQ(parse_double("-1e+308"), -1e308);
}

TEST(NumberText, ParsesWholeInt64Tokens) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  for (const char* bad : {"", "+3", "1.5", "3x", "1e3", " 3",
                          "9223372036854775808", "-", "0x10"}) {
    EXPECT_FALSE(parse_int(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(NumberText, WriteDoubleStaysWithinKMaxChars) {
  char buf[kMaxChars];
  for (const double v : {-DBL_MIN, -DBL_MAX, -std::numeric_limits<double>::
                                                  denorm_min(),
                         -1.2345678901234567e-300}) {
    const char* end = write_double(buf, v);
    EXPECT_LE(static_cast<std::size_t>(end - buf), std::size_t{24});
  }
}

}  // namespace
}  // namespace xdmodml::numtext
