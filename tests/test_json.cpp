// support/json.hpp: the runner's JSON writer. What matters for
// BENCH_<name>.json: deterministic bytes (insertion-ordered keys, fixed
// number rule), lossless doubles, correct escaping.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <regex>
#include <string>
#include <vector>

namespace sdem {
namespace {

// Frozen oracles: the number codec as it was before <charconv>, kept here
// (not in libsdem) so the differential tests below pin every output byte
// and every parsed bit to it.

/// The printf/strtod formatter; `prec_out` receives the %g precision used
/// (0 on the null and integer paths).
std::string oracle_format(double v, int* prec_out = nullptr) {
  if (prec_out) *prec_out = 0;
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  int prec = 15;
  for (; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  if (prec_out) *prec_out = prec;
  return buf;
}

/// The strtod number reader: how many bytes of `s` it consumes (0 = no
/// number) and the value read.
struct OracleNumber {
  std::size_t used = 0;
  double value = 0.0;
};
OracleNumber oracle_number(const std::string& s) {
  char* end = nullptr;
  OracleNumber r;
  r.value = std::strtod(s.c_str(), &end);
  r.used = static_cast<std::size_t>(end - s.c_str());
  return r;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double from_bits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

/// The RFC 8259 number grammar: the spellings Json::parse must accept.
bool is_json_number(const std::string& s) {
  static const std::regex grammar(
      "-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+-]?[0-9]+)?");
  return std::regex_match(s, grammar);
}

/// Json::parse on a single number spelling: a JSON number (strtod reads
/// each one whole) parses to the oracle's bits; every other spelling
/// throws.
void expect_parse_matches_oracle(const std::string& s) {
  SCOPED_TRACE("spelling '" + s + "'");
  if (!is_json_number(s)) {
    EXPECT_THROW(Json::parse(s), std::invalid_argument);
    return;
  }
  const OracleNumber want = oracle_number(s);
  ASSERT_EQ(want.used, s.size());
  double got = 0.0;
  ASSERT_NO_THROW(got = Json::parse(s).as_number());
  EXPECT_EQ(bits_of(got), bits_of(want.value));
}

TEST(Json, ScalarsRender) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(std::string("hi")).dump(), "\"hi\"");
}

TEST(Json, IntegralDoublesPrintBare) {
  EXPECT_EQ(Json(8.0).dump(), "8");
  EXPECT_EQ(Json(-3.0).dump(), "-3");
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_EQ(Json(1e12).dump(), "1000000000000");
}

TEST(Json, DoublesRoundTripExactly) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           2.5307e-10,
                           -123.456789012345678,
                           std::numeric_limits<double>::denorm_min(),
                           6.62607015e-34,
                           0.30000000000000004};
  for (double v : values) {
    const std::string s = Json::number_to_string(v);
    double back = 0.0;
    ASSERT_EQ(std::sscanf(s.c_str(), "%lf", &back), 1) << s;
    EXPECT_EQ(back, v) << s;
  }
}

TEST(JsonCodec, FormatMatchesOracleOnRandomBitPatterns) {
  std::mt19937_64 rng(20150309);
  for (int i = 0; i < 1000000; ++i) {
    const double v = from_bits(rng());
    const std::string want = oracle_format(v);
    const std::string got = Json::number_to_string(v);
    if (got != want) {
      FAIL() << "bits " << std::hex << bits_of(v) << ": '" << got
             << "' vs oracle '" << want << "'";
    }
  }
}

TEST(JsonCodec, FormatMatchesOracleOnEveryPrecision) {
  // Values of simulator scale (energies, times, speeds): these, unlike
  // random bit patterns, need every one of 15, 16 and 17 digits, which the
  // formatter's digit-count shortcut must get right.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int seen[18] = {};
  for (int i = 0; i < 300000; ++i) {
    const double v = unit(rng) * std::pow(10.0, static_cast<int>(i % 13) - 6);
    int prec = 0;
    const std::string want = oracle_format(v, &prec);
    ++seen[prec];
    ASSERT_EQ(Json::number_to_string(v), want) << std::hex << bits_of(v);
  }
  EXPECT_GT(seen[15], 0);
  EXPECT_GT(seen[16], 0);
  EXPECT_GT(seen[17], 0);

  // Named values needing exactly 15, 16 and 17 digits.
  const struct {
    double v;
    int prec;
  } named[] = {{0.1, 15}, {0.7999999999999999, 16}, {0.30000000000000004, 17}};
  for (const auto& c : named) {
    int prec = 0;
    const std::string want = oracle_format(c.v, &prec);
    EXPECT_EQ(prec, c.prec) << want;
    EXPECT_EQ(Json::number_to_string(c.v), want);
  }
}

TEST(JsonCodec, FormatMatchesOracleOnEdges) {
  std::vector<double> values = {0.0, -0.0};
  // Every power of two across the exponent range, subnormals included.
  for (int e = -1074; e <= 1023; ++e) {
    values.push_back(std::ldexp(1.0, e));
    values.push_back(-std::ldexp(1.0, e));
    values.push_back(std::ldexp(1.0, e) * 1.5);
  }
  // Subnormals: the extremes and a spread of mantissas.
  values.push_back(std::numeric_limits<double>::denorm_min());
  values.push_back(from_bits(0x000fffffffffffffULL));
  values.push_back(9.14934969782825e-311);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(from_bits(rng() & 0x800fffffffffffffULL));
  }
  // The integer fast path's edge and the %g exponent thresholds, with
  // their neighbours on both sides.
  for (double x : {1e15, 1e-5, 1e16, 1e17, 1e-4, 999999999999999.0,
                   999999999999999.5, 1e15 + 2.0, 0.0001, 123456.789}) {
    for (double y : {x, -x}) {
      values.push_back(y);
      values.push_back(std::nextafter(y, 0.0));
      values.push_back(std::nextafter(y, 2 * y));
    }
  }
  values.push_back(std::numeric_limits<double>::max());
  values.push_back(std::numeric_limits<double>::min());
  values.push_back(std::numeric_limits<double>::epsilon());
  for (double v : values) {
    ASSERT_EQ(Json::number_to_string(v), oracle_format(v))
        << std::hex << bits_of(v);
  }
  EXPECT_EQ(Json::number_to_string(-0.0), "-0");
  EXPECT_EQ(Json::number_to_string(1e15), "1e+15");
  EXPECT_EQ(Json::number_to_string(999999999999999.0), "999999999999999");
  EXPECT_EQ(Json::number_to_string(1e-5), "1e-05");
  EXPECT_EQ(Json::number_to_string(1e16), "1e+16");
  EXPECT_EQ(Json::number_to_string(9.14934969782825e-311),
            "9.14934969782825e-311");
}

TEST(JsonCodec, DumpWritesTheWrapperBytes) {
  Json doc = Json::object();
  doc.set("k\n", 1.0 / 3.0);
  doc.set("s", "a\"b");
  EXPECT_EQ(doc.dump(), "{" + Json::quote("k\n") + ": " +
                            oracle_format(1.0 / 3.0) + ", \"s\": " +
                            Json::quote("a\"b") + "}");
  EXPECT_EQ(Json::quote("a\"b"), "\"a\\\"b\"");
}

TEST(JsonCodec, ParseMatchesStrtodOnSpellings) {
  const char* valid[] = {
      "1e999",   "-1e999",  "1e-400",  "4.9e-324", "1e-5",    "-0",
      "-0.0",    "1.5e308", "2.2250738585072011e-308",
      "123456789012345678901234567890", "1234567890123456", "2.5E-3",
      "9007199254740993", "0",  "0.5e+7", "-9e-0",  "1E5"};
  for (const char* s : valid) {
    ASSERT_TRUE(is_json_number(s)) << s;
    expect_parse_matches_oracle(s);
  }
  // strtod reads all of these, whole or in part; none is a JSON number.
  const char* invalid[] = {
      "0x1p3", "-0x1p-2", "inf",   "-Infinity", "-nan(123)", "-nan",
      ".5",    "1.",      "1e",    "1e5x",      "+1",        "00012.5",
      "-.5",   "-",       ".",     "-.",        "1e+",       "0X1P-3",
      "0x",    "0.1e1e1", "1..5",  "1e5.5",     "-00.000",   "01",
      "nan(123)", "1.e5", "-01.5", "0e"};
  for (const char* s : invalid) {
    ASSERT_FALSE(is_json_number(s)) << s;
    expect_parse_matches_oracle(s);
  }
}

TEST(JsonCodec, ParseMatchesStrtodOnRandomSpellings) {
  // Short strings over the decimal alphabet: every stopping point strtod
  // has (a dangling exponent, a second '.', a sign in the middle). Most
  // are not JSON numbers and must throw; the rest must match strtod.
  std::mt19937_64 rng(3);
  const char alphabet[] = "0123456789-+.eE";
  for (int i = 0; i < 100000; ++i) {
    std::string s;
    const int len = 1 + static_cast<int>(rng() % 24);
    for (int k = 0; k < len; ++k) s += alphabet[rng() % (sizeof alphabet - 1)];
    expect_parse_matches_oracle(s);
    if (HasFailure()) return;
  }
  // Grammar-built JSON numbers: every one parses to strtod's bits.
  const auto digits = [&rng](int lo, int hi, bool lead_nonzero) {
    std::string d;
    const int len = lo + static_cast<int>(rng() % (hi - lo + 1));
    for (int k = 0; k < len; ++k) {
      d += static_cast<char>((k == 0 && lead_nonzero ? '1' : '0') +
                             rng() % (k == 0 && lead_nonzero ? 9 : 10));
    }
    return d;
  };
  for (int i = 0; i < 100000; ++i) {
    std::string s = rng() % 2 ? "-" : "";
    s += rng() % 4 ? digits(1, 20, true) : "0";
    if (rng() % 2) s += "." + digits(1, 20, false);
    if (rng() % 2) {
      s += rng() % 2 ? "e" : "E";
      if (const int sign = static_cast<int>(rng() % 3); sign < 2) {
        s += "+-"[sign];
      }
      s += digits(1, 3, false);
    }
    ASSERT_TRUE(is_json_number(s)) << s;
    expect_parse_matches_oracle(s);
    if (HasFailure()) return;
  }
}

TEST(JsonCodec, ParseReadsFormattedValuesBack) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 200000; ++i) {
    const double v = from_bits(rng());
    if (!std::isfinite(v)) continue;
    const std::string s = Json::number_to_string(v);
    ASSERT_EQ(bits_of(Json::parse(s).as_number()), bits_of(v)) << s;
  }
}

TEST(Json, NonFiniteRendersNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(Json("back\\slash").dump(), "\"back\\\\slash\"");
  EXPECT_EQ(Json("line\nbreak\ttab").dump(), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(Json(std::string("ctrl\x01")).dump(), "\"ctrl\\u0001\"");
  // UTF-8 passes through untouched.
  EXPECT_EQ(Json("\xc3\xa9").dump(), "\"\xc3\xa9\"");
}

TEST(Json, ObjectKeepsInsertionOrderAndOverwrites) {
  Json o = Json::object();
  o.set("z", 1);
  o.set("a", 2);
  o.set("m", 3);
  EXPECT_EQ(o.dump(), "{\"z\": 1, \"a\": 2, \"m\": 3}");
  o.set("a", 9);  // overwrite keeps the original position
  EXPECT_EQ(o.dump(), "{\"z\": 1, \"a\": 9, \"m\": 3}");
  EXPECT_EQ(o.size(), 3u);
}

TEST(Json, ArraysAndNesting) {
  Json arr = Json::array();
  arr.push_back(1);
  Json inner = Json::object();
  inner.set("k", "v");
  arr.push_back(std::move(inner));
  EXPECT_EQ(arr.dump(), "[1, {\"k\": \"v\"}]");
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(), "{}");
}

TEST(Json, NullPromotesOnFirstUse) {
  Json a;  // null
  a.push_back(1);
  EXPECT_EQ(a.kind(), Json::Kind::kArray);
  Json o;  // null
  o.set("k", 1);
  EXPECT_EQ(o.kind(), Json::Kind::kObject);
  EXPECT_THROW(a.set("k", 1), std::logic_error);
  EXPECT_THROW(o.push_back(1), std::logic_error);
}

TEST(Json, PrettyPrintIsStable) {
  Json doc = Json::object();
  doc.set("name", "fig6a");
  Json rows = Json::array();
  Json row = Json::object();
  row.set("u", 2);
  row.set("saving", 0.105625);
  rows.push_back(std::move(row));
  doc.set("rows", std::move(rows));
  EXPECT_EQ(doc.dump(2),
            "{\n"
            "  \"name\": \"fig6a\",\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"u\": 2,\n"
            "      \"saving\": 0.105625\n"
            "    }\n"
            "  ]\n"
            "}\n");
  // Identical documents produce identical bytes (what the determinism
  // acceptance check diffs).
  Json doc2 = Json::object();
  doc2.set("name", "fig6a");
  Json rows2 = Json::array();
  Json row2 = Json::object();
  row2.set("u", 2);
  row2.set("saving", 0.105625);
  rows2.push_back(std::move(row2));
  doc2.set("rows", std::move(rows2));
  EXPECT_EQ(doc.dump(2), doc2.dump(2));
}

TEST(Json, WithoutKeyStripsRecursively) {
  Json doc = Json::object();
  doc.set("keep", 1);
  doc.set("solver_seconds", 0.5);
  Json arr = Json::array();
  Json row = Json::object();
  row.set("solver_seconds", 0.25);
  row.set("value", 2);
  arr.push_back(std::move(row));
  doc.set("rows", std::move(arr));
  const Json stripped = doc.without_key("solver_seconds");
  EXPECT_EQ(stripped.dump(),
            "{\"keep\": 1, \"rows\": [{\"value\": 2}]}");
  // The original is untouched.
  EXPECT_NE(doc.dump().find("solver_seconds"), std::string::npos);
}

TEST(JsonParse, ScalarsAndContainers) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_EQ(Json::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");

  const Json arr = Json::parse("[1, 2, 3]");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.at(2).as_number(), 3.0);

  const Json obj = Json::parse(R"({"a": 1, "b": {"c": [true]}})");
  ASSERT_TRUE(obj.is_object());
  EXPECT_TRUE(obj.has("a"));
  EXPECT_FALSE(obj.has("z"));
  EXPECT_EQ(obj.at("b").at("c").at(0).as_bool(), true);
  EXPECT_EQ(obj.number_or("a", -1.0), 1.0);
  EXPECT_EQ(obj.number_or("z", -1.0), -1.0);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\n\t")").as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
}

TEST(JsonParse, WriterOutputRoundTrips) {
  Json doc = Json::object();
  doc.set("pi", 3.141592653589793);
  doc.set("tiny", 2.53e-10);
  doc.set("neg", -0.1);
  Json arr = Json::array();
  arr.push_back(1e308);
  arr.push_back(std::string("x \"quoted\""));
  doc.set("arr", std::move(arr));
  const std::string text = doc.dump(2);
  const Json back = Json::parse(text);
  // Shortest-round-trip rendering + strtod parsing: bytes are stable.
  EXPECT_EQ(back.dump(2), text);
  EXPECT_EQ(back.at("pi").as_number(), 3.141592653589793);
  EXPECT_EQ(back.at("tiny").as_number(), 2.53e-10);
}

TEST(JsonParse, MalformedInputThrowsWithOffset) {
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1, ]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(Json::parse("tru"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1 2"), std::invalid_argument);  // trailing junk
  try {
    Json::parse("[1, oops]");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonParse, TypeMismatchesThrow) {
  const Json n = Json::parse("3");
  EXPECT_THROW(n.as_string(), std::logic_error);
  EXPECT_THROW(n.at("k"), std::logic_error);
  const Json obj = Json::parse("{}");
  EXPECT_THROW(obj.at("missing"), std::logic_error);
}

}  // namespace
}  // namespace sdem
