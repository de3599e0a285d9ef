// Minimal JSON document for the benchmark runner and the fuzz repro files.
//
// Started as writer-only — the bench harness emits BENCH_<name>.json files
// and never reads them back. The differential fuzzer added parse(): repro
// files must round-trip through the same value type so a replayed case is
// the exact case that failed. Design constraints, in order:
//   * deterministic bytes: objects keep insertion order, numbers render via
//     a fixed shortest-round-trip rule, so a --jobs 8 run and a --jobs 1
//     run of the same sweep produce identical files (the determinism test
//     diffs the bytes);
//   * lossless doubles: every finite double round-trips (printed as
//     %.15g, %.16g or %.17g, whichever is the first to parse back exactly,
//     via <charconv>); NaN/Inf have no JSON spelling and render as null;
//   * no dependencies: a tagged union over the six JSON kinds, ~200 lines.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sdem {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(int v) : kind_(Kind::kNumber), num_(v) {}
  Json(std::int64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed reads. Throw std::logic_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array element access; throws std::out_of_range past the end.
  const Json& at(std::size_t i) const;

  /// Object member lookup: nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }

  /// Object member access; throws std::out_of_range when absent.
  const Json& at(const std::string& key) const;

  /// Member with a numeric/default fallback for optional repro fields.
  double number_or(const std::string& key, double fallback) const;

  /// Array append. The value becomes an array if currently null.
  Json& push_back(Json v);

  /// Object insert/overwrite; keys keep first-insertion order. The value
  /// becomes an object if currently null.
  Json& set(const std::string& key, Json v);

  std::size_t size() const;

  /// Serialize. indent == 0 → single line; indent > 0 → pretty-printed
  /// with that many spaces per level and a trailing newline at top level.
  std::string dump(int indent = 0) const;

  /// Deep copy with every object member named `key` removed, at any depth
  /// (the runner's --stable uses this to drop timing fields).
  Json without_key(const std::string& key) const;

  /// The exact number rendering rule (shortest round-trip, integers bare,
  /// non-finite → "null"), exposed for tests and for CSV/markdown writers
  /// that want matching bytes.
  static std::string number_to_string(double v);

  /// JSON string escaping (quotes included in the output).
  static std::string quote(const std::string& s);

  /// Parse a complete JSON document (the subset dump() emits: objects,
  /// arrays, strings with the standard escapes, numbers, booleans, null;
  /// \uXXXX escapes are accepted for code points below 0x80). Throws
  /// std::invalid_argument with a byte offset on malformed input. Numbers
  /// must follow the RFC 8259 grammar (no hex, inf/nan, leading '+' or
  /// '.', trailing '.' or leading zeros); they read to strtod's value
  /// (std::from_chars, which is specified to give it; strtod itself for
  /// out-of-range values), so every value printed by number_to_string
  /// round-trips bit-exactly.
  static Json parse(const std::string& text);

 private:
  void write(std::string& out, int indent, int depth) const;
  // number_to_string / quote appended straight onto `out`: dump() builds
  // no temporary string per number, key or string value.
  static void append_number(std::string& out, double v);
  static void append_quoted(std::string& out, const std::string& s);

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace sdem
