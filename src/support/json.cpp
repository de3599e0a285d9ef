#include "support/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace sdem {

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) throw std::logic_error("Json::as_bool on non-bool");
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::kNumber)
    throw std::logic_error("Json::as_number on non-number");
  return num_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString)
    throw std::logic_error("Json::as_string on non-string");
  return str_;
}

const Json& Json::at(std::size_t i) const {
  if (kind_ != Kind::kArray) throw std::logic_error("Json::at on non-array");
  if (i >= arr_.size()) throw std::out_of_range("Json array index");
  return arr_[i];
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& kv : obj_) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (!v) throw std::out_of_range("Json missing key: " + key);
  return *v;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v && v->is_number() ? v->as_number() : fallback;
}

Json& Json::push_back(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray)
    throw std::logic_error("Json::push_back on non-array");
  arr_.push_back(std::move(v));
  return *this;
}

Json& Json::set(const std::string& key, Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) throw std::logic_error("Json::set on non-object");
  for (auto& kv : obj_) {
    if (kv.first == key) {
      kv.second = std::move(v);
      return *this;
    }
  }
  // A Json value is wide (~100 bytes); growing 1→2→4→8 memmoves every
  // earlier member three times for a typical envelope. One up-front
  // reservation covers most objects this codebase builds.
  if (obj_.empty()) obj_.reserve(8);
  obj_.emplace_back(key, std::move(v));
  return *this;
}

std::size_t Json::size() const {
  switch (kind_) {
    case Kind::kArray:
      return arr_.size();
    case Kind::kObject:
      return obj_.size();
    default:
      return 0;
  }
}

namespace {

/// Longest text write_number emits: "-1.2345678901234567e-308" is 24.
constexpr std::size_t kNumberChars = 32;

/// Writes the number rule's bytes for `v` at `first` and returns the end.
///
/// The rule, fixed since the first BENCH_<name>.json: non-finite → null;
/// integers below 1e15 bare; otherwise printf("%.{P}g") with P the first of
/// 15, 16, 17 that strtod reads back exactly. std::to_chars with a
/// precision is specified as that printf and std::from_chars as that strtod
/// (both in the C locale), so the bytes are the old snprintf/strtod loop's.
/// The shortest round-trip digit count D settles most of the search up
/// front: a %.15g (or %.16g) text that read back exactly would be a
/// round-trip spelling of at most 15 (16) digits, so P < D never
/// round-trips and the loop starts at max(D, 15). It cannot start lower
/// than 15 even when D is: %.15g rounds the exact value, not the shortest
/// digits, and may spell more of them (9.14934969782825e-311, D = 14).
char* write_number(char* first, double v) {
  char* const last = first + kNumberChars;
  if (!std::isfinite(v)) {
    std::memcpy(first, "null", 4);
    return first + 4;
  }
  // Integers (within double's exact range) print bare: 8, not 8.0; the
  // digits are %.0f's (signbit keeps "-0" for negative zero).
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[24];
    char* q = buf + sizeof buf;
    std::uint64_t mag = static_cast<std::uint64_t>(std::fabs(v));
    do {
      *--q = static_cast<char>('0' + mag % 10);
      mag /= 10;
    } while (mag != 0);
    if (std::signbit(v)) *--q = '-';
    const std::size_t len = static_cast<std::size_t>(buf + sizeof buf - q);
    std::memcpy(first, q, len);
    return first + len;
  }
  const char* const sci =
      std::to_chars(first, last, v, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* p = first; p != sci && *p != 'e'; ++p) {
    digits += *p >= '0' && *p <= '9';
  }
  for (int prec = std::max(digits, 15); prec < 17; ++prec) {
    char* const end =
        std::to_chars(first, last, v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    if (std::from_chars(first, end, back).ec != std::errc()) {
      *end = '\0';  // out of range for from_chars: strtod decides
      back = std::strtod(first, nullptr);
    }
    if (back == v) return end;
  }
  // 17 significant digits read back exactly for every finite double.
  return std::to_chars(first, last, v, std::chars_format::general, 17).ptr;
}

}  // namespace

void Json::append_number(std::string& out, double v) {
  char buf[kNumberChars];
  out.append(buf, write_number(buf, v));
}

std::string Json::number_to_string(double v) {
  char buf[kNumberChars];
  return std::string(buf, write_number(buf, v));
}

void Json::append_quoted(std::string& out, const std::string& s) {
  out += '"';
  // Bulk-copy runs of plain characters; the switch below only sees the
  // rare bytes that actually need escaping.
  std::size_t i = 0;
  while (i < s.size()) {
    std::size_t j = i;
    while (j < s.size()) {
      const unsigned char c = static_cast<unsigned char>(s[j]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++j;
    }
    out.append(s, i, j - i);
    if (j == s.size()) {
      i = j;
      break;
    }
    const unsigned char c = static_cast<unsigned char>(s[j]);
    i = j + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

std::string Json::quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_quoted(out, s);
  return out;
}

Json Json::without_key(const std::string& key) const {
  Json out = *this;
  if (kind_ == Kind::kArray) {
    for (Json& v : out.arr_) v = v.without_key(key);
  } else if (kind_ == Kind::kObject) {
    out.obj_.clear();
    for (const auto& kv : obj_) {
      if (kv.first == key) continue;
      out.obj_.emplace_back(kv.first, kv.second.without_key(key));
    }
  }
  return out;
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      append_number(out, num_);
      break;
    case Kind::kString:
      append_quoted(out, str_);
      break;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += indent > 0 ? "," : ", ";
        newline_pad(depth + 1);
        arr_[i].write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += indent > 0 ? "," : ", ";
        newline_pad(depth + 1);
        append_quoted(out, obj_[i].first);
        out += ": ";
        obj_[i].second.write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

namespace {

/// Recursive-descent parser over the dump() grammar.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json run() {
    skip_ws();
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON parse error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(const char* w) {
    std::size_t n = 0;
    while (w[n]) ++n;
    if (text_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    return true;
  }

  Json value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return Json(string());
      case 't':
        if (consume_word("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_word("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_word("null")) return Json();
        fail("bad literal");
      default:
        return number();
    }
  }

  Json object() {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = string();
      skip_ws();
      expect(':');
      skip_ws();
      out.set(key, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  Json array() {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      out.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      // Bulk-copy up to the next quote or backslash; most strings have no
      // escapes and resolve in a single append.
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
        ++run;
      }
      if (run > pos_) {
        out.append(text_, pos_, run - pos_);
        pos_ = run;
      }
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // quote() only emits \u00XX for control bytes; reject the rest
          // rather than half-support UTF-16 surrogates.
          if (code >= 0x80) fail("\\u escape above 0x7f unsupported");
          out += static_cast<char>(code);
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  /// RFC 8259 numbers only: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
  /// Hex, inf/nan, a leading '+' or '.', a trailing '.' and leading zeros
  /// are parse errors.
  Json number() {
    const char* start = text_.c_str() + pos_;
    const char* p = start;
    if (*p == '-') ++p;
    const char* digits = p;
    std::uint64_t mag = 0;
    while (is_digit(*p)) {
      mag = mag * 10 + static_cast<std::uint64_t>(*p - '0');
      ++p;
    }
    const std::size_t ndigits = static_cast<std::size_t>(p - digits);
    if (ndigits == 0) fail("expected value");
    if (*digits == '0' && ndigits > 1) fail("leading zero in number");
    if (*p == '.' && !is_digit(p[1])) fail("expected digit after '.'");
    // A plain integer of up to 15 digits is exactly representable, so
    // composing it directly matches strtod bit for bit.
    if (ndigits <= 15 && *p != '.' && *p != 'e' && *p != 'E') {
      pos_ += static_cast<std::size_t>(p - start);
      const double v = static_cast<double>(mag);
      return Json(*start == '-' ? -v : v);
    }
    // With the integer part and the '.' checked, from_chars reads exactly
    // the rest of the grammar (an exponent only with digits), and it is
    // specified as strtod in the C locale: same value bits. Values out of
    // double's range it reports without a value; strtod decides those
    // (±HUGE_VAL or the underflowed result) on the same span.
    double v = 0.0;
    const auto r = std::from_chars(start, text_.c_str() + text_.size(), v);
    if (r.ec != std::errc()) {
      v = std::strtod(std::string(start, r.ptr).c_str(), nullptr);
    }
    pos_ += static_cast<std::size_t>(r.ptr - start);
    return Json(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).run(); }

}  // namespace sdem
