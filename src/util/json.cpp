#include "util/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/error.hpp"

namespace appscope::util {

Json::Json(std::uint64_t u) {
  if (u <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    value_ = static_cast<std::int64_t>(u);
  } else {
    value_ = static_cast<double>(u);
  }
}

bool Json::as_bool() const {
  APPSCOPE_REQUIRE(is_bool(), "Json::as_bool: not a bool");
  return std::get<bool>(value_);
}

double Json::as_double() const {
  APPSCOPE_REQUIRE(is_number(), "Json::as_double: not a number");
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  APPSCOPE_REQUIRE(is_number(), "Json::as_int: not a number");
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  const double d = std::get<double>(value_);
  APPSCOPE_REQUIRE(
      d >= -9.223372036854776e18 && d <= 9.223372036854775e18,
      "Json::as_int: double out of int64 range");
  return static_cast<std::int64_t>(d);
}

const std::string& Json::as_string() const {
  APPSCOPE_REQUIRE(is_string(), "Json::as_string: not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  APPSCOPE_REQUIRE(is_array(), "Json::as_array: not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  APPSCOPE_REQUIRE(is_object(), "Json::as_object: not an object");
  return std::get<Object>(value_);
}

Json::Object& Json::as_object() {
  APPSCOPE_REQUIRE(is_object(), "Json::as_object: not an object");
  return std::get<Object>(value_);
}

const Json& Json::at(std::string_view key) const {
  const Object& obj = as_object();
  const auto it = obj.find(std::string(key));
  APPSCOPE_REQUIRE(it != obj.end(), "Json::at: missing key: " + std::string(key));
  return it->second;
}

bool Json::contains(std::string_view key) const {
  return is_object() && as_object().count(std::string(key)) > 0;
}

const Json& Json::at(std::size_t i) const {
  const Array& arr = as_array();
  APPSCOPE_REQUIRE(i < arr.size(), "Json::at: index out of range");
  return arr[i];
}

bool Json::operator==(const Json& other) const { return value_ == other.value_; }

// ---------------------------------------------------------------------------
// Parser: recursive descent over a string_view cursor.

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw InputError("Json::parse: " + why + " at offset " +
                     std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Json(nullptr);
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      obj.insert_or_assign(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return Json(std::move(obj));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return Json(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // UTF-8 encode the code point (BMP only; surrogates pass through
          // as-is, which is lossy but never crashes on valid input).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("invalid number");
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Out of int64 range: fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      fail("invalid number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf.data();
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_double(double d, std::string& out) {
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; emit null (the conventional lossy mapping).
    out += "null";
    return;
  }
  std::array<char, 32> buf{};
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  APPSCOPE_CHECK(ec == std::errc(), "Json::dump: number formatting failed");
  out.append(buf.data(), ptr);
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

namespace {

void dump_value(const Json& v, int indent, int depth, std::string& out);

void newline_indent(int indent, int depth, std::string& out) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void dump_value(const Json& v, int indent, int depth, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_string()) {
    dump_string(v.as_string(), out);
  } else if (v.is_number()) {
    // Integrally-stored numbers dump without a decimal point.
    if (v.is_integer()) {
      out += std::to_string(v.as_int());
    } else {
      dump_double(v.as_double(), out);
    }
  } else if (v.is_array()) {
    const Json::Array& arr = v.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    bool first = true;
    for (const Json& item : arr) {
      if (!first) out.push_back(',');
      first = false;
      newline_indent(indent, depth + 1, out);
      dump_value(item, indent, depth + 1, out);
    }
    newline_indent(indent, depth, out);
    out.push_back(']');
  } else {
    const Json::Object& obj = v.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, item] : obj) {
      if (!first) out.push_back(',');
      first = false;
      newline_indent(indent, depth + 1, out);
      dump_string(key, out);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      dump_value(item, indent, depth + 1, out);
    }
    newline_indent(indent, depth, out);
    out.push_back('}');
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_value(*this, indent, 0, out);
  return out;
}

}  // namespace appscope::util
