// appscope/util/json.hpp
//
// Minimal JSON value type: parse, build, dump. Exists so the observability
// layer (util/metrics.hpp) can emit machine-readable metrics.json files and
// round-trip them in tests without an external dependency. Objects keep
// their keys sorted (std::map), so dumps are byte-stable for a given value —
// a property the metrics exporter relies on for diffable CI artifacts.
//
// Scope: the JSON subset the repo needs. Numbers are stored as int64 when
// the text is integral and fits, double otherwise; no surrogate-pair \u
// decoding (escapes outside the BMP parse but re-encode as-is).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace appscope::util {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(std::int64_t i) : value_(i) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::uint64_t u);
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  /// Parses one JSON document (throws InputError on malformed input or
  /// trailing garbage).
  static Json parse(std::string_view text);

  /// Serializes the value. indent < 0 gives the compact one-line form;
  /// indent >= 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  bool is_number() const noexcept {
    return std::holds_alternative<double>(value_) ||
           std::holds_alternative<std::int64_t>(value_);
  }
  /// True when the number is stored integrally (parsed without '.'/'e').
  bool is_integer() const noexcept {
    return std::holds_alternative<std::int64_t>(value_);
  }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  bool is_array() const noexcept { return std::holds_alternative<Array>(value_); }
  bool is_object() const noexcept { return std::holds_alternative<Object>(value_); }

  /// Typed accessors; throw PreconditionError on kind mismatch. as_double
  /// accepts both number representations.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Object& as_object();

  /// Object lookup; requires the value to be an object holding the key.
  const Json& at(std::string_view key) const;
  bool contains(std::string_view key) const;
  /// Array element; requires the value to be an array and i in range.
  const Json& at(std::size_t i) const;

  bool operator==(const Json& other) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::int64_t, std::string, Array,
               Object>
      value_;
};

}  // namespace appscope::util
