#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

/// \file json.h
/// Minimal streaming JSON writer, a syntax validator, and a small DOM
/// parser, shared by the run-report writer, the report validators and the
/// bench-report diff tool. Zero dependencies: the observability layer must
/// not pull a JSON library into the core build.
///
/// The writer is a thin state machine: begin/end object/array, key(), and
/// typed value() overloads. Commas and quoting/escaping are handled here so
/// emitters never concatenate raw strings. Numbers print with enough digits
/// to round-trip doubles; NaN/Inf (not valid JSON) degrade to null.
///
/// The parser (`parse()`) builds a `Value` tree for consumers that must
/// *read* reports back (schema validation, `gcr_benchdiff`). It is strict
/// (same grammar the validator accepts) and keeps all numbers as doubles,
/// which round-trips everything our writers emit.

namespace gcr::obs::json {

/// Escape `s` into a quoted JSON string token (including the quotes).
[[nodiscard]] std::string quote(std::string_view s);

/// Format a double as a JSON number token (null for NaN/Inf).
[[nodiscard]] std::string number(double v);

class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Object member key; must be followed by a value or begin_*().
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double v);
  Writer& value(std::int64_t v);
  Writer& value(std::uint64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(bool b);
  Writer& null();

  /// Emit a pre-rendered JSON token verbatim (trusted input).
  Writer& raw(std::string_view token);

  /// Shorthand: key + value.
  template <typename T>
  Writer& field(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

 private:
  void separate();  ///< emit "," if a sibling value precedes

  std::ostream& os_;
  /// One bool per open container: true once the first element was written.
  /// Depth beyond 64 is a caller bug (the report nests ~5 deep).
  std::uint64_t has_elem_{0};
  int depth_{0};
  bool after_key_{false};
};

/// Strict syntax check of a complete JSON document (single value spanning
/// the whole input, modulo whitespace). Used by tests to assert the trace
/// and report outputs are well-formed without a parser dependency.
[[nodiscard]] bool valid(std::string_view doc);

/// Parsed JSON value. Object member order is not preserved (members sort by
/// key); duplicate keys keep the last occurrence, as in most parsers.
class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value, std::less<>>;

  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(v_); }

  /// Checked accessors: the caller asserts the kind first (std::get throws
  /// std::bad_variant_access on mismatch, which is the intended failure).
  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] double as_number() const { return std::get<double>(v_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(v_); }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(v_); }
  [[nodiscard]] const Object& as_object() const { return std::get<Object>(v_); }

  /// Object member lookup; nullptr when absent or when this is not an
  /// object. Chains safely: v.find("a") ? v.find("a")->find("b") : ...
  [[nodiscard]] const Value* find(std::string_view key) const {
    const auto* obj = std::get_if<Object>(&v_);
    if (!obj) return nullptr;
    const auto it = obj->find(key);
    return it == obj->end() ? nullptr : &it->second;
  }

  /// Number member shorthand; `fallback` when absent or not a number.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const {
    const Value* v = find(key);
    return v && v->is_number() ? v->as_number() : fallback;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parse a complete JSON document; std::nullopt on any syntax error.
[[nodiscard]] std::optional<Value> parse(std::string_view doc);

}  // namespace gcr::obs::json
