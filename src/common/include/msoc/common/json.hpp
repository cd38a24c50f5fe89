#pragma once
// Minimal strict JSON reader for the machine-readable documents this
// repo produces and consumes (msoc-sweep-v1, msoc-cache-v4 record
// payloads in journals and snapshots, perf trajectories).  Writers stay
// hand-rolled ostream code — only reading
// needs structure, and only reading needs to be strict: a truncated or
// tampered cache file must fail parsing cleanly so callers can fall
// back to recomputing.
//
// Deliberately small: UTF-8 pass-through, \uXXXX escapes decoded (BMP
// only; surrogate pairs are combined), numbers as double (exact for
// integers up to 2^53 — far above any test time this planner produces),
// objects as sorted maps.  Parse failures throw ParseError carrying the
// source label and 1-based line number.

#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace msoc {

/// One parsed JSON value.  Accessors throw ParseError on type mismatch
/// so schema validation reads as straight-line code at the call site.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(std::nullptr_t) {}
  explicit JsonValue(bool b) : value_(b) {}
  explicit JsonValue(double n) : value_(n) {}
  explicit JsonValue(std::string s) : value_(std::move(s)) {}
  explicit JsonValue(Array a) : value_(std::move(a)) {}
  explicit JsonValue(Object o) : value_(std::move(o)) {}

  [[nodiscard]] Type type() const noexcept {
    return static_cast<Type>(value_.index());
  }
  [[nodiscard]] bool is_null() const noexcept {
    return type() == Type::kNull;
  }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Member lookup on an object; nullptr when absent.  Throws ParseError
  /// when this value is not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Required member lookup; throws ParseError naming the key when
  /// absent.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_ = nullptr;
};

/// Parses exactly one JSON document (trailing whitespace allowed,
/// trailing garbage is an error).  `source_name` labels ParseErrors.
[[nodiscard]] JsonValue parse_json(std::string_view text,
                                   const std::string& source_name = "<json>");

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslash, control characters; everything else passes through).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace msoc
