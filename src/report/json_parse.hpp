// Minimal strict JSON parser — the read half of the report layer's
// serialization loop (json.hpp is the write half).
//
// Deliberately small: parses exactly the dialect JsonWriter emits (plus
// arbitrary whitespace and member order, since part of the point is
// reading documents that other tools may have reformatted). Objects keep
// members in insertion order in a vector — never a hash map — so
// everything downstream of a parse stays deterministically ordered.
// Every malformed input comes back as a typed kMalformedDocument error
// with a byte offset, not an exception.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace nsrel::report {

/// One parsed JSON value. Numbers keep both the strtod double and the
/// raw source token (`text`), so integer fields that must round-trip
/// exactly (uint64 seeds) can re-parse the token losslessly.
struct JsonValue {
  enum class Kind : unsigned char {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// String payload for kString; the raw source token for kNumber.
  std::string text;
  std::vector<JsonValue> items;  ///< kArray elements
  /// kObject members in source order (duplicate keys are a parse error).
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// The member with the given key, or nullptr. Precondition: is_object().
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parses one complete JSON document (trailing content beyond the single
/// top-level value is an error). Failures are typed
/// kMalformedDocument errors (layer "report.json") carrying the byte
/// offset of the problem.
[[nodiscard]] Expected<JsonValue> parse_json(std::string_view text);

/// The strict field readers every document reader (resultset, metrics,
/// events) validates its schema with. Each failure throws an
/// ErrorException carrying a kMalformedDocument error from `module`
/// with the detail "<path>: <what>"; the reader converts it to Expected
/// at its boundary.
class FieldReader {
 public:
  explicit constexpr FieldReader(const char* module) : module_(module) {}

  [[noreturn]] void fail(const std::string& path,
                         const std::string& what) const;

  /// The member `key` of `object`, or a "missing key" failure.
  const JsonValue& require(const JsonValue& object, const std::string& path,
                           std::string_view key) const;
  void check_object(const JsonValue& value, const std::string& path) const;
  /// Fails on the first member whose key is not in `allowed`.
  void check_keys(const JsonValue& object, const std::string& path,
                  const std::vector<std::string_view>& allowed) const;

  std::string read_string(const JsonValue& object, const std::string& path,
                          std::string_view key) const;
  double read_number(const JsonValue& object, const std::string& path,
                     std::string_view key) const;
  /// An exact non-negative integer: the raw token must be plain digits
  /// (no sign, fraction, exponent or leading zero) so uint64 values —
  /// solve-cache counters, sim seeds — survive without a double
  /// round-trip. `field` names the value in failures.
  std::uint64_t parse_uint(const JsonValue& value,
                           const std::string& field) const;
  std::uint64_t read_uint(const JsonValue& object, const std::string& path,
                          std::string_view key) const;

 private:
  const char* module_;
};

}  // namespace nsrel::report
