// JSON parsing for the service's newline-delimited protocol
// (fpm/service/protocol.h): ParseJson turns one request line into a
// read-only JsonValue tree. JsonValue only parses requests; every JSON
// the library writes goes through fpm/common/json_writer.h, and every
// reply fpmd writes is read back by protocol.cc's one-pass reader.
//
// Deliberately small rather than general: numbers are doubles (every
// value the protocol carries — supports, counts, byte sizes — is well
// inside the 2^53 exact-integer range), an object keeps the last value
// of a repeated key, and parsing rejects anything outside the JSON
// grammar instead of guessing. No external dependency.

#ifndef FPM_SERVICE_JSON_H_
#define FPM_SERVICE_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fpm/common/status.h"

namespace fpm {

/// A parsed JSON document node. Value semantics; copying copies the
/// subtree. Only ParseJson builds one; a default-constructed value is
/// null.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  int64_t int_value() const { return static_cast<int64_t>(number_); }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::map<std::string, JsonValue>& object_items() const {
    return object_;
  }

  /// Object member access; returns a shared null value for absent keys
  /// (and on non-objects), so lookups chain without checks.
  const JsonValue& operator[](const std::string& key) const;

  bool operator==(const JsonValue&) const = default;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// How deep ParseJson nests values (the document itself is depth 0);
/// a deeper value is refused. The reply reader in protocol.cc skips
/// values under the same bound.
inline constexpr int kMaxJsonDepth = 64;

/// Parses one JSON document. Trailing non-whitespace is an error —
/// protocol messages are exactly one value per line.
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace fpm

#endif  // FPM_SERVICE_JSON_H_
