// The one JSON writer. Every encoder in the library appends its output
// straight into a std::string through JsonWriter, and every JSON string
// is escaped by AppendJsonString — the protocol's replies and requests
// (fpm/service/protocol.h), the coordinator's cluster section, the
// query log, the metrics snapshot, the trace exporters and the bench
// reports. Parsing is fpm/service/json.h's job.
//
// The writer keeps no tree and does not sort: keys come out in the
// order the caller writes them. The protocol's encoders write them in
// ascending byte order, which their goldens pin.
//
// Numbers follow one rule: an integral value below 1e15 in magnitude
// prints as a decimal integer, any other finite value in shortest
// round-trip form, and NaN and infinities print as null. Int and Uint
// print integer types exactly.

#ifndef FPM_COMMON_JSON_WRITER_H_
#define FPM_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace fpm {

/// Appends `s` to `out` as a quoted JSON string. `"` and `\` get a
/// backslash, \n \r \t their short escapes, any other byte below 0x20
/// becomes \u00XX, and every other byte is copied as is.
void AppendJsonString(std::string* out, std::string_view s);

/// Appends JSON values to a string and places the commas. The caller
/// pairs each Begin with its End and writes a Key before every object
/// member; the writer does not check the nesting.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Writes an object member's key; the next call writes its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view s);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Bool(bool value);

  /// Writes `json` unchanged as the next value; it must be one complete
  /// JSON value (a section another encoder wrote, a checked request).
  JsonWriter& Raw(std::string_view json);

 private:
  // Writes the comma that separates a value from the one before it.
  void Separate() {
    if (need_comma_) out_->push_back(',');
  }

  std::string* out_;
  bool need_comma_ = false;
};

}  // namespace fpm

#endif  // FPM_COMMON_JSON_WRITER_H_
