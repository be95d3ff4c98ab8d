#include "fpm/common/json_writer.h"

#include <charconv>
#include <cmath>

namespace fpm {

void AppendJsonString(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  size_t run = 0;  // start of the bytes not yet copied
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        out->append("\\u00");
        out->push_back(kHex[c >> 4]);
        out->push_back(kHex[c & 0xF]);
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_->push_back('{');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_->push_back('}');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_->push_back('[');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_->push_back(']');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  AppendJsonString(out_, key);
  out_->push_back(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Separate();
  AppendJsonString(out_, s);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  if (std::floor(value) == value && std::abs(value) < 1e15) {
    return Int(static_cast<int64_t>(value));
  }
  Separate();
  if (std::isfinite(value)) {
    char buf[32];
    out_->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  } else {
    out_->append("null");  // NaN and the infinities have no JSON spelling
  }
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  Separate();
  char buf[24];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  Separate();
  char buf[24];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  out_->append(value ? "true" : "false");
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_->append(json);
  need_comma_ = true;
  return *this;
}

}  // namespace fpm
