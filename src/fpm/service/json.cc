#include "fpm/service/json.h"

#include <cctype>
#include <charconv>
#include <utility>

namespace fpm {

const JsonValue& JsonValue::operator[](const std::string& key) const {
  static const JsonValue kNull;
  if (kind_ != Kind::kObject) return kNull;
  auto it = object_.find(key);
  return it == object_.end() ? kNull : it->second;
}

// Parses one document into a JsonValue, writing its private fields
// directly; the only code that builds one.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue v;
    FPM_RETURN_IF_ERROR(ParseValue(&v, /*depth=*/0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        return ParseString(&out->string_);
      case 't':
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = true;
        return ParseLiteral("true");
      case 'f':
        out->kind_ = JsonValue::Kind::kBool;
        return ParseLiteral("false");
      case 'n':
        return ParseLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (!Consume(*p)) return Error(std::string("expected '") + lit + "'");
    }
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    double d = 0.0;
    auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      return Error("malformed number '" +
                   text_.substr(start, pos_ - start) + "'");
    }
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = d;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_];
      // JSON forbids raw control bytes in a string; the writer escapes
      // every one, so a line can never carry a newline inside a value.
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control byte in string");
      }
      ++pos_;
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by the protocol; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    Consume('[');
    out->kind_ = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      SkipWs();
      FPM_RETURN_IF_ERROR(ParseValue(&out->array_.emplace_back(), depth + 1));
      SkipWs();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    Consume('{');
    out->kind_ = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      std::string key;
      FPM_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Error("expected ':'");
      SkipWs();
      // A repeated key keeps its last value.
      JsonValue& value = out->object_[key];
      value = JsonValue();
      FPM_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      SkipWs();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Result<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

}  // namespace fpm
