#include "json.h"

#include <charconv>

namespace perfbench {
namespace {

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }
  const std::string& error() const { return error_; }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Expect(char c) {
    return Consume(c) ? true : Fail(std::string("expected '") + c + "'");
  }

  bool AtEnd() {
    SkipWs();
    return pos_ == text_.size();
  }

  bool String(std::string* out) {
    if (!Expect('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u':
          // The protocol escapes only control characters this way; keep a
          // placeholder rather than decoding UTF-16.
          if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
          pos_ += 4;
          out->push_back('?');
          break;
        default: out->push_back(e); break;
      }
    }
    return Fail("unterminated string");
  }

  bool Number(double* out) {
    SkipWs();
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(begin, end, *out);
    if (ec != std::errc()) return Fail("bad number");
    pos_ += static_cast<size_t>(ptr - begin);
    return true;
  }

  bool Unsigned(uint64_t* out) {
    SkipWs();
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(begin, end, *out);
    if (ec != std::errc()) return Fail("bad unsigned integer");
    pos_ += static_cast<size_t>(ptr - begin);
    return true;
  }

  bool Literal(std::string_view word) {
    SkipWs();
    if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool Value(Json* out) {
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = Json::Type::kObject;
      if (Consume('}')) return true;
      do {
        std::pair<std::string, Json> member;
        if (!String(&member.first) || !Expect(':') ||
            !Value(&member.second)) {
          return false;
        }
        out->object.push_back(std::move(member));
      } while (Consume(','));
      return Expect('}');
    }
    if (c == '[') {
      ++pos_;
      out->type = Json::Type::kArray;
      if (Consume(']')) return true;
      do {
        out->array.emplace_back();
        if (!Value(&out->array.back())) return false;
      } while (Consume(','));
      return Expect(']');
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (c == 't' || c == 'f') {
      out->type = Json::Type::kBool;
      out->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->type = Json::Type::kNull;
      return Literal("null");
    }
    out->type = Json::Type::kNumber;
    return Number(&out->number);
  }

  /// Reads [{"items":[...],"support":N},...] into `listing`.
  bool ItemsetArray(Listing* listing) {
    if (!Expect('[')) return false;
    if (Consume(']')) return true;
    std::vector<uint32_t> items;
    do {
      if (!Expect('{')) return false;
      items.clear();
      uint64_t support = 0;
      bool have_support = false;
      do {
        std::string key;
        if (!String(&key) || !Expect(':')) return false;
        if (key == "items") {
          if (!Expect('[')) return false;
          if (!Consume(']')) {
            do {
              uint64_t item = 0;
              if (!Unsigned(&item)) return false;
              items.push_back(static_cast<uint32_t>(item));
            } while (Consume(','));
            if (!Expect(']')) return false;
          }
        } else if (key == "support") {
          if (!Unsigned(&support)) return false;
          have_support = true;
        } else {
          Json ignored;
          if (!Value(&ignored)) return false;
        }
      } while (Consume(','));
      if (!Expect('}')) return false;
      if (!have_support) return Fail("itemset without support");
      listing->Add(items.data(), items.data() + items.size(), support);
    } while (Consume(','));
    return Expect(']');
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const Json* Json::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Json* Json::Path(std::string_view dotted) const {
  const Json* node = this;
  while (node != nullptr) {
    const size_t dot = dotted.find('.');
    node = node->Find(dotted.substr(0, dot));
    if (dot == std::string_view::npos) break;
    dotted.remove_prefix(dot + 1);
  }
  return node;
}

double Json::Num(std::string_view dotted, double fallback) const {
  const Json* node = Path(dotted);
  return node != nullptr && node->type == Type::kNumber ? node->number
                                                        : fallback;
}

std::string Json::Str(std::string_view dotted) const {
  const Json* node = Path(dotted);
  return node != nullptr && node->type == Type::kString ? node->string
                                                        : std::string();
}

bool ParseJson(std::string_view text, Json* out, std::string* error) {
  Reader reader(text);
  *out = Json();
  if (!reader.Value(out) || !reader.AtEnd()) {
    if (reader.error().empty()) reader.Fail("trailing bytes");
    *error = reader.error();
    return false;
  }
  return true;
}

void Listing::Add(const uint32_t* begin, const uint32_t* end,
                  uint64_t support) {
  items.insert(items.end(), begin, end);
  offsets.push_back(static_cast<uint32_t>(items.size()));
  supports.push_back(support);
}

bool ParseQueryAnswer(std::string_view text, QueryAnswer* out,
                      std::string* error) {
  *out = QueryAnswer();
  Reader reader(text);
  bool ok = reader.Expect('{');
  if (ok && !reader.Consume('}')) {
    do {
      std::string key;
      ok = reader.String(&key) && reader.Expect(':');
      if (!ok) break;
      if (key == "itemsets") {
        ok = reader.ItemsetArray(&out->itemsets);
        continue;
      }
      Json value;
      ok = reader.Value(&value);
      if (key == "ok") out->ok = value.boolean;
      if (key == "cache") out->cache = value.string;
      if (key == "peer") out->peer = value.string;
      if (key == "mine_ms") out->mine_ms = value.number;
      if (key == "queue_ms") out->queue_ms = value.number;
      if (key == "num_results") {
        out->num_results = static_cast<uint64_t>(value.number);
      }
      if (key == "error") {
        out->error = value.Str("code") + ": " + value.Str("message");
      }
    } while (ok && reader.Consume(','));
    ok = ok && reader.Expect('}');
  }
  ok = ok && reader.AtEnd();
  if (!ok) {
    *error = reader.error().empty() ? "trailing bytes" : reader.error();
    return false;
  }
  if (!out->ok && out->error.empty()) out->error = "reply without ok:true";
  return true;
}

}  // namespace perfbench
