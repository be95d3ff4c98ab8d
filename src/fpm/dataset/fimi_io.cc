#include "fpm/dataset/fimi_io.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "fpm/obs/metrics.h"
#include "fpm/obs/trace.h"

namespace fpm {
namespace {

// The whitespace-delimited token starting at `p`, clipped for error
// messages — long garbage (a pasted binary blob) should not flood the
// diagnostic.
std::string TokenAt(const char* p, const char* end) {
  constexpr size_t kMaxShown = 32;
  const char* q = p;
  while (q < end && *q != ' ' && *q != '\t' && *q != '\r') ++q;
  const size_t len = static_cast<size_t>(q - p);
  std::string token(p, std::min(len, kMaxShown));
  if (len > kMaxShown) token += "...";
  return token;
}

// Parses one line of whitespace-separated unsigned integers into `out`.
// Returns false on malformed input; `error` then names the offending
// token so the caller's line number plus the token pin down the exact
// spot in a multi-gigabyte file.
bool ParseLine(const char* p, const char* end, std::vector<Item>* out,
               std::string* error) {
  out->clear();
  while (p < end) {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    if (p >= end) break;
    const char* token_start = p;
    uint64_t v = 0;
    while (p < end && std::isdigit(static_cast<unsigned char>(*p))) {
      v = v * 10 + static_cast<uint64_t>(*p - '0');
      if (v > kMaxItem) {
        *error = "item id overflows the largest item id " +
                 std::to_string(kMaxItem) + " in token '" +
                 TokenAt(token_start, end) + "'";
        return false;
      }
      ++p;
    }
    // A token must be all digits: nothing consumed means a non-digit
    // lead ("x1 2"), stopping early means an embedded non-digit ("1a2").
    if (p == token_start ||
        (p < end && *p != ' ' && *p != '\t' && *p != '\r')) {
      *error = "malformed token '" + TokenAt(token_start, end) +
               "' (items are unsigned integers)";
      return false;
    }
    out->push_back(static_cast<Item>(v));
  }
  return true;
}

}  // namespace

Result<Database> ParseFimi(const std::string& text) {
  ScopedSpan span("fimi/parse");
  span.AddArg("bytes", text.size());
  DatabaseBuilder builder;
  std::vector<Item> tx;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    ++line_no;
    std::string error;
    if (!ParseLine(text.data() + pos, text.data() + eol, &tx, &error)) {
      return Status::InvalidArgument("FIMI parse error at line " +
                                     std::to_string(line_no) + ": " + error);
    }
    // Skip blank lines entirely (common trailing newline case).
    if (!tx.empty()) builder.AddTransaction(tx);
    if (eol == text.size()) break;
    pos = eol + 1;
  }
  Database db = builder.Build();
  MetricsRegistry& registry = MetricsRegistry::Default();
  if (registry.enabled()) {
    static Counter* transactions =
        registry.GetCounter("fpm.fimi.transactions_parsed");
    static Counter* bytes = registry.GetCounter("fpm.fimi.bytes_parsed");
    transactions->Add(db.num_transactions());
    bytes->Add(text.size());
  }
  return db;
}

Result<Database> ReadFimiFile(const std::string& path) {
  ScopedSpan span("fimi/read");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("read failure on '" + path + "'");
  return ParseFimi(buf.str());
}

std::string ToFimi(const Database& db) {
  std::string out;
  char num[16];
  for (Tid t = 0; t < db.num_transactions(); ++t) {
    const auto tx = db.transaction(t);
    for (Support copy = 0; copy < db.weight(t); ++copy) {
      bool first = true;
      for (Item it : tx) {
        int n = std::snprintf(num, sizeof(num), first ? "%u" : " %u", it);
        out.append(num, static_cast<size_t>(n));
        first = false;
      }
      out.push_back('\n');
    }
  }
  return out;
}

Status WriteFimiFile(const Database& db, const std::string& path) {
  ScopedSpan span("fimi/write");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  const std::string text = ToFimi(db);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

}  // namespace fpm
