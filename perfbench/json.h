// The benchmark's own reader for fpmd's newline-delimited JSON replies.
//
// It is deliberately independent of the library's protocol decoder, so a
// change to DecodeQueryResponse neither breaks the benchmark nor changes
// what its client costs. Two entry points: ParseJson builds a small tree
// for control replies (stats, metrics, cluster_info, handles), and
// ParseQueryAnswer reads a v2 query reply straight into a flat listing.

#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member `key` of an object, nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;
  /// Follows a dotted path of object keys ("cache.evictions").
  const Json* Path(std::string_view dotted) const;
  /// Number at a dotted path, `fallback` when absent or not a number.
  double Num(std::string_view dotted, double fallback = 0.0) const;
  /// String at a dotted path, empty when absent.
  std::string Str(std::string_view dotted) const;
};

/// Parses one JSON document. False (with `error`) on malformed input.
bool ParseJson(std::string_view text, Json* out, std::string* error);

/// An itemset listing, flattened: the items of entry i are
/// items[offsets[i] .. offsets[i+1]), its support supports[i].
struct Listing {
  std::vector<uint32_t> items;
  std::vector<uint32_t> offsets{0};
  std::vector<uint64_t> supports;

  size_t size() const { return supports.size(); }
  void Add(const uint32_t* begin, const uint32_t* end, uint64_t support);
};

/// The fields of a v2 "query" reply the benchmark reads.
struct QueryAnswer {
  bool ok = false;
  std::string error;  ///< error.code + ": " + error.message when !ok
  std::string cache;  ///< miss|hit|dominated|cross_task|reseeded
  std::string peer;   ///< cluster: the node that produced the answer
  double mine_ms = 0.0;
  double queue_ms = 0.0;
  uint64_t num_results = 0;
  Listing itemsets;
};

/// Parses a v2 query reply line. False (with `error`) on malformed JSON;
/// an {"ok":false,...} reply parses fine and sets `error`.
bool ParseQueryAnswer(std::string_view text, QueryAnswer* out,
                      std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
