// Shared helpers for the service-layer tests: temp FIMI files and a
// dense dataset whose pattern space is far too large to mine to
// completion — the workload the cancellation tests hang a deadline on.

#ifndef FPM_TESTS_SERVICE_SERVICE_TEST_UTIL_H_
#define FPM_TESTS_SERVICE_SERVICE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "fpm/common/rng.h"
#include "fpm/dataset/database.h"
#include "fpm/service/service.h"

namespace fpm {
namespace test {

/// The itemsets a response answers with; none without a listing.
inline const std::vector<CollectingSink::Entry>& Itemsets(
    const MineResponse& response) {
  static const std::vector<CollectingSink::Entry> kNone;
  return response.listing != nullptr ? response.listing->itemsets : kNone;
}

/// The rules a response answers with; none without a listing.
inline const std::vector<AssociationRule>& Rules(
    const MineResponse& response) {
  static const std::vector<AssociationRule> kNone;
  return response.listing != nullptr ? response.listing->rules : kNone;
}

/// Writes `content` to a fresh file under the gtest temp dir and
/// returns its path. `name` must be unique within the test binary.
inline std::string WriteTempFimi(const std::string& name,
                                 const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return path;
}

/// A small database every kernel mines in microseconds:
///   1 2 3 / 1 2 / 1 3 / 2 3 / 1 2 3 4
inline std::string SmallFimiText() {
  return "1 2 3\n1 2\n1 3\n2 3\n1 2 3 4\n";
}

/// FIMI text for a dense database: `rows` transactions, each with
/// `k` distinct items drawn from [0, universe). At low min_support the
/// frequent-itemset count is combinatorial in `k`, so a full mine takes
/// far longer than any test deadline — cancellation must kick in.
inline std::string DenseFimiText(uint32_t rows = 2000, uint32_t universe = 40,
                                 uint32_t k = 20) {
  Rng rng(0x5eedu);
  std::string out;
  std::vector<bool> in_row(universe);
  for (uint32_t r = 0; r < rows; ++r) {
    std::fill(in_row.begin(), in_row.end(), false);
    uint32_t placed = 0;
    bool first = true;
    while (placed < k) {
      const uint32_t item = static_cast<uint32_t>(rng.NextBounded(universe));
      if (in_row[item]) continue;
      in_row[item] = true;
      ++placed;
      if (!first) out.push_back(' ');
      out += std::to_string(item);
      first = false;
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace test
}  // namespace fpm

#endif  // FPM_TESTS_SERVICE_SERVICE_TEST_UTIL_H_
