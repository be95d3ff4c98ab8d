#include "fpm/common/hash.h"

#include <gtest/gtest.h>

#include "fpm/dataset/types.h"

namespace fpm {
namespace {

TEST(HashTest, Fnv1a64KnownAnswers) {
  // The published FNV-1a-64 test vectors: the empty string hashes to
  // the offset basis itself.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64(""), kFnv1aOffsetBasis);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  // Continuing from a previous result hashes the concatenation.
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), 0x85944171f73967e8ull);
}

TEST(HashTest, ItemsetHashIsOneFnvStepPerItem) {
  const Itemset set = {3, 70000};
  const uint64_t expected =
      Fnv1aStep(Fnv1aStep(kFnv1aOffsetBasis, 3), 70000);
  EXPECT_EQ(ItemsetHash{}(set), static_cast<size_t>(expected));
  EXPECT_EQ(ItemsetHash{}(Itemset{}), static_cast<size_t>(kFnv1aOffsetBasis));
  // Order-sensitive: callers hash sets in one agreed order.
  EXPECT_NE(ItemsetHash{}(Itemset{1, 2}), ItemsetHash{}(Itemset{2, 1}));
}

}  // namespace
}  // namespace fpm
