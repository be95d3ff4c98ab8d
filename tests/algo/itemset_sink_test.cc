#include "fpm/algo/itemset_sink.h"

#include <gtest/gtest.h>

namespace fpm {
namespace {

TEST(CountingSinkTest, CountsAndChecksums) {
  CountingSink a, b;
  const Item s1[] = {1, 2};
  const Item s2[] = {3};
  a.Emit(s1, 10);
  a.Emit(s2, 5);
  // Same emissions in the other order -> same checksum.
  b.Emit(s2, 5);
  b.Emit(s1, 10);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.support_sum(), 15u);
  EXPECT_EQ(a.max_size(), 2u);
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(CountingSinkTest, ChecksumItemOrderInsensitive) {
  CountingSink a, b;
  const Item fwd[] = {1, 2, 3};
  const Item rev[] = {3, 2, 1};
  a.Emit(fwd, 4);
  b.Emit(rev, 4);
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(CountingSinkTest, ChecksumDetectsSupportChange) {
  CountingSink a, b;
  const Item s[] = {1, 2};
  a.Emit(s, 4);
  b.Emit(s, 5);
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(CollectingSinkTest, CanonicalizeSortsSetsAndItems) {
  CollectingSink sink;
  const Item s1[] = {3, 1};
  const Item s2[] = {0};
  sink.Emit(s1, 2);
  sink.Emit(s2, 7);
  sink.Canonicalize();
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.results()[0], (CollectingSink::Entry{{0}, 7}));
  EXPECT_EQ(sink.results()[1], (CollectingSink::Entry{{1, 3}, 2}));
}

}  // namespace
}  // namespace fpm
