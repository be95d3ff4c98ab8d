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

TEST(CountingSinkTest, MergeFromEqualsSingleSink) {
  // Any partition of the emissions across shards must merge to exactly
  // the counters of one sink that saw everything.
  const Item s1[] = {1, 2};
  const Item s2[] = {3};
  const Item s3[] = {0, 4, 5};
  CountingSink all;
  all.Emit(s1, 10);
  all.Emit(s2, 5);
  all.Emit(s3, 2);

  CountingSink left, right;
  left.Emit(s3, 2);
  right.Emit(s1, 10);
  right.Emit(s2, 5);
  left.MergeFrom(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_EQ(left.support_sum(), all.support_sum());
  EXPECT_EQ(left.checksum(), all.checksum());
  EXPECT_EQ(left.max_size(), all.max_size());
}

TEST(CountingSinkTest, MergeFromIsAssociative) {
  const Item s1[] = {1};
  const Item s2[] = {2, 3};
  const Item s3[] = {4};
  CountingSink a, b, c;
  a.Emit(s1, 1);
  b.Emit(s2, 2);
  c.Emit(s3, 3);

  // (a + b) + c
  CountingSink ab = a;
  ab.MergeFrom(b);
  ab.MergeFrom(c);
  // a + (b + c)
  CountingSink bc = b;
  bc.MergeFrom(c);
  CountingSink abc = a;
  abc.MergeFrom(bc);
  EXPECT_EQ(ab.count(), abc.count());
  EXPECT_EQ(ab.support_sum(), abc.support_sum());
  EXPECT_EQ(ab.checksum(), abc.checksum());
  EXPECT_EQ(ab.max_size(), abc.max_size());
}

TEST(CountingSinkTest, MergeFromEmptyIsIdentity) {
  const Item s[] = {7, 8};
  CountingSink a;
  a.Emit(s, 3);
  const uint64_t checksum = a.checksum();
  CountingSink empty;
  a.MergeFrom(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.checksum(), checksum);
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

TEST(SizeFilterSinkTest, DropsSmallItemsets) {
  CollectingSink inner;
  SizeFilterSink filter(&inner, 2);
  const Item s1[] = {1};
  const Item s2[] = {1, 2};
  const Item s3[] = {1, 2, 3};
  filter.Emit(s1, 5);
  filter.Emit(s2, 4);
  filter.Emit(s3, 3);
  EXPECT_EQ(inner.size(), 2u);
}

}  // namespace
}  // namespace fpm
