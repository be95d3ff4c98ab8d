#include "fpm/dataset/fimi_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace fpm {
namespace {

TEST(FimiParseTest, BasicParse) {
  auto r = ParseFimi("1 2 3\n4 5\n");
  ASSERT_TRUE(r.ok()) << r.status();
  const Database& db = r.value();
  ASSERT_EQ(db.num_transactions(), 2u);
  EXPECT_EQ(db.transaction(0).size(), 3u);
  EXPECT_EQ(db.transaction(1)[1], 5u);
}

TEST(FimiParseTest, HandlesMissingTrailingNewline) {
  auto r = ParseFimi("1 2\n3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_transactions(), 2u);
}

TEST(FimiParseTest, SkipsBlankLines) {
  auto r = ParseFimi("1 2\n\n\n3\n\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_transactions(), 2u);
}

TEST(FimiParseTest, ToleratesTabsAndCarriageReturns) {
  auto r = ParseFimi("1\t2 \r\n3\r\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_transactions(), 2u);
  EXPECT_EQ(r->transaction(0).size(), 2u);
}

TEST(FimiParseTest, RejectsGarbage) {
  auto r = ParseFimi("1 2\nx y\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
  // The diagnostic names the offending token, not just its first byte.
  EXPECT_NE(r.status().message().find("'x'"), std::string::npos);
}

TEST(FimiParseTest, ErrorNamesFullOffendingToken) {
  auto r = ParseFimi("1 2 3\n4 5\n6 12ab34 8\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(r.status().message().find("'12ab34'"), std::string::npos);
}

TEST(FimiParseTest, ErrorClipsVeryLongTokens) {
  const std::string long_token(100, 'z');
  auto r = ParseFimi("1\n" + long_token + "\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(r.status().message().find(std::string(32, 'z') + "..."),
            std::string::npos);
  EXPECT_EQ(r.status().message().find(std::string(33, 'z')),
            std::string::npos);
}

TEST(FimiParseTest, RejectsNegativeNumbers) {
  auto r = ParseFimi("-1 2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("'-1'"), std::string::npos);
}

TEST(FimiParseTest, RejectsOverflowingItem) {
  auto r = ParseFimi("99999999999\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("overflows"), std::string::npos);
  EXPECT_NE(r.status().message().find("'99999999999'"), std::string::npos);
}

// Mutant 68 of DecoderFuzzTest.ParseFimiReturnsAStatus. The reader
// sizes per-item arrays by the largest id, so before the bound these 19
// bytes made it allocate 4 GB.
TEST(FimiParseTest, RejectsItemsPastTheItemBound) {
  auto r = ParseFimi("9 2 3\n4 5\n999999999");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(r.status().message().find("'999999999'"), std::string::npos);

  auto largest = ParseFimi(std::to_string(kMaxItem) + "\n");
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(largest->num_items(), size_t{kMaxItem} + 1);
  EXPECT_FALSE(ParseFimi(std::to_string(kMaxItem + 1) + "\n").ok());
}

TEST(FimiParseTest, EmptyInputYieldsEmptyDatabase) {
  auto r = ParseFimi("");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_transactions(), 0u);
}

TEST(FimiRoundTripTest, ParseSerializeParse) {
  const std::string text = "1 2 3\n10 20\n7\n";
  auto db = ParseFimi(text);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(ToFimi(db.value()), text);
}

TEST(FimiRoundTripTest, WeightedTransactionsExpand) {
  DatabaseBuilder b;
  b.AddTransaction({1, 2}, 3);
  const std::string text = ToFimi(b.Build());
  EXPECT_EQ(text, "1 2\n1 2\n1 2\n");
}

TEST(FimiFileTest, WriteAndReadBack) {
  DatabaseBuilder b;
  b.AddTransaction({4, 2});
  b.AddTransaction({9});
  Database db = b.Build();
  const std::string path = testing::TempDir() + "/fimi_io_test.dat";
  ASSERT_TRUE(WriteFimiFile(db, path).ok());
  auto back = ReadFimiFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_transactions(), 2u);
  EXPECT_EQ(back->transaction(0)[0], 4u);
  EXPECT_EQ(back->transaction(1)[0], 9u);
  std::remove(path.c_str());
}

TEST(FimiFileTest, MissingFileIsIOError) {
  auto r = ReadFimiFile("/nonexistent/path/to/nothing.dat");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace fpm
