#include "fpm/service/json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fpm {
namespace {

TEST(JsonValueTest, AbsentKeyIsNull) {
  const auto parsed = ParseJson("{}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value()["nope"].is_null());
  EXPECT_TRUE(parsed.value()["nope"]["deeper"].is_null());
}

TEST(JsonParseTest, RoundTripsNestedDocument) {
  const std::string text =
      "{\"a\":[1,2,{\"b\":true}],\"c\":\"s\",\"d\":null,\"e\":-2.5}";
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  const std::vector<JsonValue>& a = doc["a"].array_items();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].number_value(), 1.0);
  EXPECT_EQ(a[1].number_value(), 2.0);
  EXPECT_TRUE(a[2]["b"].is_bool());
  EXPECT_TRUE(a[2]["b"].bool_value());
  EXPECT_EQ(doc["c"].string_value(), "s");
  EXPECT_EQ(doc["d"].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(doc["e"].number_value(), -2.5);
  // Whitespace does not change the parsed value.
  auto spaced = ParseJson(
      " { \"e\" : -2.5 , \"d\" : null , \"c\" : \"s\" ,"
      " \"a\" : [ 1 , 2 , { \"b\" : true } ] } ");
  ASSERT_TRUE(spaced.ok()) << spaced.status();
  EXPECT_EQ(spaced.value(), doc);
}

TEST(JsonParseTest, RepeatedKeyKeepsTheLastValue) {
  auto parsed = ParseJson("{\"k\":[1,2],\"k\":\"last\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value()["k"].string_value(), "last");
}

TEST(JsonParseTest, ParsesWhitespaceAndEscapes) {
  auto parsed = ParseJson("  { \"k\" : \"a\\u0041\\n\" }  ");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value()["k"].string_value(), "aA\n");
}

TEST(JsonParseTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseJson("{\"a\":1} extra").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("truthy").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
}

TEST(JsonParseTest, RejectsRawControlBytesInStrings) {
  for (const char raw : {'\x01', '\t', '\n', '\x1f'}) {
    const Result<JsonValue> parsed =
        ParseJson(std::string("{\"k\":\"a") + raw + "b\"}");
    ASSERT_FALSE(parsed.ok()) << static_cast<int>(raw);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(),
              "JSON parse error at offset 7: raw control byte in string");
  }
  // Escaped, the same bytes are fine, and so is whitespace between
  // tokens and a byte of 0x20 or above.
  auto parsed = ParseJson("{ \"k\" :\t\"a\\u0001\\tb \x7f\xc3\xa9\"\n}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value()["k"].string_value(), "a\x01\tb \x7f\xc3\xa9");
}

TEST(JsonParseTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(ParseJson(deep).ok());
  // A comfortably shallow document is fine.
  EXPECT_TRUE(ParseJson("[[[[[[[[1]]]]]]]]").ok());
}

TEST(JsonParseTest, NumbersSurviveRoundTrip) {
  auto parsed = ParseJson("[0,-1,3.25,1e3]");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const auto& items = parsed->array_items();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].number_value(), 0.0);
  EXPECT_EQ(items[1].number_value(), -1.0);
  EXPECT_EQ(items[2].number_value(), 3.25);
  EXPECT_EQ(items[3].number_value(), 1000.0);
}

}  // namespace
}  // namespace fpm
