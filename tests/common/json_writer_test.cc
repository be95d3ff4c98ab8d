#include "fpm/common/json_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace fpm {
namespace {

std::string Number(double value) {
  std::string out;
  JsonWriter(&out).Number(value);
  return out;
}

std::string Quoted(std::string_view s) {
  std::string out;
  JsonWriter(&out).String(s);
  return out;
}

TEST(JsonWriterTest, Scalars) {
  std::string out;
  JsonWriter w(&out);
  w.BeginArray().Bool(true).Bool(false).Int(42).Int(-7).EndArray();
  EXPECT_EQ(out, "[true,false,42,-7]");
  EXPECT_EQ(Quoted("hi"), "\"hi\"");
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(Quoted("a\"b\\c\n\t"), "\"a\\\"b\\\\c\\n\\t\"");
  // Other control characters take the \u form, in lowercase hex.
  EXPECT_EQ(Quoted("\x01" "x\x1f\r"), "\"\\u0001x\\u001f\\r\"");
  // Every byte from 0x20 up passes through, UTF-8 included.
  EXPECT_EQ(Quoted("caf\xc3\xa9 /"), "\"caf\xc3\xa9 /\"");
  // Keys take the same escaper.
  std::string out;
  JsonWriter(&out).BeginObject().Key("a\"b").Int(1).EndObject();
  EXPECT_EQ(out, "{\"a\\\"b\":1}");
}

TEST(JsonWriterTest, ArraysKeepOrder) {
  std::string out;
  JsonWriter(&out).BeginArray().Int(3).Int(1).String("x").EndArray();
  EXPECT_EQ(out, "[3,1,\"x\"]");
}

TEST(JsonWriterTest, ObjectsKeepTheCallersKeyOrder) {
  // The writer does not sort; the encoders write their keys ascending.
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("zeta").Int(1).Key("alpha").Int(2).EndObject();
  EXPECT_EQ(out, "{\"zeta\":1,\"alpha\":2}");
}

TEST(JsonWriterTest, CommasSeparateNestedValues) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("a").BeginArray();
  w.BeginArray().EndArray().BeginObject().EndObject().Uint(7).EndArray();
  w.Key("b").Raw("{\"c\":[1]}").Key("d").Bool(true).EndObject();
  EXPECT_EQ(out, "{\"a\":[[],{},7],\"b\":{\"c\":[1]},\"d\":true}");
}

TEST(JsonWriterTest, NumberRule) {
  // Integral values below 1e15 in magnitude print as integers.
  EXPECT_EQ(Number(250.0), "250");
  EXPECT_EQ(Number(-3.0), "-3");
  EXPECT_EQ(Number(-0.0), "0");
  EXPECT_EQ(Number(999999999999999.0), "999999999999999");
  // Every other finite value in shortest round-trip form.
  EXPECT_EQ(Number(0.1), "0.1");
  EXPECT_EQ(Number(1.5), "1.5");
  EXPECT_EQ(Number(1e15), "1e+15");
  // NaN and the infinities have no JSON spelling.
  EXPECT_EQ(Number(std::nan("")), "null");
  EXPECT_EQ(Number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(Number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriterTest, IntegerOverloadsPrintExactly) {
  std::string out;
  JsonWriter w(&out);
  w.BeginArray().Uint(std::numeric_limits<uint64_t>::max());
  w.Int(std::numeric_limits<int64_t>::min()).EndArray();
  EXPECT_EQ(out, "[18446744073709551615,-9223372036854775808]");
}

}  // namespace
}  // namespace fpm
