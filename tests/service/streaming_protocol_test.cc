// Wire protocol coverage for the v2 streaming ops (open / append /
// expire / window / dataset_info) and handle-based query addressing:
// decode shapes, the exact `op 'X': field 'Y'` error convention, and
// encode goldens for the handle/info response lines.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fpm/service/protocol.h"

namespace fpm {
namespace {

std::string DecodeErrorOf(const std::string& line) {
  auto r = DecodeRequest(line);
  EXPECT_FALSE(r.ok()) << line;
  return r.ok() ? std::string() : std::string(r.status().message());
}

TEST(StreamingDecodeTest, OpenRequiresDatasetPath) {
  auto r = DecodeRequest("{\"op\":\"open\",\"dataset\":\"/tmp/t10.dat\"}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->op, ServiceRequest::Op::kOpen);
  EXPECT_EQ(r->dataset_op.path, "/tmp/t10.dat");

  EXPECT_EQ(DecodeErrorOf("{\"op\":\"open\"}"),
            "op 'open': field 'dataset': missing or not a string");
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"open\",\"dataset\":\"\"}"),
            "op 'open': field 'dataset': missing or not a string");
}

TEST(StreamingDecodeTest, AppendDecodesTransactionsAndTimestamps) {
  auto r = DecodeRequest(
      "{\"op\":\"append\",\"id\":\"ds-1\","
      "\"transactions\":[[1,2,3],[4]],\"timestamps\":[10.5,11]}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->op, ServiceRequest::Op::kAppend);
  EXPECT_EQ(r->dataset_op.id, "ds-1");
  ASSERT_EQ(r->dataset_op.transactions.size(), 2u);
  EXPECT_EQ(r->dataset_op.transactions[0], (Itemset{1, 2, 3}));
  EXPECT_EQ(r->dataset_op.transactions[1], (Itemset{4}));
  ASSERT_EQ(r->dataset_op.timestamps.size(), 2u);
  EXPECT_DOUBLE_EQ(r->dataset_op.timestamps[0], 10.5);

  // Timestamps are optional.
  auto bare = DecodeRequest(
      "{\"op\":\"append\",\"id\":\"ds-1\",\"transactions\":[[7]]}");
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->dataset_op.timestamps.empty());
}

TEST(StreamingDecodeTest, AppendErrorConvention) {
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"append\",\"transactions\":[[1]]}"),
            "op 'append': field 'id': missing or not a string");
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"append\",\"id\":\"ds-1\"}"),
            "op 'append': field 'transactions': "
            "missing or not a non-empty array");
  EXPECT_EQ(
      DecodeErrorOf(
          "{\"op\":\"append\",\"id\":\"ds-1\",\"transactions\":[]}"),
      "op 'append': field 'transactions': missing or not a non-empty array");
  EXPECT_EQ(
      DecodeErrorOf(
          "{\"op\":\"append\",\"id\":\"ds-1\",\"transactions\":[[1],[]]}"),
      "op 'append': field 'transactions[1]': not a non-empty array");
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"append\",\"id\":\"ds-1\","
                          "\"transactions\":[[1,\"x\"]]}"),
            "op 'append': field 'transactions[0]': "
            "items must be numbers >= 0");
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"append\",\"id\":\"ds-1\","
                          "\"transactions\":[[1],[2]],\"timestamps\":[1]}"),
            "op 'append': field 'timestamps': "
            "length must match 'transactions'");
}

TEST(StreamingDecodeTest, ExpireRequiresPositiveCount) {
  auto r = DecodeRequest("{\"op\":\"expire\",\"id\":\"ds-2\",\"count\":3}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->op, ServiceRequest::Op::kExpire);
  EXPECT_EQ(r->dataset_op.id, "ds-2");
  EXPECT_EQ(r->dataset_op.count, 3u);

  EXPECT_EQ(DecodeErrorOf("{\"op\":\"expire\",\"id\":\"ds-2\"}"),
            "op 'expire': field 'count': missing or not a number >= 1");
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"expire\",\"id\":\"ds-2\",\"count\":0}"),
            "op 'expire': field 'count': missing or not a number >= 1");
}

TEST(StreamingDecodeTest, WindowDecodesPolicyFields) {
  auto r = DecodeRequest(
      "{\"op\":\"window\",\"id\":\"ds-1\",\"last_n\":100,"
      "\"last_seconds\":3.5}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->op, ServiceRequest::Op::kWindow);
  EXPECT_EQ(r->dataset_op.window.last_n, 100u);
  EXPECT_DOUBLE_EQ(r->dataset_op.window.last_seconds, 3.5);

  // Zero clears a dimension; negatives are rejected.
  auto cleared = DecodeRequest(
      "{\"op\":\"window\",\"id\":\"ds-1\",\"last_n\":0}");
  ASSERT_TRUE(cleared.ok());
  EXPECT_EQ(cleared->dataset_op.window.last_n, 0u);
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"window\",\"id\":\"ds-1\","
                          "\"last_n\":-1}"),
            "op 'window': field 'last_n': not a number >= 0");
}

TEST(StreamingDecodeTest, DatasetInfoRequiresId) {
  auto r = DecodeRequest("{\"op\":\"dataset_info\",\"id\":\"ds-4\"}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->op, ServiceRequest::Op::kDatasetInfo);
  EXPECT_EQ(r->dataset_op.id, "ds-4");
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"dataset_info\"}"),
            "op 'dataset_info': field 'id': missing or not a string");
}

TEST(StreamingDecodeTest, QueryAcceptsHandleAddressing) {
  auto latest = DecodeRequest(
      "{\"op\":\"query\",\"id\":\"ds-1\",\"min_support\":2}");
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->mine.dataset_id, "ds-1");
  EXPECT_EQ(latest->mine.dataset_version, 0u);  // chain head
  EXPECT_TRUE(latest->mine.dataset_path.empty());

  auto pinned = DecodeRequest(
      "{\"op\":\"query\",\"id\":\"ds-1\",\"version\":3,\"min_support\":2}");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->mine.dataset_version, 3u);

  auto named = DecodeRequest(
      "{\"op\":\"query\",\"id\":\"ds-1\",\"version\":\"latest\","
      "\"min_support\":2}");
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(named->mine.dataset_version, 0u);
}

TEST(StreamingDecodeTest, QueryHandleAddressingErrors) {
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"query\",\"id\":\"ds-1\","
                          "\"dataset\":\"d.dat\",\"min_support\":2}"),
            "op 'query': field 'dataset': mutually exclusive with 'id'");
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"query\",\"id\":\"\","
                          "\"min_support\":2}"),
            "op 'query': field 'id': not a non-empty string");
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"query\",\"id\":\"ds-1\","
                          "\"version\":0,\"min_support\":2}"),
            "op 'query': field 'version': not a number >= 1 or 'latest'");
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"query\",\"id\":\"ds-1\","
                          "\"version\":\"newest\",\"min_support\":2}"),
            "op 'query': field 'version': not a number >= 1 or 'latest'");
}

TEST(StreamingDecodeTest, RetiredMineOpIsUnknown) {
  // The v1 "mine" op is gone: a request naming it, handle or not, is an
  // unknown op like any other.
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"mine\",\"id\":\"ds-1\","
                          "\"min_support\":2}"),
            "request: field 'op': unknown op 'mine'");
  EXPECT_EQ(DecodeErrorOf("{\"op\":\"mine\",\"dataset\":\"d.dat\","
                          "\"min_support\":2}"),
            "request: field 'op': unknown op 'mine'");
}

std::shared_ptr<const Database> TinyDb() {
  DatabaseBuilder b;
  b.AddTransaction({1, 2});
  b.AddTransaction({2, 3});
  return std::make_shared<const Database>(b.Build());
}

TEST(StreamingEncodeTest, HandleResponseGolden) {
  DatasetHandle handle;
  handle.id = "ds-1";
  handle.version = 2;
  handle.latest_version = 2;
  handle.digest = "beef";
  handle.parent_digest = "cafe";
  handle.database = TinyDb();
  EXPECT_EQ(EncodeHandleResponse(handle),
            "{\"digest\":\"beef\",\"id\":\"ds-1\",\"latest_version\":2,"
            "\"num_transactions\":2,\"ok\":true,\"parent_digest\":\"cafe\","
            "\"total_weight\":2,\"version\":2}");
}

TEST(StreamingEncodeTest, BaseVersionHandleOmitsParentDigest) {
  DatasetHandle handle;
  handle.id = "ds-1";
  handle.digest = "beef";
  handle.database = TinyDb();
  const std::string line = EncodeHandleResponse(handle);
  EXPECT_EQ(line,
            "{\"digest\":\"beef\",\"id\":\"ds-1\",\"latest_version\":1,"
            "\"num_transactions\":2,\"ok\":true,\"total_weight\":2,"
            "\"version\":1}");
  EXPECT_EQ(line.find("parent_digest"), std::string::npos);
  EXPECT_NE(line.find("\"version\":1"), std::string::npos);
}

TEST(StreamingEncodeTest, DatasetInfoResponseGolden) {
  DatasetInfo info;
  info.id = "ds-1";
  info.path = "/tmp/t10.dat";
  info.storage = "packed";
  info.live_transactions = 4;
  info.window.last_n = 6;
  info.versions.push_back({1, "cafe", 5, 0, 0});
  info.versions.push_back({2, "beef", 4, 1, 2});
  EXPECT_EQ(
      EncodeDatasetInfoResponse(info),
      "{\"id\":\"ds-1\",\"live_transactions\":4,\"ok\":true,"
      "\"path\":\"/tmp/t10.dat\",\"storage\":\"packed\",\"versions\":["
      "{\"appended_weight\":0,\"digest\":\"cafe\",\"expired_weight\":0,"
      "\"num_transactions\":5,\"version\":1},"
      "{\"appended_weight\":1,\"digest\":\"beef\",\"expired_weight\":2,"
      "\"num_transactions\":4,\"version\":2}],"
      "\"window\":{\"last_n\":6,\"last_seconds\":0}}");
}

}  // namespace
}  // namespace fpm
