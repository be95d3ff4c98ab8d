#include "fpm/service/protocol.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "fpm/service/json.h"

namespace fpm {
namespace {

TEST(DecodeRequestTest, DecodesControlOps) {
  auto ping = DecodeRequest("{\"op\":\"ping\"}");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->op, ServiceRequest::Op::kPing);

  auto metrics = DecodeRequest("{\"op\":\"metrics\"}");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->op, ServiceRequest::Op::kMetrics);

  auto shutdown = DecodeRequest("{\"op\":\"shutdown\"}");
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ(shutdown->op, ServiceRequest::Op::kShutdown);
}

TEST(DecodeRequestTest, DecodesFullMineRequest) {
  auto r = DecodeRequest(
      "{\"op\":\"query\",\"dataset\":\"/tmp/x.dat\",\"min_support\":7,"
      "\"algorithm\":\"eclat\",\"patterns\":\"none\",\"priority\":3,"
      "\"timeout_s\":1.5,\"count_only\":true}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->op, ServiceRequest::Op::kQuery);
  const MineRequest& mine = r->mine;
  EXPECT_EQ(mine.dataset_path, "/tmp/x.dat");
  EXPECT_EQ(mine.query.min_support, 7u);
  EXPECT_EQ(mine.query.task, MiningTask::kFrequent);
  EXPECT_EQ(mine.algorithm, Algorithm::kEclat);
  EXPECT_TRUE(mine.patterns.empty());
  EXPECT_EQ(mine.priority, 3);
  EXPECT_DOUBLE_EQ(mine.timeout_seconds, 1.5);
  EXPECT_TRUE(mine.count_only);
}

TEST(DecodeRequestTest, MineDefaults) {
  auto r = DecodeRequest(
      "{\"op\":\"query\",\"dataset\":\"d.dat\",\"min_support\":2}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->mine.query.task, MiningTask::kFrequent);
  EXPECT_EQ(r->mine.algorithm, Algorithm::kLcm);
  EXPECT_EQ(r->mine.patterns, PatternSet::All());
  EXPECT_EQ(r->mine.priority, 0);
  EXPECT_DOUBLE_EQ(r->mine.timeout_seconds, 0.0);
  EXPECT_FALSE(r->mine.count_only);
}

TEST(DecodeRequestTest, RejectsMalformedRequests) {
  EXPECT_FALSE(DecodeRequest("not json").ok());
  EXPECT_FALSE(DecodeRequest("[]").ok());
  EXPECT_FALSE(DecodeRequest("{\"op\":\"explode\"}").ok());
  EXPECT_FALSE(DecodeRequest("{\"op\":42}").ok());
  // query without its required fields, or with bad values.
  EXPECT_FALSE(DecodeRequest("{\"op\":\"query\"}").ok());
  EXPECT_FALSE(
      DecodeRequest("{\"op\":\"query\",\"dataset\":\"d\"}").ok());
  EXPECT_FALSE(DecodeRequest(
                   "{\"op\":\"query\",\"dataset\":\"d\",\"min_support\":0}")
                   .ok());
  EXPECT_FALSE(
      DecodeRequest("{\"op\":\"query\",\"dataset\":\"d\",\"min_support\":2,"
                    "\"algorithm\":\"nope\"}")
          .ok());
  EXPECT_FALSE(
      DecodeRequest("{\"op\":\"query\",\"dataset\":\"d\",\"min_support\":2,"
                    "\"patterns\":\"P1\"}")
          .ok());
  EXPECT_FALSE(
      DecodeRequest("{\"op\":\"query\",\"dataset\":\"d\",\"min_support\":2,"
                    "\"timeout_s\":-1}")
          .ok());
  EXPECT_FALSE(
      DecodeRequest("{\"op\":\"query\",\"dataset\":\"d\",\"min_support\":2,"
                    "\"count_only\":\"yes\"}")
          .ok());
}

TEST(DecodeRequestTest, DecodesQueryRequestWithTaskFamily) {
  auto r = DecodeRequest(
      "{\"op\":\"query\",\"dataset\":\"d.dat\",\"min_support\":3,"
      "\"task\":\"top_k\",\"k\":25}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->op, ServiceRequest::Op::kQuery);
  EXPECT_EQ(r->mine.query.task, MiningTask::kTopK);
  EXPECT_EQ(r->mine.query.k, 25u);
  EXPECT_EQ(r->mine.query.min_support, 3u);

  auto rules = DecodeRequest(
      "{\"op\":\"query\",\"dataset\":\"d.dat\",\"min_support\":3,"
      "\"task\":\"rules\",\"min_confidence\":0.7,\"min_lift\":1.1,"
      "\"max_consequent\":2}");
  ASSERT_TRUE(rules.ok()) << rules.status();
  EXPECT_EQ(rules->mine.query.task, MiningTask::kRules);
  EXPECT_DOUBLE_EQ(rules->mine.query.min_confidence, 0.7);
  EXPECT_DOUBLE_EQ(rules->mine.query.min_lift, 1.1);
  EXPECT_EQ(rules->mine.query.max_consequent, 2u);

  // Task omitted: a plain frequent query.
  auto plain = DecodeRequest(
      "{\"op\":\"query\",\"dataset\":\"d.dat\",\"min_support\":3}");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->mine.query.task, MiningTask::kFrequent);
}

TEST(DecodeRequestTest, ErrorsNameTheOpAndField) {
  EXPECT_EQ(DecodeRequest("{\"op\":\"query\",\"min_support\":2}")
                .status()
                .message(),
            "op 'query': field 'dataset': missing or not a string");
  EXPECT_EQ(DecodeRequest("{\"op\":\"query\",\"dataset\":\"d\","
                          "\"min_support\":2,\"task\":\"bogus\"}")
                .status()
                .message(),
            "op 'query': field 'task': unknown task 'bogus' "
            "(want frequent|closed|maximal|top_k|rules)");
  EXPECT_EQ(DecodeRequest("{\"op\":\"query\",\"dataset\":\"d\","
                          "\"min_support\":2,\"task\":\"top_k\"}")
                .status()
                .message(),
            "op 'query': top_k query needs k >= 1");
  EXPECT_EQ(DecodeRequest("{\"op\":\"explode\"}").status().message(),
            "request: field 'op': unknown op 'explode'");
  EXPECT_EQ(DecodeRequest("{\"op\":\"query\",\"dataset\":\"d\","
                          "\"min_support\":0}")
                .status()
                .message(),
            "op 'query': field 'min_support': missing or not a number >= 1");
}

TEST(DecodeRequestTest, BatchDecodesAndIsolatesEntryErrors) {
  auto r = DecodeRequest(
      "{\"op\":\"batch\",\"queries\":["
      "{\"dataset\":\"a.dat\",\"min_support\":2,\"task\":\"closed\"},"
      "{\"dataset\":\"b.dat\"},"
      "{\"dataset\":\"c.dat\",\"min_support\":5}]}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->op, ServiceRequest::Op::kBatch);
  ASSERT_EQ(r->batch.size(), 3u);
  // Entry 0 and 2 decode; entry 1's error names its position and field
  // and does not poison its neighbors.
  EXPECT_TRUE(r->batch[0].status.ok());
  EXPECT_EQ(r->batch[0].request.query.task, MiningTask::kClosed);
  EXPECT_FALSE(r->batch[1].status.ok());
  EXPECT_EQ(r->batch[1].status.message(),
            "op 'batch': queries[1]: field 'min_support': "
            "missing or not a number >= 1");
  EXPECT_TRUE(r->batch[2].status.ok());
  EXPECT_EQ(r->batch[2].request.query.min_support, 5u);

  // A non-object entry is also an entry-level error, not a batch error.
  auto mixed = DecodeRequest("{\"op\":\"batch\",\"queries\":[42]}");
  ASSERT_TRUE(mixed.ok());
  ASSERT_EQ(mixed->batch.size(), 1u);
  EXPECT_EQ(mixed->batch[0].status.message(),
            "op 'batch': queries[0]: not an object");
}

TEST(DecodeRequestTest, BatchRejectsMissingOrEmptyQueries) {
  EXPECT_EQ(DecodeRequest("{\"op\":\"batch\"}").status().message(),
            "op 'batch': field 'queries': missing or not an array");
  EXPECT_EQ(
      DecodeRequest("{\"op\":\"batch\",\"queries\":[]}").status().message(),
      "op 'batch': field 'queries': must not be empty");
}

TEST(EncodeTest, QueryResponseGolden) {
  MineResponse response;
  response.task = MiningTask::kClosed;
  response.num_frequent = 2;
  response.itemsets = {{{1, 2}, 4}, {{3}, 2}};
  response.cache = CacheOutcome::kCrossTask;
  response.dataset_digest = "cafe";
  response.queue_seconds = 0.5;
  response.mine_seconds = 0.25;
  response.query_id = 17;
  response.trace_id = "req-9";
  EXPECT_EQ(EncodeQueryResponse(response),
            "{\"cache\":\"cross_task\",\"digest\":\"cafe\","
            "\"itemsets\":[{\"items\":[1,2],\"support\":4},"
            "{\"items\":[3],\"support\":2}],\"mine_ms\":250,"
            "\"num_results\":2,\"ok\":true,\"query_id\":17,"
            "\"queue_ms\":500,\"task\":\"closed\","
            "\"trace_id\":\"req-9\"}");
}

TEST(EncodeTest, RulesResponseCarriesTheRuleTable) {
  MineResponse response;
  response.task = MiningTask::kRules;
  response.num_frequent = 1;
  AssociationRule rule;
  rule.antecedent = {1};
  rule.consequent = {2};
  rule.itemset_support = 4;
  rule.confidence = 0.5;
  rule.lift = 2.0;
  response.rules = {rule};
  response.dataset_digest = "d";
  EXPECT_EQ(EncodeQueryResponse(response),
            "{\"cache\":\"miss\",\"digest\":\"d\",\"mine_ms\":0,"
            "\"num_results\":1,\"ok\":true,\"query_id\":0,"
            "\"queue_ms\":0,"
            "\"rules\":[{\"antecedent\":[1],\"confidence\":0.5,"
            "\"consequent\":[2],\"lift\":2,\"support\":4}],"
            "\"task\":\"rules\"}");
}

TEST(EncodeTest, BatchLinesCarryTheQueryId) {
  MineResponse response;
  response.num_frequent = 0;
  response.query_id = 21;
  const std::string tagged = EncodeQueryResponseWithId(3, response);
  EXPECT_EQ(tagged,
            "{\"cache\":\"miss\",\"digest\":\"\",\"id\":3,\"mine_ms\":0,"
            "\"num_results\":0,\"ok\":true,\"query_id\":21,\"queue_ms\":0,"
            "\"task\":\"frequent\"}");
  auto doc = ParseJson(tagged);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()["id"].int_value(), 3);
  // Batch lines carry both ids: "id" is the entry's index within the
  // batch, "query_id" the service-wide request id.
  EXPECT_EQ(doc.value()["query_id"].int_value(), 21);
  EXPECT_TRUE(doc.value()["ok"].bool_value());

  const std::string error =
      EncodeErrorWithId(7, Status::InvalidArgument("nope"));
  EXPECT_EQ(error,
            "{\"error\":{\"code\":\"INVALID_ARGUMENT\",\"message\":\"nope\"},"
            "\"id\":7,\"ok\":false}");
  auto err = ParseJson(error);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value()["id"].int_value(), 7);
  EXPECT_FALSE(err.value()["ok"].bool_value());
}

TEST(EncodeTest, CountOnlyResponseOmitsItemsets) {
  MineResponse response;
  response.num_frequent = 9;
  const std::string line = EncodeQueryResponse(response);
  EXPECT_EQ(line.find("itemsets"), std::string::npos);
  EXPECT_NE(line.find("\"num_results\":9"), std::string::npos);
  EXPECT_NE(line.find("\"cache\":\"miss\""), std::string::npos);
}

TEST(EncodeTest, ErrorCarriesCodeAndMessage) {
  const std::string line =
      EncodeError(Status::DeadlineExceeded("mining deadline exceeded"));
  EXPECT_EQ(line,
            "{\"error\":{\"code\":\"DEADLINE_EXCEEDED\","
            "\"message\":\"mining deadline exceeded\"},\"ok\":false}");
  auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc.value()["ok"].bool_value());
  EXPECT_EQ(doc.value()["error"]["code"].string_value(), "DEADLINE_EXCEEDED");
  EXPECT_EQ(doc.value()["error"]["message"].string_value(),
            "mining deadline exceeded");
}

TEST(EncodeTest, OkIsMinimal) {
  EXPECT_EQ(EncodeOk(), "{\"ok\":true}");
}

TEST(EncodeTest, ResponsesRoundTripThroughTheParser) {
  MineResponse response;
  response.num_frequent = 1;
  response.itemsets = {{{5}, 3}};
  auto doc = ParseJson(EncodeQueryResponse(response));
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc.value()["ok"].bool_value());
  EXPECT_EQ(doc.value()["itemsets"].array_items()[0]["support"].int_value(),
            3);
}

TEST(DecodeRequestTest, DecodesStatsAndMetricsTextOps) {
  auto stats = DecodeRequest("{\"op\":\"stats\"}");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->op, ServiceRequest::Op::kStats);

  auto text = DecodeRequest("{\"op\":\"metrics_text\"}");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->op, ServiceRequest::Op::kMetricsText);
}

TEST(DecodeRequestTest, QueryAcceptsTraceId) {
  auto query = DecodeRequest(
      "{\"op\":\"query\",\"dataset\":\"d.dat\",\"min_support\":2,"
      "\"trace_id\":\"req-42\"}");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->mine.trace_id, "req-42");

  EXPECT_EQ(DecodeRequest("{\"op\":\"query\",\"dataset\":\"d.dat\","
                          "\"min_support\":2,\"trace_id\":7}")
                .status()
                .message(),
            "op 'query': field 'trace_id': not a string");
}

TEST(EncodeTest, StatsResponseGolden) {
  ServiceStats stats;
  stats.uptime_seconds = 1.5;
  stats.registry.loads = 2;
  stats.registry.hits = 3;
  stats.registry.resident_bytes = 64;
  stats.registry.mapped_bytes = 128;
  DatasetRegistryStats::Dataset row;
  row.id = "ds-1";
  row.path = "/tmp/x.dat";
  row.storage = "packed";
  row.versions = 2;
  row.live_transactions = 9;
  row.bytes = 64;
  row.mapped_bytes = 128;
  row.pinned_versions = 1;
  stats.registry.datasets.push_back(row);
  stats.cache.hits = 4;
  stats.cache.misses = 5;
  stats.scheduler.submitted = 6;
  stats.scheduler.running = 1;
  stats.scheduler.in_flight.push_back(InFlightJob{11, 0.25});
  ServiceWindowStats window;
  window.window_seconds = 10;
  window.count = 6;
  window.qps = 0.5;
  window.p50_ms = 1.5;
  window.p99_ms = 3.5;
  window.max_ms = 4.5;
  stats.windows.push_back(window);
  stats.watchdog.sweeps = 7;
  stats.watchdog.flagged = 1;
  stats.watchdog.stuck_now = 1;
  EXPECT_EQ(
      EncodeStatsResponse(stats),
      "{\"cache\":{\"cross_task_hits\":0,\"dominated_hits\":0,"
      "\"evictions\":0,\"hits\":4,\"insertions\":0,\"misses\":5,"
      "\"resident_bytes\":0,\"resident_entries\":0},\"ok\":true,"
      "\"registry\":{\"appends\":0,\"datasets\":[{\"bytes\":64,"
      "\"id\":\"ds-1\",\"live_transactions\":9,\"mapped_bytes\":128,"
      "\"path\":\"/tmp/x.dat\",\"pinned_versions\":1,"
      "\"storage\":\"packed\",\"versions\":2}],\"evictions\":0,"
      "\"hits\":3,\"loads\":2,\"mapped_bytes\":128,"
      "\"resident_bytes\":64},"
      "\"scheduler\":{\"completed\":0,\"in_flight\":[{\"age_seconds\":0.25,"
      "\"query_id\":11}],\"queue_depth\":0,\"rejected\":0,\"running\":1,"
      "\"submitted\":6},\"uptime_seconds\":1.5,"
      "\"watchdog\":{\"flagged\":1,\"stuck_now\":1,\"sweeps\":7},"
      "\"windows\":[{\"count\":6,\"max_ms\":4.5,\"p50_ms\":1.5,"
      "\"p99_ms\":3.5,\"qps\":0.5,\"window_s\":10}]}");
}

TEST(EncodeTest, MetricsTextResponseWrapsTheExposition) {
  const std::string line =
      EncodeMetricsTextResponse("# TYPE fpm_x counter\nfpm_x 1\n");
  EXPECT_EQ(line,
            "{\"ok\":true,\"text\":\"# TYPE fpm_x counter\\nfpm_x 1\\n\"}");
  auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc.value()["ok"].bool_value());
  EXPECT_EQ(doc.value()["text"].string_value(),
            "# TYPE fpm_x counter\nfpm_x 1\n");
}

TEST(DecodeRequestTest, DecodesClusterInfoOp) {
  auto bare = DecodeRequest("{\"op\":\"cluster_info\"}");
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_EQ(bare->op, ServiceRequest::Op::kClusterInfo);
  EXPECT_TRUE(bare->cluster.path.empty());

  auto with_dataset = DecodeRequest(
      "{\"op\":\"cluster_info\",\"dataset\":\"/tmp/x.dat\"}");
  ASSERT_TRUE(with_dataset.ok()) << with_dataset.status();
  EXPECT_EQ(with_dataset->cluster.path, "/tmp/x.dat");

  EXPECT_EQ(DecodeRequest("{\"op\":\"cluster_info\",\"dataset\":7}")
                .status()
                .message(),
            "op 'cluster_info': field 'dataset': not a non-empty string");
}

TEST(DecodeRequestTest, DecodesCacheProbeOp) {
  auto probe = DecodeRequest(
      "{\"op\":\"cache_probe\",\"digest\":\"abcdef0123456789\","
      "\"min_support\":4,\"task\":\"closed\",\"count_only\":true}");
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_EQ(probe->op, ServiceRequest::Op::kCacheProbe);
  EXPECT_EQ(probe->cluster.digest, "abcdef0123456789");
  EXPECT_EQ(probe->mine.query.min_support, 4u);
  EXPECT_EQ(probe->mine.query.task, MiningTask::kClosed);
  EXPECT_TRUE(probe->mine.count_only);
  // The probe body carries no dataset — the digest IS the address.
  EXPECT_TRUE(probe->mine.dataset_path.empty());

  EXPECT_EQ(DecodeRequest("{\"op\":\"cache_probe\",\"min_support\":2}")
                .status()
                .message(),
            "op 'cache_probe': field 'digest': missing or not a string");
}

TEST(DecodeRequestTest, DecodesShardQueryModes) {
  auto execute = DecodeRequest(
      "{\"op\":\"shard_query\",\"mode\":\"execute\","
      "\"dataset\":\"/tmp/x.dat\",\"min_support\":3}");
  ASSERT_TRUE(execute.ok()) << execute.status();
  EXPECT_EQ(execute->op, ServiceRequest::Op::kShardQuery);
  EXPECT_EQ(execute->cluster.shard_mode,
            ClusterOpRequest::ShardMode::kExecute);

  auto mine = DecodeRequest(
      "{\"op\":\"shard_query\",\"mode\":\"mine\","
      "\"dataset\":\"/tmp/x.dat\",\"min_support\":3,"
      "\"partition\":{\"index\":1,\"count\":4}}");
  ASSERT_TRUE(mine.ok()) << mine.status();
  EXPECT_EQ(mine->cluster.shard_mode, ClusterOpRequest::ShardMode::kMine);
  EXPECT_EQ(mine->cluster.partition_index, 1u);
  EXPECT_EQ(mine->cluster.partition_count, 4u);

  auto count = DecodeRequest(
      "{\"op\":\"shard_query\",\"mode\":\"count\","
      "\"dataset\":\"/tmp/x.dat\",\"min_support\":3,"
      "\"partition\":{\"index\":0,\"count\":2},"
      "\"candidates\":[[1,2],[7]]}");
  ASSERT_TRUE(count.ok()) << count.status();
  ASSERT_EQ(count->cluster.candidates.size(), 2u);
  EXPECT_EQ(count->cluster.candidates[0], (Itemset{1, 2}));
  EXPECT_EQ(count->cluster.candidates[1], (Itemset{7}));
}

TEST(DecodeRequestTest, ShardQueryErrorsNameTheField) {
  EXPECT_EQ(DecodeRequest("{\"op\":\"shard_query\",\"mode\":\"explode\","
                          "\"dataset\":\"d\",\"min_support\":1}")
                .status()
                .message(),
            "op 'shard_query': field 'mode': expected 'execute', 'mine' or "
            "'count'");
  EXPECT_EQ(DecodeRequest("{\"op\":\"shard_query\",\"mode\":\"mine\","
                          "\"dataset\":\"d\",\"min_support\":1}")
                .status()
                .message(),
            "op 'shard_query': field 'partition': missing or not an object");
  EXPECT_EQ(DecodeRequest("{\"op\":\"shard_query\",\"mode\":\"mine\","
                          "\"dataset\":\"d\",\"min_support\":1,"
                          "\"partition\":{\"index\":2,\"count\":2}}")
                .status()
                .message(),
            "op 'shard_query': field 'partition.index': must be < "
            "partition.count");
  EXPECT_EQ(DecodeRequest("{\"op\":\"shard_query\",\"mode\":\"count\","
                          "\"dataset\":\"d\",\"min_support\":1,"
                          "\"partition\":{\"index\":0,\"count\":2}}")
                .status()
                .message(),
            "op 'shard_query': field 'candidates': missing or not an array");
  EXPECT_EQ(DecodeRequest("{\"op\":\"shard_query\",\"mode\":\"count\","
                          "\"dataset\":\"d\",\"min_support\":1,"
                          "\"partition\":{\"index\":0,\"count\":2},"
                          "\"candidates\":[[]]}")
                .status()
                .message(),
            "op 'shard_query': field 'candidates[0]': not a non-empty array");
}

TEST(DecodeRequestTest, WireItemsMustBeIntegersBelowTheSentinel) {
  // 2^32 used to wrap to item 0 and 1.5 to truncate to item 1; the
  // sentinel kInvalidItem itself is not an item either.
  const std::string count_prefix =
      "{\"op\":\"shard_query\",\"mode\":\"count\",\"dataset\":\"d\","
      "\"min_support\":1,\"partition\":{\"index\":0,\"count\":1},"
      "\"candidates\":[[0],";
  for (const char* bad : {"4294967296", "4294967295", "1.5", "-1", "1e300"}) {
    EXPECT_EQ(DecodeRequest(count_prefix + "[" + bad + "]]}").status().message(),
              "op 'shard_query': field 'candidates[1]': items must be "
              "numbers >= 0")
        << bad;
  }
  auto top = DecodeRequest(count_prefix + "[4294967294,2.0]]}");
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_EQ(top->cluster.candidates[1], (Itemset{4294967294u, 2}));

  const std::string append_prefix =
      "{\"op\":\"append\",\"id\":\"ds-1\",\"transactions\":[[";
  for (const char* bad : {"4294967296", "4294967295", "0.5"}) {
    EXPECT_EQ(DecodeRequest(append_prefix + bad + "]]}").status().message(),
              "op 'append': field 'transactions[0]': items must be "
              "numbers >= 0")
        << bad;
  }
}

TEST(ClusterWireTest, PeerDecodersRejectOutOfRangeItems) {
  for (const char* bad : {"-1", "1.5", "4294967296", "4294967295"}) {
    const std::string item = bad;
    EXPECT_EQ(DecodeShardMineResponse(
                  "{\"ok\":true,\"candidates\":[{\"items\":[" + item +
                  "],\"support\":2}]}")
                  .status()
                  .message(),
              "peer response: non-numeric item in 'candidates'")
        << bad;
    EXPECT_EQ(DecodeQueryResponse("{\"ok\":true,\"itemsets\":[{\"items\":[" +
                                  item + "],\"support\":2}]}")
                  .status()
                  .message(),
              "peer response: non-numeric item in 'itemsets'")
        << bad;
    const std::string rule_tail =
        ",\"support\":2,\"confidence\":0.5,\"lift\":1.0}]}";
    EXPECT_EQ(DecodeQueryResponse("{\"ok\":true,\"rules\":[{\"antecedent\":[" +
                                  item + "],\"consequent\":[1]" + rule_tail)
                  .status()
                  .message(),
              "peer response: non-numeric item in 'rules'")
        << bad;
    EXPECT_EQ(DecodeQueryResponse("{\"ok\":true,\"rules\":[{\"antecedent\":[1]"
                                  ",\"consequent\":[" + item + "]" + rule_tail)
                  .status()
                  .message(),
              "peer response: non-numeric item in 'rules'")
        << bad;
  }
}

// One wire number that no integer field may take, and the error its
// decoder must give. `decode` returns the decode status's message.
struct OutOfRangeCase {
  const char* name;
  std::string (*decode)(const std::string& line);
  std::string line;
  std::string message;
};

void PrintTo(const OutOfRangeCase& c, std::ostream* os) { *os << c.name; }

std::string RequestError(const std::string& line) {
  return DecodeRequest(line).status().message();
}
std::string QueryReplyError(const std::string& line) {
  return DecodeQueryResponse(line).status().message();
}
std::string ShardMineReplyError(const std::string& line) {
  return DecodeShardMineResponse(line).status().message();
}
std::string ShardCountReplyError(const std::string& line) {
  return DecodeShardCountResponse(line).status().message();
}

class OutOfRangeIntegerTest : public testing::TestWithParam<OutOfRangeCase> {
};

// Each number used to be cast to the field's type: 4294967297 became
// min_support 1, 1e12 a priority of INT_MIN, 1e10 seconds a deadline
// already passed. Now each is rejected with the field's own message.
TEST_P(OutOfRangeIntegerTest, IsRejectedWithTheFieldsMessage) {
  const OutOfRangeCase& c = GetParam();
  EXPECT_EQ(c.decode(c.line), c.message) << c.line;
}

const std::string kQuery = "{\"op\":\"query\",\"dataset\":\"d\",";
const std::string kShardMine =
    "{\"op\":\"shard_query\",\"mode\":\"mine\",\"dataset\":\"d\","
    "\"min_support\":1,";

INSTANTIATE_TEST_SUITE_P(
    Wire, OutOfRangeIntegerTest,
    testing::Values(
        OutOfRangeCase{"min_support", RequestError,
                       kQuery + "\"min_support\":4294967297}",
                       "op 'query': field 'min_support': missing or not a "
                       "number >= 1"},
        OutOfRangeCase{"k", RequestError,
                       kQuery + "\"min_support\":1,\"k\":1e20}",
                       "op 'query': field 'k': not a number >= 1"},
        OutOfRangeCase{"max_consequent", RequestError,
                       kQuery + "\"min_support\":1,"
                                "\"max_consequent\":4294967296}",
                       "op 'query': field 'max_consequent': not a number "
                       ">= 1"},
        OutOfRangeCase{"priority", RequestError,
                       kQuery + "\"min_support\":1,\"priority\":1e12}",
                       "op 'query': field 'priority': not a number"},
        OutOfRangeCase{"timeout_s", RequestError,
                       kQuery + "\"min_support\":1,\"timeout_s\":1e10}",
                       "op 'query': field 'timeout_s': not a number in "
                       "[0, 31536000]"},
        OutOfRangeCase{"version", RequestError,
                       "{\"op\":\"query\",\"id\":\"ds-1\",\"version\":1e20,"
                       "\"min_support\":1}",
                       "op 'query': field 'version': not a number >= 1 or "
                       "'latest'"},
        OutOfRangeCase{"count", RequestError,
                       "{\"op\":\"expire\",\"id\":\"ds-1\",\"count\":1e30}",
                       "op 'expire': field 'count': missing or not a "
                       "number >= 1"},
        OutOfRangeCase{"last_n", RequestError,
                       "{\"op\":\"window\",\"id\":\"ds-1\",\"last_n\":1e20}",
                       "op 'window': field 'last_n': not a number >= 0"},
        OutOfRangeCase{"partition_index", RequestError,
                       kShardMine + "\"partition\":{\"index\":4294967296,"
                                    "\"count\":4294967297}}",
                       "op 'shard_query': field 'partition.index': missing "
                       "or not a number >= 0"},
        OutOfRangeCase{"partition_count", RequestError,
                       kShardMine + "\"partition\":{\"index\":0,"
                                    "\"count\":4294967297}}",
                       "op 'shard_query': field 'partition.count': missing "
                       "or not a number >= 1"},
        OutOfRangeCase{"itemset_support", QueryReplyError,
                       "{\"ok\":true,\"itemsets\":[{\"items\":[1],"
                       "\"support\":4294967296}]}",
                       "peer response: malformed 'itemsets' entry"},
        OutOfRangeCase{"candidate_support", ShardMineReplyError,
                       "{\"ok\":true,\"candidates\":[{\"items\":[1],"
                       "\"support\":-1}]}",
                       "peer response: malformed 'candidates' entry"},
        OutOfRangeCase{"rule_support", QueryReplyError,
                       "{\"ok\":true,\"rules\":[{\"antecedent\":[1],"
                       "\"consequent\":[2],\"support\":1e10,"
                       "\"confidence\":0.5,\"lift\":1}]}",
                       "peer response: malformed 'rules' entry"},
        OutOfRangeCase{"counts", ShardCountReplyError,
                       "{\"ok\":true,\"counts\":[2,4294967296]}",
                       "peer response: 'counts' entries must be numbers "
                       ">= 0"},
        OutOfRangeCase{"query_id", QueryReplyError,
                       "{\"ok\":true,\"query_id\":-5}",
                       "peer response: 'query_id' is not a number >= 0"},
        OutOfRangeCase{"shards", QueryReplyError,
                       "{\"ok\":true,\"shards\":4294967296}",
                       "peer response: 'shards' is not a number >= 0"},
        OutOfRangeCase{"num_results", QueryReplyError,
                       "{\"ok\":true,\"num_results\":1e20}",
                       "peer response: 'num_results' is not a number >= "
                       "0"}),
    [](const testing::TestParamInfo<OutOfRangeCase>& info) {
      return std::string(info.param.name);
    });

TEST(DecodeRequestTest, IntegerFieldsKeepTheirWholeRange) {
  // The top of each range still decodes exactly: UINT32_MAX, INT_MIN,
  // the timeout bound, and 2^53 for the 64-bit version (doubles skip
  // integers above it).
  auto r = DecodeRequest(
      "{\"op\":\"query\",\"id\":\"ds-1\",\"version\":9007199254740992,"
      "\"min_support\":4294967295,\"priority\":-2147483648,"
      "\"timeout_s\":31536000}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->mine.dataset_version, 9007199254740992u);
  EXPECT_EQ(r->mine.query.min_support, 4294967295u);
  EXPECT_EQ(r->mine.priority, -2147483648LL);
  EXPECT_DOUBLE_EQ(r->mine.timeout_seconds, 31536000.0);
}

TEST(DecodeRequestTest, QueryDecodesScatterFlag) {
  auto query = DecodeRequest(
      "{\"op\":\"query\",\"dataset\":\"d.dat\",\"min_support\":2,"
      "\"scatter\":true}");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_TRUE(query->mine.scatter);

  EXPECT_EQ(DecodeRequest("{\"op\":\"query\",\"dataset\":\"d.dat\","
                          "\"min_support\":2,\"scatter\":1}")
                .status()
                .message(),
            "op 'query': field 'scatter': not a bool");
}

TEST(ClusterWireTest, CacheProbeRequestRoundTrips) {
  MineRequest request;
  request.query.min_support = 5;
  request.query.task = MiningTask::kTopK;
  request.query.k = 3;
  request.algorithm = Algorithm::kEclat;
  request.trace_id = "qid-7@n1:7100";
  const std::string line =
      EncodeCacheProbeRequest("abcdef0123456789", request);
  EXPECT_EQ(line,
            "{\"algorithm\":\"eclat\",\"digest\":\"abcdef0123456789\","
            "\"k\":3,\"min_support\":5,\"op\":\"cache_probe\","
            "\"patterns\":\"none\",\"task\":\"top_k\","
            "\"trace_id\":\"qid-7@n1:7100\"}");
  auto decoded = DecodeRequest(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->op, ServiceRequest::Op::kCacheProbe);
  EXPECT_EQ(decoded->cluster.digest, "abcdef0123456789");
  EXPECT_EQ(decoded->mine.query.min_support, 5u);
  EXPECT_EQ(decoded->mine.query.task, MiningTask::kTopK);
  EXPECT_EQ(decoded->mine.query.k, 3u);
  EXPECT_EQ(decoded->mine.algorithm, Algorithm::kEclat);
  EXPECT_EQ(decoded->mine.trace_id, "qid-7@n1:7100");

  // A rules query carries the rule thresholds and no "k"; the optional
  // body fields take their sorted slots.
  MineRequest rules;
  rules.query.min_support = 2;
  rules.query.task = MiningTask::kRules;
  rules.query.min_confidence = 0.6;
  rules.query.min_lift = 1.5;
  rules.query.max_consequent = 2;
  rules.priority = 3;
  rules.timeout_seconds = 2.5;
  rules.count_only = true;
  rules.patterns = PatternSet::All();
  EXPECT_EQ(EncodeCacheProbeRequest("abcdef0123456789", rules),
            "{\"algorithm\":\"lcm\",\"count_only\":true,"
            "\"digest\":\"abcdef0123456789\",\"max_consequent\":2,"
            "\"min_confidence\":0.6,\"min_lift\":1.5,\"min_support\":2,"
            "\"op\":\"cache_probe\",\"patterns\":\"all\",\"priority\":3,"
            "\"task\":\"rules\",\"timeout_s\":2.5}");
}

TEST(ClusterWireTest, CacheProbeResponsesRoundTrip) {
  EXPECT_EQ(EncodeCacheProbeResponse(false, {}),
            "{\"hit\":false,\"ok\":true}");
  auto miss = DecodeCacheProbeResponse(EncodeCacheProbeResponse(false, {}));
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->hit);

  MineResponse response;
  response.task = MiningTask::kFrequent;
  response.num_frequent = 2;
  response.itemsets = {{{1, 2}, 4}, {{3}, 6}};
  response.cache = CacheOutcome::kExact;
  response.dataset_digest = "abcdef0123456789";
  EXPECT_EQ(EncodeCacheProbeResponse(true, response),
            "{\"cache\":\"hit\",\"digest\":\"abcdef0123456789\",\"hit\":true,"
            "\"itemsets\":[{\"items\":[1,2],\"support\":4},"
            "{\"items\":[3],\"support\":6}],\"mine_ms\":0,"
            "\"num_results\":2,\"ok\":true,\"query_id\":0,\"queue_ms\":0,"
            "\"task\":\"frequent\"}");
  auto hit = DecodeCacheProbeResponse(EncodeCacheProbeResponse(true, response));
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->hit);
  EXPECT_EQ(hit->response.num_frequent, 2u);
  EXPECT_EQ(hit->response.itemsets, response.itemsets);
  EXPECT_EQ(hit->response.cache, CacheOutcome::kExact);
  EXPECT_EQ(hit->response.dataset_digest, "abcdef0123456789");
}

TEST(ClusterWireTest, ShardQueryRequestRoundTrips) {
  MineRequest request;
  request.dataset_path = "/data/retail.fpk";
  request.query.min_support = 9;
  const std::string line = EncodeShardQueryRequest(
      request, ClusterOpRequest::ShardMode::kCount, 2, 5, {{4, 1}, {2}});
  EXPECT_EQ(line,
            "{\"algorithm\":\"lcm\",\"candidates\":[[4,1],[2]],"
            "\"dataset\":\"/data/retail.fpk\",\"min_support\":9,"
            "\"mode\":\"count\",\"op\":\"shard_query\","
            "\"partition\":{\"count\":5,\"index\":2},\"patterns\":\"none\","
            "\"task\":\"frequent\"}");
  auto decoded = DecodeRequest(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->cluster.shard_mode, ClusterOpRequest::ShardMode::kCount);
  EXPECT_EQ(decoded->cluster.partition_index, 2u);
  EXPECT_EQ(decoded->cluster.partition_count, 5u);
  EXPECT_EQ(decoded->mine.dataset_path, "/data/retail.fpk");
  ASSERT_EQ(decoded->cluster.candidates.size(), 2u);
  EXPECT_EQ(decoded->cluster.candidates[0], (Itemset{4, 1}));

  // Mode "mine" carries the partition but no candidates.
  const std::string mine = EncodeShardQueryRequest(
      request, ClusterOpRequest::ShardMode::kMine, 0, 2, {});
  EXPECT_EQ(mine,
            "{\"algorithm\":\"lcm\",\"dataset\":\"/data/retail.fpk\","
            "\"min_support\":9,\"mode\":\"mine\",\"op\":\"shard_query\","
            "\"partition\":{\"count\":2,\"index\":0},\"patterns\":\"none\","
            "\"task\":\"frequent\"}");

  // Mode "execute" carries neither; a handle-addressed query sends its
  // "id" and "version" instead of a dataset path.
  MineRequest by_id;
  by_id.dataset_id = "ds-2";
  by_id.dataset_version = 3;
  by_id.query.min_support = 4;
  by_id.query.task = MiningTask::kClosed;
  by_id.priority = -1;
  by_id.trace_id = "t-1";
  const std::string execute = EncodeShardQueryRequest(
      by_id, ClusterOpRequest::ShardMode::kExecute, 0, 1, {});
  EXPECT_EQ(execute,
            "{\"algorithm\":\"lcm\",\"id\":\"ds-2\",\"min_support\":4,"
            "\"mode\":\"execute\",\"op\":\"shard_query\","
            "\"patterns\":\"none\",\"priority\":-1,\"task\":\"closed\","
            "\"trace_id\":\"t-1\",\"version\":3}");
}

TEST(ClusterWireTest, ShardPhaseResponsesRoundTrip) {
  const std::vector<CollectingSink::Entry> entries = {{{1, 2}, 3}, {{5}, 7}};
  EXPECT_EQ(EncodeShardMineResponse(entries),
            "{\"candidates\":[{\"items\":[1,2],\"support\":3},"
            "{\"items\":[5],\"support\":7}],\"ok\":true,\"phase\":\"mine\"}");
  auto mined = DecodeShardMineResponse(EncodeShardMineResponse(entries));
  ASSERT_TRUE(mined.ok()) << mined.status();
  EXPECT_EQ(mined.value(), entries);

  const std::vector<Support> counts = {0, 4, 9};
  EXPECT_EQ(EncodeShardCountResponse(counts),
            "{\"counts\":[0,4,9],\"ok\":true,\"phase\":\"count\"}");
  auto counted = DecodeShardCountResponse(EncodeShardCountResponse(counts));
  ASSERT_TRUE(counted.ok()) << counted.status();
  EXPECT_EQ(counted.value(), counts);
}

TEST(ClusterWireTest, QueryResponseCarriesPeerAndShards) {
  MineResponse response;
  response.num_frequent = 1;
  response.itemsets = {{{2}, 8}};
  response.served_by = "n2:7100";
  response.shard_count = 3;
  EXPECT_EQ(EncodeQueryResponse(response),
            "{\"cache\":\"miss\",\"digest\":\"\","
            "\"itemsets\":[{\"items\":[2],\"support\":8}],\"mine_ms\":0,"
            "\"num_results\":1,\"ok\":true,\"peer\":\"n2:7100\","
            "\"query_id\":0,\"queue_ms\":0,\"shards\":3,"
            "\"task\":\"frequent\"}");
  auto decoded = DecodeQueryResponse(EncodeQueryResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->served_by, "n2:7100");
  EXPECT_EQ(decoded->shard_count, 3u);
  EXPECT_EQ(decoded->itemsets, response.itemsets);

  // Non-cluster responses carry neither key.
  MineResponse plain;
  plain.num_frequent = 0;
  const std::string line = EncodeQueryResponse(plain);
  EXPECT_EQ(line.find("\"peer\""), std::string::npos);
  EXPECT_EQ(line.find("\"shards\""), std::string::npos);
}

TEST(ClusterWireTest, QueryResponseDecodeSurfacesPeerErrors) {
  auto decoded = DecodeQueryResponse(EncodeError(Status::NotFound("nope")));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.status().message(), "nope");
}

TEST(EncodeTest, StatsResponseEmbedsClusterSection) {
  ServiceStats stats;
  stats.uptime_seconds = 1.0;
  const std::string line =
      EncodeStatsResponse(stats, "{\"enabled\":true,\"self\":\"n1:7100\"}");
  // The section lands in its sorted slot, between "cache" and "ok".
  EXPECT_EQ(line,
            "{\"cache\":{\"cross_task_hits\":0,\"dominated_hits\":0,"
            "\"evictions\":0,\"hits\":0,\"insertions\":0,\"misses\":0,"
            "\"resident_bytes\":0,\"resident_entries\":0},"
            "\"cluster\":{\"enabled\":true,\"self\":\"n1:7100\"},\"ok\":true,"
            "\"registry\":{\"appends\":0,\"datasets\":[],\"evictions\":0,"
            "\"hits\":0,\"loads\":0,\"mapped_bytes\":0,\"resident_bytes\":0},"
            "\"scheduler\":{\"completed\":0,\"in_flight\":[],\"queue_depth\":0,"
            "\"rejected\":0,\"running\":0,\"submitted\":0},"
            "\"uptime_seconds\":1,"
            "\"watchdog\":{\"flagged\":0,\"stuck_now\":0,\"sweeps\":0},"
            "\"windows\":[]}");
  auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc.value()["cluster"]["enabled"].bool_value());
  EXPECT_EQ(doc.value()["cluster"]["self"].string_value(), "n1:7100");
  // An empty section leaves the key out: the plain encoding.
  EXPECT_EQ(EncodeStatsResponse(stats, ""), EncodeStatsResponse(stats));
}

TEST(EncodeTest, RegistryRowCarriesDigestWhenKnown) {
  ServiceStats stats;
  DatasetRegistryStats::Dataset row;
  row.id = "ds-1";
  row.path = "/tmp/x.dat";
  row.storage = "fimi";
  row.digest = "abcdef0123456789";
  stats.registry.datasets.push_back(row);
  auto doc = ParseJson(EncodeStatsResponse(stats));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()["registry"]["datasets"].array_items()[0]["digest"]
                .string_value(),
            "abcdef0123456789");
}

}  // namespace
}  // namespace fpm
