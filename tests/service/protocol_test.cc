#include "fpm/service/protocol.h"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "fpm/common/rng.h"
#include "fpm/service/json.h"
#include "testing/listing_testutil.h"

namespace fpm {
namespace {

constexpr uint64_t kMax32Support = std::numeric_limits<Support>::max();

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
  response.listing = testutil::Listing({{{1, 2}, 4}, {{3}, 2}});
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

// The line EncodeQueryResponse writes for an exact hit on `itemsets`,
// with the array in the JsonWriter oracle's form.
std::string OracleHitLine(const std::vector<CollectingSink::Entry>& itemsets) {
  std::string line = "{\"cache\":\"hit\",\"digest\":\"d\",";
  if (!itemsets.empty()) {
    line += "\"itemsets\":" + testutil::ItemsetsJson(itemsets) + ",";
  }
  line += "\"mine_ms\":0,\"num_results\":";
  line += std::to_string(itemsets.size());
  line += ",\"ok\":true,\"query_id\":0,\"queue_ms\":0,\"task\":\"frequent\"}";
  return line;
}

// The one-pass itemsets encoder writes what JsonWriter writes, byte for
// byte: random listings whose numbers straddle every digit count, the
// item and support limits, single-item and long itemsets, and none.
TEST(EncodeTest, ItemsetsMatchTheWriterOracle) {
  const Item kItems[] = {0, 9, 10, 99, 100, 65535, 4294967294u};
  const Support kSupports[] = {1, 9, 10, 1000000, 4294967295u};
  Rng rng(0x17e5e75);
  // Half the numbers from the edge lists, half anywhere in range.
  const auto item = [&] {
    const uint64_t pick = rng.NextBounded(2 * std::size(kItems));
    if (pick < std::size(kItems)) return kItems[pick];
    return static_cast<Item>(rng.NextBounded(kInvalidItem));
  };
  const auto support = [&] {
    const uint64_t pick = rng.NextBounded(2 * std::size(kSupports));
    if (pick < std::size(kSupports)) return kSupports[pick];
    return static_cast<Support>(1 + rng.NextBounded(kMax32Support));
  };
  std::vector<std::vector<CollectingSink::Entry>> listings = {
      {},
      {{{4294967294u}, 4294967295u}},
      {{{0}, 1}, {{9, 10}, 9}, {{0, 9, 10, 4294967294u}, 10}},
  };
  for (int i = 0; i < 200; ++i) {
    std::vector<CollectingSink::Entry>& itemsets = listings.emplace_back();
    itemsets.resize(rng.NextBounded(40));
    for (CollectingSink::Entry& entry : itemsets) {
      // Mostly short itemsets, one in four up to 64 items long.
      const bool is_long = rng.NextBounded(4) == 0;
      entry.first.resize(1 + rng.NextBounded(is_long ? 64 : 4));
      for (Item& it : entry.first) it = item();
      entry.second = support();
    }
  }
  for (size_t i = 0; i < listings.size(); ++i) {
    MineResponse response;
    response.cache = CacheOutcome::kExact;
    response.dataset_digest = "d";
    response.num_frequent = listings[i].size();
    response.listing = testutil::Listing(listings[i]);
    ASSERT_EQ(EncodeQueryResponse(response), OracleHitLine(listings[i]))
        << "listing " << i;
  }
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
  response.listing = testutil::RuleListing({rule});
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
  response.listing = testutil::Listing({{{5}, 3}});
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

// A raw control byte inside a string is not JSON: the request is
// refused before any field is read, and nothing of it is echoed.
TEST(DecodeRequestTest, RawControlByteInAStringIsRefused) {
  const Result<ServiceRequest> request = DecodeRequest(
      "{\"op\":\"query\",\"dataset\":\"d.dat\",\"min_support\":2,"
      "\"trace_id\":\"a\x01\tb\"}");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(request.status().message(),
            "JSON parse error at offset 61: raw control byte in string");
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
  stats.refused_connections = 2;
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
      "\"submitted\":6},\"server\":{\"refused_connections\":2},"
      "\"uptime_seconds\":1.5,"
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

// fpm_client's unwrap: the text back, byte for byte, through every
// escape the writer uses; an error envelope is its status.
TEST(EncodeTest, MetricsTextResponseUnwrapsTheExposition) {
  const std::string text = std::string("q\"\\ \n\r\t\x01\x1f \xc3\xa9 ") +
                           std::string(1, '\0') + "end\n";
  const Result<std::string> unwrapped =
      DecodeMetricsTextResponse(EncodeMetricsTextResponse(text));
  ASSERT_TRUE(unwrapped.ok()) << unwrapped.status();
  EXPECT_EQ(unwrapped.value(), text);

  EXPECT_EQ(DecodeMetricsTextResponse(EncodeError(Status::Unavailable("busy")))
                .status(),
            Status::Unavailable("busy"));
  for (const std::string& line :
       {EncodeOk(), std::string("{\"ok\":true,\"text\":\"a\",\"x\":1}"),
        std::string("{\"ok\":true, \"text\":\"a\"}")}) {
    const Status refused = DecodeMetricsTextResponse(line).status();
    EXPECT_EQ(refused.code(), StatusCode::kInternal) << line;
    EXPECT_EQ(refused.message().rfind("peer response: ", 0), 0u) << line;
  }
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
  EXPECT_EQ(execute->mine.dataset_path, "/tmp/x.dat");
  EXPECT_EQ(execute->mine.query.min_support, 3u);

  // "execute" is the one mode: the SON phase modes are refused, with or
  // without a partition and candidates.
  for (const char* line :
       {"{\"op\":\"shard_query\",\"mode\":\"mine\","
        "\"dataset\":\"/tmp/x.dat\",\"min_support\":3,"
        "\"partition\":{\"index\":1,\"count\":4}}",
        "{\"op\":\"shard_query\",\"mode\":\"count\","
        "\"dataset\":\"/tmp/x.dat\",\"min_support\":3,"
        "\"partition\":{\"index\":0,\"count\":2},"
        "\"candidates\":[[1,2],[7]]}",
        "{\"op\":\"shard_query\",\"mode\":\"count\","
        "\"dataset\":\"/tmp/x.dat\",\"min_support\":3}"}) {
    const Status status = DecodeRequest(line).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(status.message(),
              "op 'shard_query': field 'mode': expected 'execute'")
        << line;
  }
}

TEST(DecodeRequestTest, ShardQueryErrorsNameTheField) {
  EXPECT_EQ(DecodeRequest("{\"op\":\"shard_query\",\"mode\":\"explode\","
                          "\"dataset\":\"d\",\"min_support\":1}")
                .status()
                .message(),
            "op 'shard_query': field 'mode': expected 'execute'");
  EXPECT_EQ(DecodeRequest("{\"op\":\"shard_query\",\"dataset\":\"d\","
                          "\"min_support\":1}")
                .status()
                .message(),
            "op 'shard_query': field 'mode': missing or not a string");
  EXPECT_EQ(DecodeRequest("{\"op\":\"shard_query\",\"mode\":\"execute\","
                          "\"dataset\":\"d\"}")
                .status()
                .message(),
            "op 'shard_query': field 'min_support': missing or not a "
            "number >= 1");
}

TEST(DecodeRequestTest, WireItemsMustBeIntegersBelowTheSentinel) {
  // 2^32 used to wrap to item 0 and 1.5 to truncate to item 1; the
  // sentinel kInvalidItem itself is not an item either.
  const std::string append_prefix =
      "{\"op\":\"append\",\"id\":\"ds-1\",\"transactions\":[[0],";
  for (const char* bad :
       {"4294967296", "4294967295", "1.5", "0.5", "-1", "1e300"}) {
    EXPECT_EQ(
        DecodeRequest(append_prefix + "[" + bad + "]]}").status().message(),
        "op 'append': field 'transactions[1]': items must be numbers >= 0")
        << bad;
  }
  auto top = DecodeRequest(append_prefix + "[4294967294,2.0]]}");
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_EQ(top->dataset_op.transactions[1], (Itemset{4294967294u, 2}));
}

// What an owner writes for a one-itemset miss and for a one-rule miss:
// writer-canonical replies the tests below corrupt one value at a time.
const std::string kItemsetAnswer =
    "{\"cache\":\"miss\",\"digest\":\"d\","
    "\"itemsets\":[{\"items\":[1],\"support\":2}],\"mine_ms\":0,"
    "\"num_results\":1,\"ok\":true,\"query_id\":0,\"queue_ms\":0,"
    "\"task\":\"frequent\"}";
const std::string kRuleAnswer =
    "{\"cache\":\"miss\",\"digest\":\"d\",\"mine_ms\":0,"
    "\"num_results\":1,\"ok\":true,\"query_id\":0,\"queue_ms\":0,"
    "\"rules\":[{\"antecedent\":[1],\"confidence\":0.5,"
    "\"consequent\":[2],\"lift\":1,\"support\":2}],\"task\":\"rules\"}";

// `line` with its first `from` replaced by `to`; empty (a reply every
// reader refuses) when `line` does not hold `from`.
std::string Replace(std::string line, const std::string& from,
                    const std::string& to) {
  const size_t at = line.find(from);
  if (at == std::string::npos) return "";
  return line.replace(at, from.size(), to);
}

// The relay's verdict on a forwarded reply.
Status RelayStatus(const std::string& reply) {
  return RelayQueryResponse(reply, /*probe=*/false,
                            RelayEnvelope{"n2:7100", 7, ""})
      .status();
}

TEST(ClusterWireTest, PeerDecodersRejectOutOfRangeItems) {
  ASSERT_TRUE(RelayStatus(kItemsetAnswer).ok());
  ASSERT_TRUE(RelayStatus(kRuleAnswer).ok());
  for (const char* bad : {"-1", "1.5", "4294967296", "4294967295"}) {
    const std::string item = bad;
    EXPECT_EQ(RelayStatus(Replace(kItemsetAnswer, "\"items\":[1]",
                                  "\"items\":[" + item + "]"))
                  .message(),
              "peer response: non-numeric item in 'itemsets'")
        << bad;
    EXPECT_EQ(RelayStatus(Replace(kRuleAnswer, "\"antecedent\":[1]",
                                  "\"antecedent\":[" + item + "]"))
                  .message(),
              "peer response: non-numeric item in 'rules'")
        << bad;
    EXPECT_EQ(RelayStatus(Replace(kRuleAnswer, "\"consequent\":[2]",
                                  "\"consequent\":[" + item + "]"))
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
  return RelayStatus(line).message();
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
        OutOfRangeCase{"itemset_support", QueryReplyError,
                       Replace(kItemsetAnswer, "\"support\":2",
                               "\"support\":4294967296"),
                       "peer response: malformed 'itemsets' entry"},
        OutOfRangeCase{"negative_support", QueryReplyError,
                       Replace(kItemsetAnswer, "\"support\":2",
                               "\"support\":-1"),
                       "peer response: malformed 'itemsets' entry"},
        OutOfRangeCase{"rule_support", QueryReplyError,
                       Replace(kRuleAnswer, "\"support\":2",
                               "\"support\":10000000000"),
                       "peer response: malformed 'rules' entry"},
        OutOfRangeCase{"query_id", QueryReplyError,
                       Replace(kItemsetAnswer, "\"query_id\":0",
                               "\"query_id\":-5"),
                       "peer response: 'query_id' is not a number >= 0"},
        OutOfRangeCase{"num_results", QueryReplyError,
                       Replace(kItemsetAnswer, "\"num_results\":1",
                               "\"num_results\":100000000000000000000"),
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

// "scatter" is no member of a query: ignored, like any unknown one.
TEST(DecodeRequestTest, QueryIgnoresAScatterMember) {
  for (const char* scatter : {"true", "1"}) {
    auto query = DecodeRequest(
        std::string("{\"op\":\"query\",\"dataset\":\"d.dat\","
                    "\"min_support\":2,\"scatter\":") +
        scatter + "}");
    ASSERT_TRUE(query.ok()) << query.status();
    EXPECT_EQ(query->op, ServiceRequest::Op::kQuery);
    EXPECT_EQ(query->mine.dataset_path, "d.dat");
    EXPECT_EQ(query->mine.query.min_support, 2u);
  }
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
  const RelayEnvelope envelope{"n2:7100", 9, ""};
  EXPECT_EQ(EncodeCacheProbeResponse(false, {}),
            "{\"hit\":false,\"ok\":true}");
  auto miss = RelayQueryResponse(EncodeCacheProbeResponse(false, {}),
                                 /*probe=*/true, envelope);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_EQ(miss->line, "");

  MineResponse response;
  response.task = MiningTask::kFrequent;
  response.num_frequent = 2;
  response.listing = testutil::Listing({{{1, 2}, 4}, {{3}, 6}});
  response.cache = CacheOutcome::kExact;
  response.dataset_digest = "abcdef0123456789";
  EXPECT_EQ(EncodeCacheProbeResponse(true, response),
            "{\"cache\":\"hit\",\"digest\":\"abcdef0123456789\",\"hit\":true,"
            "\"itemsets\":[{\"items\":[1,2],\"support\":4},"
            "{\"items\":[3],\"support\":6}],\"mine_ms\":0,"
            "\"num_results\":2,\"ok\":true,\"query_id\":0,\"queue_ms\":0,"
            "\"task\":\"frequent\"}");
  auto hit = RelayQueryResponse(EncodeCacheProbeResponse(true, response),
                                /*probe=*/true, envelope);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(hit->line,
            "{\"cache\":\"hit\",\"digest\":\"abcdef0123456789\","
            "\"itemsets\":[{\"items\":[1,2],\"support\":4},"
            "{\"items\":[3],\"support\":6}],\"mine_ms\":0,"
            "\"num_results\":2,\"ok\":true,\"peer\":\"n2:7100\","
            "\"query_id\":9,\"queue_ms\":0,\"task\":\"frequent\"}");
}

TEST(ClusterWireTest, ShardQueryRequestRoundTrips) {
  MineRequest request;
  request.dataset_path = "/data/retail.fpk";
  request.query.min_support = 9;
  const std::string line = EncodeShardQueryRequest(request);
  EXPECT_EQ(line,
            "{\"algorithm\":\"lcm\",\"dataset\":\"/data/retail.fpk\","
            "\"min_support\":9,\"mode\":\"execute\",\"op\":\"shard_query\","
            "\"patterns\":\"none\",\"task\":\"frequent\"}");
  auto decoded = DecodeRequest(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->op, ServiceRequest::Op::kShardQuery);
  EXPECT_EQ(decoded->mine.dataset_path, "/data/retail.fpk");
  EXPECT_EQ(decoded->mine.query.min_support, 9u);

  // A handle-addressed query sends its "id" and "version" instead of a
  // dataset path.
  MineRequest by_id;
  by_id.dataset_id = "ds-2";
  by_id.dataset_version = 3;
  by_id.query.min_support = 4;
  by_id.query.task = MiningTask::kClosed;
  by_id.priority = -1;
  by_id.trace_id = "t-1";
  EXPECT_EQ(EncodeShardQueryRequest(by_id),
            "{\"algorithm\":\"lcm\",\"id\":\"ds-2\",\"min_support\":4,"
            "\"mode\":\"execute\",\"op\":\"shard_query\","
            "\"patterns\":\"none\",\"priority\":-1,\"task\":\"closed\","
            "\"trace_id\":\"t-1\",\"version\":3}");
}

// The one reader of "ok": every code an error envelope can carry comes
// back with its message, escapes and all.
TEST(ReplyStatusTest, EveryCodeRoundTripsThroughAnErrorEnvelope) {
  const std::string message = "say \"hi\" \\ back\n\tnow \x01 \xc3\xa9";
  int codes = 0;
  for (int c = 1; std::string_view(StatusCodeToString(
                      static_cast<StatusCode>(c))) != "UNKNOWN";
       ++c) {
    const Status status(static_cast<StatusCode>(c), message);
    EXPECT_EQ(ReplyStatus(EncodeError(status)), status);
    EXPECT_EQ(ReplyStatus(EncodeErrorWithId(7, status)), status);
    ++codes;
  }
  EXPECT_EQ(codes, 12);
}

TEST(ReplyStatusTest, AnErrorEnvelopeNeverReadsAsSuccess) {
  for (const std::string_view code : {"OK", "BOGUS", "", "not_found"}) {
    EXPECT_EQ(ReplyStatus("{\"error\":{\"code\":\"" + std::string(code) +
                          "\",\"message\":\"m\"},\"ok\":false}"),
              Status::Internal("m"))
        << code;
  }
  EXPECT_EQ(ReplyStatus("{\"ok\":false}"),
            Status::Internal("peer reported an error without detail"));
  EXPECT_EQ(ReplyStatus("{\"id\":3,\"ok\":false}"),
            Status::Internal("peer reported an error without detail"));
  EXPECT_EQ(ReplyStatus("{\"ok\":false,\"x\":\"\\\"ok\\\":true\"}"),
            Status::Internal("peer reported an error without detail"));
}

// "ok":true, or no "ok" at all, reads as OK on every reply the writer
// writes; the members around it are skipped unread.
TEST(ReplyStatusTest, ReadsTheOkOfEveryReply) {
  MineResponse response;
  response.num_frequent = 1;
  response.listing = testutil::Listing({{{1, 2}, 3}});
  response.trace_id = "t\t\"1\"";
  ServiceStats stats;
  stats.windows = {ServiceWindowStats{}};
  for (const std::string& line :
       {EncodeOk(), EncodeQueryResponse(response),
        EncodeQueryResponseWithId(4, response),
        EncodeCacheProbeResponse(false, {}),
        EncodeCacheProbeResponse(true, response),
        EncodeMetricsTextResponse("x\n"),
        EncodeStatsResponse(stats, "{\"enabled\":true,\"peers\":[]}"),
        std::string("{\"cluster\":{\"enabled\":false},\"ok\":true}"),
        // The metrics snapshot carries no "ok".
        std::string("{\"counters\":{\"fpm.a\":1},\"gauges\":{},"
                    "\"histograms\":{\"h\":{\"bounds\":[1,2],"
                    "\"counts\":[0,1,0],\"sum\":2}}}"),
        std::string("{\"a\":[null,false,-1.5e-3,{}],\"ok\":true}")}) {
    EXPECT_TRUE(ReplyStatus(line).ok()) << ReplyStatus(line) << ": " << line;
  }
}

// Lines the writer never writes are the peer's fault, whatever "ok"
// they seem to hold.
TEST(ReplyStatusTest, RefusesWhatTheWriterNeverWrites) {
  for (const char* line : {
           "not json \"ok\":true",
           "{\"ok\":true,\"ok\":false}",
           "{\"ok\": true}",
           "{\"ok\":true} ",
           "{\"ok\":true}\n",
           "{\"ok\":\"true\"}",
           "{\"ok\":1}",
           "{\"error\":{\"code\":\"INTERNAL\",\"message\":\"m\"},"
           "\"ok\":true}",
           "{\"error\":{\"code\":\"INTERNAL\"},\"ok\":false}",
           "{\"error\":{\"message\":\"m\",\"code\":\"INTERNAL\"},"
           "\"ok\":false}",
           "{\"ok\":false,\"error\":{\"code\":\"INTERNAL\","
           "\"message\":\"m\"}}",
           "{\"a\":\"\\/\",\"ok\":true}",
           "{\"a\":\"\\u000a\",\"ok\":true}",
           "{\"a\":01,\"ok\":true}",
           "{\"a\":1e999,\"ok\":true}",
           "{\"a\":[1,],\"ok\":true}",
           "{\"a\":nul,\"ok\":true}",
           "{}",
           "",
           "[]",
       }) {
    const Status status = ReplyStatus(line);
    EXPECT_EQ(status.code(), StatusCode::kInternal) << line;
    EXPECT_EQ(status.message().rfind("peer response: ", 0), 0u)
        << status << ": " << line;
  }
}

// A member nested past ParseJson's bound is refused after at most
// kMaxJsonDepth levels of recursion, however deep the bytes go.
TEST(ReplyStatusTest, DeepNestingIsRefusedAtTheParsersBound) {
  const auto nested = [](size_t depth) {
    return "{\"a\":" + std::string(depth, '[') + std::string(depth, ']') +
           ",\"ok\":true}";
  };
  EXPECT_TRUE(ReplyStatus(nested(kMaxJsonDepth)).ok());
  EXPECT_TRUE(ParseJson(nested(kMaxJsonDepth)).ok());
  for (const size_t depth : {size_t{kMaxJsonDepth} + 1, size_t{100000}}) {
    const Status status = ReplyStatus(nested(depth));
    EXPECT_EQ(status.code(), StatusCode::kInternal) << depth;
    EXPECT_EQ(status.message().rfind("peer response: ", 0), 0u) << status;
    EXPECT_FALSE(ParseJson(nested(depth)).ok()) << depth;
  }
}

TEST(ClusterWireTest, QueryResponseCarriesPeer) {
  // Only the relay writes "peer": an owner's answer never carries it,
  // and the relayed line has it in its sorted slot, between "ok" and
  // "query_id".
  MineResponse response;
  response.num_frequent = 1;
  response.listing = testutil::Listing({{{2}, 8}});
  const std::string owner_line = EncodeQueryResponse(response);
  EXPECT_EQ(owner_line,
            "{\"cache\":\"miss\",\"digest\":\"\","
            "\"itemsets\":[{\"items\":[2],\"support\":8}],\"mine_ms\":0,"
            "\"num_results\":1,\"ok\":true,"
            "\"query_id\":0,\"queue_ms\":0,\"task\":\"frequent\"}");
  auto relayed = RelayQueryResponse(owner_line, /*probe=*/false,
                                    RelayEnvelope{"n3:7100", 12, ""});
  ASSERT_TRUE(relayed.ok()) << relayed.status();
  EXPECT_EQ(relayed->line,
            "{\"cache\":\"miss\",\"digest\":\"\","
            "\"itemsets\":[{\"items\":[2],\"support\":8}],\"mine_ms\":0,"
            "\"num_results\":1,\"ok\":true,\"peer\":\"n3:7100\","
            "\"query_id\":12,\"queue_ms\":0,\"task\":\"frequent\"}");
}

TEST(ClusterWireTest, QueryResponseDecodeSurfacesPeerErrors) {
  for (const bool probe : {false, true}) {
    const Status carried =
        RelayQueryResponse(EncodeError(Status::NotFound("nope")), probe,
                           RelayEnvelope{"n2:7100", 7, ""})
            .status();
    EXPECT_EQ(carried.code(), StatusCode::kNotFound);
    EXPECT_EQ(carried.message(), "nope");
  }
}

// The relay's bytes. Each relayed line is the owner's line with the
// entry's envelope, and equals encoding the owner's answer with that
// envelope's query_id and trace_id plus its "peer": the line the entry
// wrote when it decoded and re-encoded.

// `line` with "peer":`peer` in its sorted slot, before "query_id".
std::string WithPeer(const std::string& line, const std::string& peer) {
  return Replace(line, "\"query_id\"",
                 "\"peer\":\"" + peer + "\",\"query_id\"");
}

TEST(RelayTest, ProbeHitTakesTheEntrysEnvelope) {
  MineResponse response;
  response.task = MiningTask::kClosed;
  response.num_frequent = 2;
  response.listing = testutil::Listing({{{1, 2}, 4}, {{3}, 2}});
  response.cache = CacheOutcome::kDominated;
  response.dataset_digest = "cafe";
  response.trace_id = "qid-31@n1:7100";  // the entry's id for the hop
  const std::string reply = EncodeCacheProbeResponse(true, response);

  // The client sent no trace id: the hop's is dropped.
  auto plain = RelayQueryResponse(reply, /*probe=*/true,
                                  RelayEnvelope{"n2:7100", 31, ""});
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->line,
            "{\"cache\":\"dominated\",\"digest\":\"cafe\","
            "\"itemsets\":[{\"items\":[1,2],\"support\":4},"
            "{\"items\":[3],\"support\":2}],\"mine_ms\":0,"
            "\"num_results\":2,\"ok\":true,\"peer\":\"n2:7100\","
            "\"query_id\":31,\"queue_ms\":0,\"task\":\"closed\"}");

  // The client's own, escaped by the writer.
  const std::string client_trace = "t \"1\"\t\\";
  auto traced = RelayQueryResponse(reply, /*probe=*/true,
                                   RelayEnvelope{"n2:7100", 31, client_trace});
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_EQ(traced->line,
            "{\"cache\":\"dominated\",\"digest\":\"cafe\","
            "\"itemsets\":[{\"items\":[1,2],\"support\":4},"
            "{\"items\":[3],\"support\":2}],\"mine_ms\":0,"
            "\"num_results\":2,\"ok\":true,\"peer\":\"n2:7100\","
            "\"query_id\":31,\"queue_ms\":0,\"task\":\"closed\","
            "\"trace_id\":\"t \\\"1\\\"\\t\\\\\"}");
  response.query_id = 31;
  response.trace_id = client_trace;
  EXPECT_EQ(traced->line, WithPeer(EncodeQueryResponse(response), "n2:7100"));
}

// A forwarded miss carries the owner's timings as the owner printed
// them, to the last digit.
TEST(RelayTest, ForwardedMissKeepsTheOwnersBytes) {
  const std::string reply =
      "{\"cache\":\"miss\",\"digest\":\"0123456789abcdef\","
      "\"itemsets\":[{\"items\":[7],\"support\":3},"
      "{\"items\":[7,9],\"support\":2}],\"mine_ms\":0.7071067811865476,"
      "\"num_results\":2,\"ok\":true,\"query_id\":41,\"queue_ms\":0.001,"
      "\"task\":\"frequent\",\"trace_id\":\"qid-5@10.0.0.1:7100\"}";
  auto relayed = RelayQueryResponse(reply, /*probe=*/false,
                                    RelayEnvelope{"10.0.0.2:7100", 5, ""});
  ASSERT_TRUE(relayed.ok()) << relayed.status();
  EXPECT_EQ(relayed->line,
            "{\"cache\":\"miss\",\"digest\":\"0123456789abcdef\","
            "\"itemsets\":[{\"items\":[7],\"support\":3},"
            "{\"items\":[7,9],\"support\":2}],\"mine_ms\":0.7071067811865476,"
            "\"num_results\":2,\"ok\":true,\"peer\":\"10.0.0.2:7100\","
            "\"query_id\":5,\"queue_ms\":0.001,\"task\":\"frequent\"}");
}

TEST(RelayTest, CountOnlyAndRulesAnswers) {
  MineResponse counted;
  counted.num_frequent = 11796;
  counted.cache = CacheOutcome::kExact;
  counted.dataset_digest = "d";
  auto count_only =
      RelayQueryResponse(EncodeCacheProbeResponse(true, counted),
                         /*probe=*/true, RelayEnvelope{"n2:7100", 3, ""});
  ASSERT_TRUE(count_only.ok()) << count_only.status();
  EXPECT_EQ(count_only->line,
            "{\"cache\":\"hit\",\"digest\":\"d\",\"mine_ms\":0,"
            "\"num_results\":11796,\"ok\":true,\"peer\":\"n2:7100\","
            "\"query_id\":3,\"queue_ms\":0,\"task\":\"frequent\"}");

  MineResponse rules;
  rules.task = MiningTask::kRules;
  rules.num_frequent = 2;
  AssociationRule rule;
  rule.antecedent = {1};
  rule.consequent = {2, 5};
  rule.itemset_support = 4;
  rule.confidence = 2.0 / 3.0;
  rule.lift = 4.0 / 3.0;
  AssociationRule certain = rule;
  certain.antecedent = {};
  certain.confidence = 1.0;
  rules.listing = testutil::RuleListing({rule, certain});
  rules.dataset_digest = "d";
  rules.mine_seconds = 0.002;
  auto relayed = RelayQueryResponse(EncodeQueryResponse(rules),
                                    /*probe=*/false,
                                    RelayEnvelope{"n2:7100", 8, "r"});
  ASSERT_TRUE(relayed.ok()) << relayed.status();
  EXPECT_EQ(relayed->line,
            "{\"cache\":\"miss\",\"digest\":\"d\",\"mine_ms\":2,"
            "\"num_results\":2,\"ok\":true,\"peer\":\"n2:7100\","
            "\"query_id\":8,\"queue_ms\":0,"
            "\"rules\":[{\"antecedent\":[1],"
            "\"confidence\":0.6666666666666666,\"consequent\":[2,5],"
            "\"lift\":1.3333333333333333,\"support\":4},"
            "{\"antecedent\":[],\"confidence\":1,\"consequent\":[2,5],"
            "\"lift\":1.3333333333333333,\"support\":4}],"
            "\"task\":\"rules\",\"trace_id\":\"r\"}");
  rules.query_id = 8;
  rules.trace_id = "r";
  EXPECT_EQ(relayed->line, WithPeer(EncodeQueryResponse(rules), "n2:7100"));
}

TEST(RelayTest, ProbeMissIsEmptyAndOkFalseIsTheCarriedStatus) {
  const RelayEnvelope envelope{"n2:7100", 7, ""};
  auto miss = RelayQueryResponse("{\"hit\":false,\"ok\":true}",
                                 /*probe=*/true, envelope);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_EQ(miss->line, "");
  // A forward is never answered with a probe's miss.
  EXPECT_EQ(RelayStatus("{\"hit\":false,\"ok\":true}").message(),
            "peer response: unknown key 'hit'");

  for (const bool probe : {false, true}) {
    const Status bare =
        RelayQueryResponse("{\"ok\":false}", probe, envelope).status();
    EXPECT_EQ(bare.code(), StatusCode::kInternal);
    EXPECT_EQ(bare.message(), "peer reported an error without detail");
    const Status carried =
        RelayQueryResponse(
            EncodeError(Status::InvalidArgument("op 'shard_query': bad")),
            probe, envelope)
            .status();
    EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(carried.message(), "op 'shard_query': bad");
  }
}

// None of these is a line the writer writes: the relay refuses each as
// the peer's fault (INTERNAL), naming what is wrong. All but the raw
// control byte are JSON the parser reads; that one is not JSON at all,
// and ParseJson refuses it too.
TEST(RelayTest, RefusesWhatTheWriterNeverWrites) {
  const size_t space_at = kItemsetAnswer.find(",\"mine_ms\"") + 1;
  const struct {
    const char* what;
    std::string reply;
    std::string message;
    bool parses = true;
  } cases[] = {
      {"whitespace",
       Replace(kItemsetAnswer, ",\"mine_ms\"", ", \"mine_ms\""),
       "peer response: not writer-canonical JSON at offset " +
           std::to_string(space_at)},
      {"unsorted keys",
       Replace(kItemsetAnswer, "\"cache\":\"miss\",\"digest\":\"d\"",
               "\"digest\":\"d\",\"cache\":\"miss\""),
       "peer response: key 'cache' repeated or out of order"},
      {"repeated key",
       Replace(kItemsetAnswer, "\"digest\":\"d\"",
               "\"digest\":\"d\",\"digest\":\"e\""),
       "peer response: key 'digest' repeated or out of order"},
      {"fractional support",
       Replace(kItemsetAnswer, "\"support\":2", "\"support\":1.0"),
       "peer response: malformed 'itemsets' entry"},
      {"unknown key",
       Replace(kItemsetAnswer, "\"task\"", "\"tag\":1,\"task\""),
       "peer response: unknown key 'tag'"},
      {"a peer, which only the relay writes",
       Replace(kItemsetAnswer, "\"query_id\"",
               "\"peer\":\"n2:7100\",\"query_id\""),
       "peer response: unknown key 'peer'"},
      {"a shard count, which no answer carries",
       Replace(kItemsetAnswer, "\"task\"", "\"shards\":2,\"task\""),
       "peer response: unknown key 'shards'"},
      {"missing task", Replace(kItemsetAnswer, ",\"task\":\"frequent\"", ""),
       "peer response: missing 'task'"},
      {"raw control byte",
       Replace(kItemsetAnswer, "\"digest\":\"d\"", "\"digest\":\"d\nd\""),
       "peer response: 'digest' is not a canonical string", false},
      {"non-canonical task name",
       Replace(kItemsetAnswer, "\"frequent\"", "\"FREQUENT\""),
       "peer response: 'task' is not a task name"},
      {"the item sentinel",
       Replace(kItemsetAnswer, "\"items\":[1]", "\"items\":[4294967295]"),
       "peer response: non-numeric item in 'itemsets'"},
      {"a support past 32 bits",
       Replace(kItemsetAnswer, "\"support\":2", "\"support\":4294967296"),
       "peer response: malformed 'itemsets' entry"},
      {"a query id past 64 bits",
       Replace(kItemsetAnswer, "\"query_id\":0",
               "\"query_id\":18446744073709551616"),
       "peer response: 'query_id' is not a number >= 0"},
      {"a leading zero in a support",
       Replace(kItemsetAnswer, "\"support\":2", "\"support\":01"),
       "peer response: malformed 'itemsets' entry"},
      {"a leading zero in a count",
       Replace(kItemsetAnswer, "\"num_results\":1", "\"num_results\":01"),
       "peer response: not writer-canonical JSON at offset " +
           std::to_string(kItemsetAnswer.find("\"num_results\":1") + 15)},
      {"a negative count",
       Replace(kItemsetAnswer, "\"num_results\":1", "\"num_results\":-1"),
       "peer response: 'num_results' is not a number >= 0"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(ParseJson(c.reply).ok(), c.parses) << c.what;
    const Status status = RelayStatus(c.reply);
    EXPECT_EQ(status.code(), StatusCode::kInternal) << c.what;
    EXPECT_EQ(status.message(), c.message) << c.what;
  }
}

// Each number at the top of its range passes, and the relay reads the
// count it carries.
TEST(RelayTest, AcceptsEachNumberAtItsLimit) {
  std::string reply = kItemsetAnswer;
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"\"items\":[1]",
                                            "\"items\":[0,4294967294]"},
        {"\"support\":2", "\"support\":4294967295"},
        {"\"num_results\":1", "\"num_results\":18446744073709551615"},
        {"\"query_id\":0", "\"query_id\":18446744073709551615"}}) {
    reply = Replace(reply, from, to);
  }
  auto relayed = RelayQueryResponse(reply, /*probe=*/false,
                                    RelayEnvelope{"n2:7100", 7, ""});
  ASSERT_TRUE(relayed.ok()) << relayed.status();
  EXPECT_EQ(relayed->line,
            WithPeer(Replace(reply, "\"query_id\":18446744073709551615",
                             "\"query_id\":7"),
                     "n2:7100"));
  EXPECT_EQ(relayed->peer, "n2:7100");
  EXPECT_EQ(relayed->cache, CacheOutcome::kMiss);
  EXPECT_EQ(relayed->num_results, std::numeric_limits<uint64_t>::max());
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
            "\"server\":{\"refused_connections\":0},\"uptime_seconds\":1,"
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
