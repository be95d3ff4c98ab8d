// Seeded mutation fuzzer for every decoder of untrusted bytes: the
// request decoder fpmd runs on each socket line, the JSON parser under
// it, the reply reader (the relay, ReplyStatus and the metrics-text
// unwrap) that reads a peer's or fpmd's reply,
// the packed-file mapper and the FIMI reader. Seeds are the protocol's
// golden requests and replies, a .fpk written by the packed writer and
// the FIMI inputs of the dataset tests; each mutant flips, inserts or
// deletes bytes, truncates, or splices two seeds. Every call must
// return OK or a non-OK Status — a crash, a hang or an out-of-bounds
// read (under the asan and ubsan presets) fails the suite. What the
// reply reader reads must also be what the parser reads, and a packed
// file the mapper opens must also mine. The seed and the mutant counts
// are fixed, so a failure reproduces; a mutant that once found a
// defect lives on below as a named test.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fpm/algo/itemset_sink.h"
#include "fpm/common/json_writer.h"
#include "fpm/common/rng.h"
#include "fpm/core/mine.h"
#include "fpm/dataset/database.h"
#include "fpm/dataset/fimi_io.h"
#include "fpm/dataset/packed.h"
#include "fpm/service/json.h"
#include "fpm/service/protocol.h"
#include "testing/listing_testutil.h"

namespace fpm {
namespace {

constexpr uint64_t kFuzzSeed = 0x5eedf0220;
constexpr int kJsonMutants = 4000;
constexpr int kPackedMutants = 1500;
constexpr int kFimiMutants = 2000;
constexpr int kRelayMutants = 2000;
constexpr int kShapeMutants = 3000;

// One to four mutations of `seed`, each a bit flip, an inserted byte, a
// deleted byte, a truncation or a splice with another seed.
std::string Mutate(Rng& rng, const std::string& seed,
                   const std::vector<std::string>& seeds) {
  std::string bytes = seed;
  const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
  for (int m = 0; m < mutations; ++m) {
    const uint64_t at = rng.NextBounded(bytes.size() + 1);
    switch (rng.NextBounded(5)) {
      case 0:  // flip one bit
        if (!bytes.empty()) {
          bytes[at % bytes.size()] ^=
              static_cast<char>(1u << rng.NextBounded(8));
        }
        break;
      case 1:  // insert a byte
        bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(at),
                     static_cast<char>(rng.NextBounded(256)));
        break;
      case 2:  // delete a byte
        if (!bytes.empty()) {
          bytes.erase(at % bytes.size(), 1);
        }
        break;
      case 3:  // truncate
        bytes.resize(at);
        break;
      default: {  // splice: this prefix, another seed's suffix
        const std::string& other = seeds[rng.NextBounded(seeds.size())];
        const uint64_t from = rng.NextBounded(other.size() + 1);
        bytes = bytes.substr(0, at) + other.substr(from);
        break;
      }
    }
  }
  return bytes;
}

void ExpectOkOr(const Status& status, StatusCode code) {
  if (!status.ok()) {
    EXPECT_EQ(status.code(), code) << status;
  }
}

// Reads every element a decoded database exposes, so a view that runs
// past its storage shows up as a sanitizer report or a crash here, and
// checks that its rows cover its items exactly.
void TouchAll(const Database& db) {
  uint64_t sum = 0;
  size_t entries = 0;
  for (size_t t = 0; t < db.num_transactions(); ++t) {
    for (Item item : db.transaction(static_cast<Tid>(t))) sum += item;
    entries += db.transaction(static_cast<Tid>(t)).size();
  }
  for (Support weight : db.weights()) sum += weight;
  for (Support frequency : db.item_frequencies()) sum += frequency;
  EXPECT_EQ(entries, db.items().size());
  volatile uint64_t sink = sum;  // keeps the reads above
  (void)sink;
}

// The JSON string `s` as the parser reads it.
JsonValue StringValue(std::string_view s) {
  std::string quoted;
  AppendJsonString(&quoted, s);
  return ParseJson(quoted).value();
}

// What a reply the relay accepted must satisfy: the parser reads it,
// the relayed line has no byte below 0x20 (so no newline), and the
// parser reads the relayed line as the reply with "hit" dropped and
// "peer", "query_id" and "trace_id" taken from `envelope`.
void ExpectRelayed(const std::string& reply, const RelayEnvelope& envelope,
                   const RelayedReply& read) {
  const Result<JsonValue> doc = ParseJson(reply);
  ASSERT_TRUE(doc.ok()) << doc.status();
  // What the relay read of the reply is what the tree holds.
  EXPECT_EQ(CacheOutcomeName(read.cache), doc.value()["cache"].string_value());
  EXPECT_EQ(static_cast<double>(read.num_results),
            doc.value()["num_results"].number_value());
  EXPECT_EQ(read.peer, envelope.peer);
  const std::string& relayed = read.line;
  for (char c : relayed) {
    ASSERT_GE(static_cast<unsigned char>(c), 0x20) << relayed;
  }
  const Result<JsonValue> got = ParseJson(relayed);
  ASSERT_TRUE(got.ok()) << got.status() << ": " << relayed;
  std::map<std::string, JsonValue> expected = doc.value().object_items();
  expected.erase("hit");
  expected["peer"] = StringValue(envelope.peer);
  expected["query_id"] = ParseJson(std::to_string(envelope.query_id)).value();
  expected.erase("trace_id");
  if (!envelope.trace_id.empty()) {
    expected["trace_id"] = StringValue(envelope.trace_id);
  }
  EXPECT_EQ(got.value().object_items(), expected) << relayed;
}

// True for a status the reply reader gives a line it refuses: the
// peer's fault, as opposed to a status the line carries.
bool Refused(const Status& status) {
  return status.code() == StatusCode::kInternal &&
         status.message().rfind("peer response: ", 0) == 0;
}

// The status a parsed reply's "ok" says: OK for true or no "ok", and
// for false the code its error names (INTERNAL unless one of the
// non-OK codes) with its message.
Status StatusOfTree(const JsonValue& doc) {
  const JsonValue& ok = doc["ok"];
  if (!ok.is_bool() || ok.bool_value()) return Status::OK();
  const JsonValue& error = doc["error"];
  if (error.is_null()) {
    return Status::Internal("peer reported an error without detail");
  }
  StatusCode code = StatusCode::kInternal;
  for (int c = 1; c <= static_cast<int>(StatusCode::kFailedPrecondition);
       ++c) {
    if (error["code"].string_value() ==
        StatusCodeToString(static_cast<StatusCode>(c))) {
      code = static_cast<StatusCode>(c);
    }
  }
  return Status(code, error["message"].string_value());
}

// What a reply reader that read `line` rather than refused it must
// agree with: the parser reads the line as an object whose "ok", when
// present, is a bool; an "error" beside "ok":false has a string code
// and message; and the statuses match. Returns the tree, or null when
// the reader refused the line.
std::optional<JsonValue> ExpectParsedAlike(const std::string& line,
                                           const Status& status) {
  if (Refused(status)) return std::nullopt;
  const Result<JsonValue> doc = ParseJson(line);
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return std::nullopt;
  EXPECT_TRUE(doc->is_object());
  const JsonValue& ok = doc.value()["ok"];
  EXPECT_TRUE(ok.is_null() || ok.is_bool());
  const JsonValue& error = doc.value()["error"];
  if (!error.is_null()) {
    EXPECT_TRUE(ok.is_bool() && !ok.bool_value());
    EXPECT_TRUE(error["code"].is_string() && error["message"].is_string());
  }
  EXPECT_EQ(StatusOfTree(doc.value()), status);
  return doc.value();
}

std::vector<std::string> JsonSeeds() {
  MineResponse response;
  response.task = MiningTask::kClosed;
  response.num_frequent = 2;
  response.listing = testutil::Listing({{{1, 2}, 4}, {{3}, 2}});
  response.cache = CacheOutcome::kCrossTask;
  response.dataset_digest = "cafe";
  response.queue_seconds = 0.5;
  response.query_id = 17;
  response.trace_id = "req-9";

  MineResponse rules;
  rules.task = MiningTask::kRules;
  rules.num_frequent = 1;
  AssociationRule rule;
  rule.antecedent = {1};
  rule.consequent = {2};
  rule.itemset_support = 4;
  rule.confidence = 0.5;
  rule.lift = 2.0;
  rules.listing = testutil::RuleListing({rule});

  // A probe hit for a client that sent its own trace id.
  MineResponse traced = response;
  traced.trace_id = "client \"7\"\t";

  MineResponse entries;
  entries.num_frequent = 2;
  entries.listing = testutil::Listing({{{1, 2}, 3}, {{5}, 7}});

  MineRequest request;
  request.dataset_path = "/data/retail.fpk";
  request.query.min_support = 9;
  request.query.task = MiningTask::kRules;
  request.trace_id = "qid-7@n1:7100";

  return {
      // Requests.
      "{\"op\":\"query\",\"dataset\":\"d.dat\",\"min_support\":2,"
      "\"task\":\"top_k\",\"k\":3,\"algorithm\":\"eclat\","
      "\"patterns\":\"none\",\"priority\":5,\"timeout_s\":1.5,"
      "\"count_only\":true,\"trace_id\":\"t\",\"scatter\":true}",
      "{\"op\":\"query\",\"id\":\"ds-1\",\"version\":2,\"min_support\":3,"
      "\"task\":\"rules\",\"min_confidence\":0.6,\"min_lift\":1.2,"
      "\"max_consequent\":2}",
      "{\"op\":\"batch\",\"queries\":[{\"dataset\":\"a.dat\","
      "\"min_support\":2},{\"dataset\":\"b.dat\",\"min_support\":3,"
      "\"task\":\"closed\"},7]}",
      "{\"op\":\"append\",\"id\":\"ds-1\",\"transactions\":[[1,2],[3]],"
      "\"timestamps\":[1.5,2]}",
      "{\"op\":\"expire\",\"id\":\"ds-1\",\"count\":1}",
      "{\"op\":\"window\",\"id\":\"ds-1\",\"last_n\":5,"
      "\"last_seconds\":0.5}",
      "{\"op\":\"open\",\"dataset\":\"d.dat\"}",
      "{\"op\":\"dataset_info\",\"id\":\"ds-1\"}",
      "{\"op\":\"cluster_info\",\"dataset\":\"d.dat\"}",
      "{\"op\":\"stats\"}",
      "{\"op\":\"ping\"}",
      EncodeCacheProbeRequest("abcdef0123456789", request),
      EncodeShardQueryRequest(request),
      // The SON phase modes fpmd refuses.
      "{\"algorithm\":\"lcm\",\"candidates\":[[4,1],[2]],"
      "\"dataset\":\"/data/retail.fpk\",\"min_support\":9,"
      "\"mode\":\"count\",\"op\":\"shard_query\","
      "\"partition\":{\"count\":3,\"index\":1},\"task\":\"rules\"}",
      "{\"algorithm\":\"lcm\",\"dataset\":\"/data/retail.fpk\","
      "\"min_support\":9,\"mode\":\"mine\",\"op\":\"shard_query\","
      "\"partition\":{\"count\":2,\"index\":0}}",
      // Replies.
      EncodeQueryResponse(response),
      EncodeQueryResponse(rules),
      EncodeQueryResponseWithId(3, response),
      EncodeCacheProbeResponse(true, response),
      EncodeCacheProbeResponse(true, traced),
      EncodeCacheProbeResponse(true, rules),
      EncodeCacheProbeResponse(false, {}),
      EncodeQueryResponse(entries),
      EncodeError(Status::NotFound("nope")),
      EncodeErrorWithId(7, Status::InvalidArgument("bad \"entry\"\n")),
      EncodeMetricsTextResponse("# TYPE fpm_x counter\nfpm_x 1\n"),
      EncodeOk(),
  };
}

std::vector<std::string> FimiSeeds() {
  return {
      "1 2 3\n4 5\n",
      "1 2\n3",
      "1 2\n\n\n3\n\n",
      "1\t2 \r\n3\r\n",
      "1 2 3\n1 2\n1 3\n2 3\n1 2 3 4\n1 2\n2 3 5\n1 2 3\n4 5\n1 2 3 4 5\n",
      "99999999999\n",
      "-1 2\n",
  };
}

TEST(DecoderFuzzTest, JsonDecodersReturnAStatus) {
  const std::vector<std::string> seeds = JsonSeeds();
  Rng rng(kFuzzSeed);
  int accepted = 0;
  int read_ok = 0;
  int read_text = 0;
  for (int i = 0; i < kJsonMutants; ++i) {
    const std::string line =
        Mutate(rng, seeds[rng.NextBounded(seeds.size())], seeds);
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + line);
    // Each decoder either accepts the line or says why not. A peer's
    // {"ok":false} envelope may carry any code; everything else the
    // JSON decoders reject is INVALID_ARGUMENT.
    ExpectOkOr(ParseJson(line).status(), StatusCode::kInvalidArgument);
    ExpectOkOr(DecodeRequest(line).status(), StatusCode::kInvalidArgument);
    // The reply reader: what it reads rather than refuses, the parser
    // reads alike.
    if (ExpectParsedAlike(line, ReplyStatus(line))) ++read_ok;
    const Result<std::string> text = DecodeMetricsTextResponse(line);
    if (const auto doc = ExpectParsedAlike(line, text.status())) {
      if (text.ok()) {
        ++read_text;
        EXPECT_TRUE((*doc)["ok"].bool_value());
        EXPECT_TRUE((*doc)["text"].is_string());
        EXPECT_EQ((*doc)["text"].string_value(), text.value());
      }
    }
    // The relay, as a probe's and as a forward's reader, with and
    // without a client trace id.
    for (const bool probe : {true, false}) {
      const RelayEnvelope envelope{"n9:7100", 40 + static_cast<uint64_t>(i),
                                   probe ? "client \"t\"\n" : ""};
      const Result<RelayedReply> relayed =
          RelayQueryResponse(line, probe, envelope);
      if (relayed.ok() && !relayed->line.empty()) {
        ++accepted;
        ExpectRelayed(line, envelope, relayed.value());
      }
    }
  }
  // Mutants of canonical replies that stay canonical (a changed digit,
  // a flipped letter in the digest) are accepted; the properties above
  // must have been checked on some.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(read_ok, 0);
  EXPECT_GT(read_text, 0);
}

// Byte mutants seldom stay in the writer's form, so the relay accepts
// few of them. Mutants that keep a reply's shape (a digit becomes
// another digit, a letter another letter) often do, and the relay's
// invariants are checked on each one it accepts.
TEST(DecoderFuzzTest, RelayedRepliesKeepTheirMembers) {
  std::vector<std::string> replies;
  for (const std::string& seed : JsonSeeds()) {
    if (seed.rfind("{\"cache\"", 0) == 0) replies.push_back(seed);
  }
  ASSERT_GE(replies.size(), 5u);
  Rng rng(kFuzzSeed + 3);
  int accepted = 0;
  for (int i = 0; i < kRelayMutants; ++i) {
    std::string line = replies[rng.NextBounded(replies.size())];
    for (uint64_t m = 1 + rng.NextBounded(3); m > 0; --m) {
      char& c = line[rng.NextBounded(line.size())];
      if (c >= '0' && c <= '9') {
        c = static_cast<char>('0' + rng.NextBounded(10));
      } else if (c >= 'a' && c <= 'z') {
        c = static_cast<char>('a' + rng.NextBounded(26));
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + line);
    const bool probe = line.find("\"hit\":true") != std::string::npos;
    const RelayEnvelope envelope{"n9:7100", static_cast<uint64_t>(i),
                                 i % 2 == 0 ? "" : "client \"t\"\n"};
    const Result<RelayedReply> relayed =
        RelayQueryResponse(line, probe, envelope);
    if (relayed.ok()) {
      ++accepted;
      ExpectRelayed(line, envelope, relayed.value());
    }
  }
  EXPECT_GT(accepted, kRelayMutants / 10);
}

// The same for itemset entries and error envelopes, upper-case letters
// included, so the relay and ReplyStatus read many mutants. Each
// answer the relay passes keeps the members the tree holds, and each
// envelope ReplyStatus reads carries the tree's code and message.
TEST(DecoderFuzzTest, ItemsetEntriesAndErrorEnvelopesKeepTheirMembers) {
  const auto answer = [](std::vector<CollectingSink::Entry> itemsets) {
    MineResponse response;
    response.num_frequent = itemsets.size();
    response.listing = testutil::Listing(std::move(itemsets));
    return EncodeQueryResponse(response);
  };
  const std::vector<std::string> replies = {
      answer({{{1, 2}, 3}, {{5}, 7}}),
      answer({{{0, 17, 4095}, 31}, {{9}, 1}, {{2, 8}, 0}}),
      answer({}),
      answer({{{0}, 4294967295u}, {{4}, 12}, {{9}, 300}}),
      EncodeError(Status::NotFound("dataset 'a.dat' gone")),
      EncodeErrorWithId(7, Status::InvalidArgument("bad \"entry\"\n")),
      EncodeError(Status::Unavailable("cluster: owner 1 failed\tlast: x")),
      EncodeErrorWithId(2, Status::Cancelled("q\x01\\z")),
  };
  Rng rng(kFuzzSeed + 4);
  int read = 0;
  for (int i = 0; i < kShapeMutants; ++i) {
    std::string line = replies[rng.NextBounded(replies.size())];
    for (uint64_t m = 1 + rng.NextBounded(3); m > 0; --m) {
      char& c = line[rng.NextBounded(line.size())];
      if (c >= '0' && c <= '9') {
        c = static_cast<char>('0' + rng.NextBounded(10));
      } else if (c >= 'a' && c <= 'z') {
        c = static_cast<char>('a' + rng.NextBounded(26));
      } else if (c >= 'A' && c <= 'Z') {
        c = static_cast<char>('A' + rng.NextBounded(26));
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + line);
    const RelayEnvelope envelope{"n9:7100", static_cast<uint64_t>(i), ""};
    const Result<RelayedReply> relayed =
        RelayQueryResponse(line, /*probe=*/false, envelope);
    if (relayed.ok()) {
      ++read;
      ExpectRelayed(line, envelope, relayed.value());
    }
    if (ExpectParsedAlike(line, ReplyStatus(line))) ++read;
  }
  EXPECT_GT(read, kShapeMutants / 10);
}

TEST(DecoderFuzzTest, OpenMappedReturnsAStatus) {
  const Result<Database> source = ParseFimi(FimiSeeds()[4]);
  ASSERT_TRUE(source.ok()) << source.status();
  const std::string seed_path = testing::TempDir() + "/fuzz_seed.fpk";
  ASSERT_TRUE(WritePacked(source.value(), seed_path).ok());
  std::string seed;
  {
    std::ifstream in(seed_path, std::ios::binary);
    seed.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(seed.size(), kPackedHeaderBytes);
  const std::vector<std::string> seeds = {seed};

  const std::string path = testing::TempDir() + "/fuzz_mutant.fpk";
  Rng rng(kFuzzSeed + 1);
  int accepted = 0;
  for (int i = 0; i < kPackedMutants; ++i) {
    const std::string bytes = Mutate(rng, seed, seeds);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    SCOPED_TRACE("mutant " + std::to_string(i));
    const Result<Database> db = OpenMapped(path);
    ExpectOkOr(db.status(), StatusCode::kIOError);
    if (!db.ok()) continue;
    ++accepted;
    TouchAll(db.value());
    // What the mapper accepts, a miner must be able to read, and answer
    // one way: LCM at support 1 visits every item of every transaction,
    // and its bare kernel (1 thread) and the class driver (2 threads)
    // list the same itemsets at the same supports.
    std::vector<CollectingSink::Entry> listings[2];
    for (uint32_t threads : {1u, 2u}) {
      CollectingSink sink;
      MineOptions options;
      options.algorithm = Algorithm::kLcm;
      options.min_support = 1;
      options.execution.num_threads = threads;
      EXPECT_TRUE(Mine(db.value(), options, &sink).ok()) << threads;
      sink.Canonicalize();
      listings[threads - 1] = sink.results();
    }
    EXPECT_EQ(listings[0], listings[1]);
  }
  // A mutant of the digest or of a reserved byte still opens.
  EXPECT_GT(accepted, 0);
}

TEST(DecoderFuzzTest, ParseFimiReturnsAStatus) {
  const std::vector<std::string> seeds = FimiSeeds();
  Rng rng(kFuzzSeed + 2);
  for (int i = 0; i < kFimiMutants; ++i) {
    const std::string text =
        Mutate(rng, seeds[rng.NextBounded(seeds.size())], seeds);
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + text);
    const Result<Database> db = ParseFimi(text);
    ExpectOkOr(db.status(), StatusCode::kInvalidArgument);
    if (db.ok()) TouchAll(db.value());
  }
}

}  // namespace
}  // namespace fpm
