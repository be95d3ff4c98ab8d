// Seeded mutation fuzzer for every decoder of untrusted bytes: the
// request decoder fpmd runs on each socket line, the JSON parser under
// it, the four decoders of a peer's reply, the packed-file mapper and
// the FIMI reader. Seeds are the protocol's golden requests and
// replies, a .fpk written by the packed writer and the FIMI inputs of
// the dataset tests; each mutant flips, inserts or deletes bytes,
// truncates, or splices two seeds. Every call must return OK or a
// non-OK Status — a crash, a hang or an out-of-bounds read (under the
// asan and ubsan presets) fails the suite. The seed and the mutant
// counts are fixed, so a failure reproduces; a mutant that once found a
// defect lives on below as a named test.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "fpm/common/rng.h"
#include "fpm/dataset/database.h"
#include "fpm/dataset/fimi_io.h"
#include "fpm/dataset/packed.h"
#include "fpm/service/json.h"
#include "fpm/service/protocol.h"

namespace fpm {
namespace {

constexpr uint64_t kFuzzSeed = 0x5eedf0220;
constexpr int kJsonMutants = 4000;
constexpr int kPackedMutants = 1500;
constexpr int kFimiMutants = 2000;

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

std::vector<std::string> JsonSeeds() {
  MineResponse response;
  response.task = MiningTask::kClosed;
  response.num_frequent = 2;
  response.itemsets = {{{1, 2}, 4}, {{3}, 2}};
  response.cache = CacheOutcome::kCrossTask;
  response.dataset_digest = "cafe";
  response.queue_seconds = 0.5;
  response.query_id = 17;
  response.trace_id = "req-9";
  response.served_by = "n2:7100";
  response.shard_count = 3;

  MineResponse rules;
  rules.task = MiningTask::kRules;
  rules.num_frequent = 1;
  AssociationRule rule;
  rule.antecedent = {1};
  rule.consequent = {2};
  rule.itemset_support = 4;
  rule.confidence = 0.5;
  rule.lift = 2.0;
  rules.rules = {rule};

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
      EncodeShardQueryRequest(request, ClusterOpRequest::ShardMode::kCount,
                              1, 3, {{4, 1}, {2}}),
      EncodeShardQueryRequest(request, ClusterOpRequest::ShardMode::kMine, 0,
                              2, {}),
      // Replies.
      EncodeQueryResponse(response),
      EncodeQueryResponse(rules),
      EncodeQueryResponseWithId(3, response),
      EncodeCacheProbeResponse(true, response),
      EncodeCacheProbeResponse(false, {}),
      EncodeShardMineResponse({{{1, 2}, 3}, {{5}, 7}}),
      EncodeShardCountResponse({0, 4, 9}),
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
  for (int i = 0; i < kJsonMutants; ++i) {
    const std::string line =
        Mutate(rng, seeds[rng.NextBounded(seeds.size())], seeds);
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + line);
    // Each decoder either accepts the line or says why not. A peer's
    // {"ok":false} envelope may carry any code; everything else the
    // JSON decoders reject is INVALID_ARGUMENT.
    ExpectOkOr(ParseJson(line).status(), StatusCode::kInvalidArgument);
    ExpectOkOr(DecodeRequest(line).status(), StatusCode::kInvalidArgument);
    (void)DecodeQueryResponse(line);
    (void)DecodeCacheProbeResponse(line);
    (void)DecodeShardMineResponse(line);
    (void)DecodeShardCountResponse(line);
  }
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
  for (int i = 0; i < kPackedMutants; ++i) {
    const std::string bytes = Mutate(rng, seed, seeds);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    SCOPED_TRACE("mutant " + std::to_string(i));
    const Result<Database> db = OpenMapped(path);
    ExpectOkOr(db.status(), StatusCode::kIOError);
    if (db.ok()) TouchAll(db.value());
  }
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
