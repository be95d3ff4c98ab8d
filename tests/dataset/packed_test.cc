// Packed-format tests: round-trip fidelity, the golden header layout,
// corruption diagnostics, and the storage-backend correctness contract
// — mining a mapped database is byte-identical to mining the same data
// parsed to heap, for every kernel, every task verb, and at any thread
// count.

#include "fpm/dataset/packed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fpm/algo/itemset_sink.h"
#include "fpm/algo/rules.h"
#include "fpm/core/mine.h"
#include "fpm/dataset/fimi_io.h"

namespace fpm {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The FIMI workload the identity tests mine: small but non-trivial
// (shared prefixes, a long tail item, duplicate transactions so the
// weighted path is exercised after ParseFimi merges them).
constexpr char kFimiText[] =
    "1 2 3\n1 2\n1 3\n2 3\n1 2 3 4\n1 2\n2 3 5\n1 2 3\n4 5\n1 2 3 4 5\n";

Database MapRoundTrip(const Database& db, const std::string& name,
                      std::string* digest_out = nullptr) {
  const std::string path = TempPath(name);
  const Status written = WritePacked(db, path);
  EXPECT_TRUE(written.ok()) << written;
  auto mapped = OpenMapped(path, digest_out);
  EXPECT_TRUE(mapped.ok()) << mapped.status();
  return std::move(mapped).value();
}

TEST(PackedRoundTripTest, PreservesArraysAndAggregates) {
  DatabaseBuilder b;
  b.AddTransaction({3, 1, 4});
  b.AddTransaction({1, 5});
  b.AddTransaction(std::span<const Item>{});  // empty rows survive too
  b.AddTransaction({9});
  const Database db = b.Build();
  const Database mapped = MapRoundTrip(db, "roundtrip.fpk");

  EXPECT_EQ(mapped.storage_kind(), StorageKind::kPacked);
  EXPECT_EQ(db.storage_kind(), StorageKind::kMemory);
  ASSERT_EQ(mapped.num_transactions(), db.num_transactions());
  EXPECT_EQ(mapped.num_items(), db.num_items());
  EXPECT_EQ(mapped.num_entries(), db.num_entries());
  EXPECT_EQ(mapped.total_weight(), db.total_weight());
  EXPECT_EQ(mapped.has_weights(), db.has_weights());
  EXPECT_TRUE(std::ranges::equal(mapped.items(), db.items()));
  EXPECT_TRUE(std::ranges::equal(mapped.offsets(), db.offsets()));
  EXPECT_TRUE(
      std::ranges::equal(mapped.item_frequencies(), db.item_frequencies()));
  for (Tid t = 0; t < db.num_transactions(); ++t) {
    EXPECT_TRUE(std::ranges::equal(mapped.transaction(t), db.transaction(t)))
        << "txn " << t;
  }
}

TEST(PackedRoundTripTest, PreservesWeights) {
  DatabaseBuilder b;
  b.AddTransaction({1, 2}, 3);
  b.AddTransaction({2}, 1);
  b.AddTransaction({1, 2, 4}, 7);
  const Database db = b.Build();
  ASSERT_TRUE(db.has_weights());
  const Database mapped = MapRoundTrip(db, "roundtrip_weights.fpk");
  ASSERT_TRUE(mapped.has_weights());
  EXPECT_TRUE(std::ranges::equal(mapped.weights(), db.weights()));
  EXPECT_EQ(mapped.total_weight(), 11u);
  for (Tid t = 0; t < db.num_transactions(); ++t) {
    EXPECT_EQ(mapped.weight(t), db.weight(t)) << "txn " << t;
  }
}

TEST(PackedRoundTripTest, ByteAccountingSplitsResidentFromMapped) {
  DatabaseBuilder b;
  b.AddTransaction({1, 2, 3});
  const Database db = b.Build();
  EXPECT_GT(db.resident_bytes(), 0u);
  EXPECT_EQ(db.mapped_bytes(), 0u);
  EXPECT_EQ(db.memory_bytes(), db.resident_bytes());

  const Database mapped = MapRoundTrip(db, "roundtrip_bytes.fpk");
  EXPECT_EQ(mapped.resident_bytes(), 0u);
  EXPECT_GT(mapped.mapped_bytes(), kPackedHeaderBytes);
  EXPECT_EQ(mapped.memory_bytes(), mapped.mapped_bytes());
}

TEST(PackedRoundTripTest, HeaderDigestRoundTrips) {
  DatabaseBuilder b;
  b.AddTransaction({1, 2});
  const Database db = b.Build();

  // An explicit digest is stored verbatim.
  const std::string path = TempPath("digest_explicit.fpk");
  ASSERT_TRUE(WritePacked(db, path, "00deadbeef00cafe").ok());
  std::string digest;
  ASSERT_TRUE(OpenMapped(path, &digest).ok());
  EXPECT_EQ(digest, "00deadbeef00cafe");

  // The default digest is the canonical FIMI serialization's.
  std::string derived;
  MapRoundTrip(db, "digest_default.fpk", &derived);
  EXPECT_EQ(derived, ContentDigest(ToFimi(db)));

  // Anything that is not 16 chars is rejected up front.
  EXPECT_FALSE(WritePacked(db, path, "abc").ok());
}

TEST(PackedGoldenTest, HeaderBytesAreStable) {
  // Freezes the on-disk header: endianness, field order, version. If
  // this test fails the format changed and kPackedFormatVersion must be
  // bumped with a migration story — not silently.
  DatabaseBuilder b;
  b.AddTransaction({1, 2});
  b.AddTransaction({2});
  const Database db = b.Build();
  const std::string path = TempPath("golden.fpk");
  ASSERT_TRUE(WritePacked(db, path, "0123456789abcdef").ok());

  const std::string bytes = ReadAll(path);
  // 80-byte header + offsets (3 x u64) + items (3 x u32) + freqs
  // (3 x u32); no weights array for an unweighted database.
  ASSERT_EQ(bytes.size(), 128u);

  const unsigned char kExpectedHeader[kPackedHeaderBytes] = {
      // magic
      'F', 'P', 'M', 'P', 'A', 'C', 'K', '1',
      // format version 1 (u32 LE)
      1, 0, 0, 0,
      // endian check 0x01020304 (u32 LE)
      0x04, 0x03, 0x02, 0x01,
      // num_transactions = 2 (u64 LE)
      2, 0, 0, 0, 0, 0, 0, 0,
      // num_items = 3 (u64 LE)
      3, 0, 0, 0, 0, 0, 0, 0,
      // num_entries = 3 (u64 LE)
      3, 0, 0, 0, 0, 0, 0, 0,
      // total_weight = 2 (u64 LE)
      2, 0, 0, 0, 0, 0, 0, 0,
      // flags = 0 (no weights), reserved u32
      0, 0, 0, 0, 0, 0, 0, 0,
      // digest, 16 hex chars
      '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd',
      'e', 'f',
      // reserved u64
      0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < kPackedHeaderBytes; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[i]), kExpectedHeader[i])
        << "header byte " << i;
  }

  // Body: offsets 0,2,3 then items 1,2,2 then frequencies 0,1,2.
  const unsigned char kExpectedBody[48] = {
      0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
      3, 0, 0, 0, 0, 0, 0, 0,                          // offsets
      1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0,              // items
      0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0};             // frequencies
  for (size_t i = 0; i < sizeof(kExpectedBody); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[kPackedHeaderBytes + i]),
              kExpectedBody[i])
        << "body byte " << i;
  }
}

TEST(PackedDiagnosticsTest, MagicSniffDistinguishesFormats) {
  DatabaseBuilder b;
  b.AddTransaction({1});
  const std::string packed = TempPath("sniff.fpk");
  ASSERT_TRUE(WritePacked(b.Build(), packed).ok());
  EXPECT_TRUE(IsPackedFile(packed));

  const std::string fimi = TempPath("sniff.dat");
  WriteAll(fimi, "1 2 3\n");
  EXPECT_FALSE(IsPackedFile(fimi));
  EXPECT_FALSE(IsPackedFile(TempPath("sniff_missing.fpk")));
}

TEST(PackedDiagnosticsTest, CorruptMagicNamesPathAndOffset) {
  DatabaseBuilder b;
  b.AddTransaction({1, 2});
  const std::string path = TempPath("badmagic.fpk");
  ASSERT_TRUE(WritePacked(b.Build(), path).ok());
  std::string bytes = ReadAll(path);
  bytes[0] = 'X';
  WriteAll(path, bytes);

  auto opened = OpenMapped(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find(path), std::string::npos)
      << opened.status();
  EXPECT_NE(opened.status().message().find("bad magic"), std::string::npos);
  EXPECT_NE(opened.status().message().find("at offset 0"), std::string::npos);
}

TEST(PackedDiagnosticsTest, TruncationNamesPathAndOffset) {
  DatabaseBuilder b;
  b.AddTransaction({1, 2, 3});
  const std::string path = TempPath("truncated.fpk");
  ASSERT_TRUE(WritePacked(b.Build(), path).ok());
  const std::string bytes = ReadAll(path);

  // Shorter than the header.
  WriteAll(path, bytes.substr(0, 40));
  auto header_cut = OpenMapped(path);
  ASSERT_FALSE(header_cut.ok());
  EXPECT_NE(header_cut.status().message().find(path), std::string::npos);
  EXPECT_NE(header_cut.status().message().find("truncated header"),
            std::string::npos);
  EXPECT_NE(header_cut.status().message().find("at offset 40"),
            std::string::npos);

  // Header intact, body cut short.
  WriteAll(path, bytes.substr(0, bytes.size() - 4));
  auto body_cut = OpenMapped(path);
  ASSERT_FALSE(body_cut.ok());
  EXPECT_NE(body_cut.status().message().find(path), std::string::npos);
  EXPECT_NE(body_cut.status().message().find("truncated or oversized body"),
            std::string::npos)
      << body_cut.status();
}

// A count whose high bits are set multiplies past 2^64, so the size the
// header promises wrapped around to the real file size and the mapper
// walked the offsets array far past the mapping.
TEST(PackedDiagnosticsTest, CountsPastTheFileSizeAreRejected) {
  DatabaseBuilder b;
  b.AddTransaction({1, 2});
  b.AddTransaction({2, 3});
  const std::string path = TempPath("hugecount.fpk");
  ASSERT_TRUE(WritePacked(b.Build(), path).ok());
  const std::string bytes = ReadAll(path);

  for (const size_t field : {16u, 24u, 32u}) {  // transactions, items, entries
    std::string wrapped = bytes;
    wrapped[field + 7] ^= 0x40;  // + 2^62: every size product wraps back
    WriteAll(path, wrapped);
    auto opened = OpenMapped(path);
    ASSERT_FALSE(opened.ok()) << "count at offset " << field;
    EXPECT_NE(opened.status().message().find("exceeds the file size"),
              std::string::npos)
        << opened.status();
    EXPECT_NE(opened.status().message().find(
                  "at offset " + std::to_string(field)),
              std::string::npos)
        << opened.status();
  }
}

TEST(PackedDiagnosticsTest, VersionAndEndianMismatchesAreRejected) {
  DatabaseBuilder b;
  b.AddTransaction({1});
  const std::string path = TempPath("badversion.fpk");
  ASSERT_TRUE(WritePacked(b.Build(), path).ok());
  std::string bytes = ReadAll(path);

  std::string v2 = bytes;
  v2[8] = 2;  // format version field
  WriteAll(path, v2);
  auto bad_version = OpenMapped(path);
  ASSERT_FALSE(bad_version.ok());
  EXPECT_NE(
      bad_version.status().message().find("unsupported format version 2"),
      std::string::npos)
      << bad_version.status();
  EXPECT_NE(bad_version.status().message().find("at offset 8"),
            std::string::npos);

  std::string swapped = bytes;
  std::swap(swapped[12], swapped[15]);  // endian check word
  std::swap(swapped[13], swapped[14]);
  WriteAll(path, swapped);
  auto bad_endian = OpenMapped(path);
  ASSERT_FALSE(bad_endian.ok());
  EXPECT_NE(bad_endian.status().message().find("endian check mismatch"),
            std::string::npos)
      << bad_endian.status();
  EXPECT_NE(bad_endian.status().message().find("at offset 12"),
            std::string::npos);
}

TEST(PackedDiagnosticsTest, CorruptOffsetsAreRejectedBeforeMining) {
  DatabaseBuilder b;
  b.AddTransaction({1, 2});
  b.AddTransaction({3});
  const std::string path = TempPath("badoffsets.fpk");
  ASSERT_TRUE(WritePacked(b.Build(), path).ok());
  std::string bytes = ReadAll(path);
  // offsets[1] lives at 88; 0xff breaks monotonicity against offsets[2].
  bytes[88] = static_cast<char>(0xff);
  WriteAll(path, bytes);

  auto opened = OpenMapped(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("corrupt offsets array"),
            std::string::npos)
      << opened.status();
  EXPECT_NE(opened.status().message().find(path), std::string::npos);
}

// An item id at or past the header's item count used to open cleanly,
// and then every miner indexed its per-item arrays with it: LCM, Eclat,
// FP-Growth and Apriori all crashed on this 192-byte file.
TEST(PackedDiagnosticsTest, ItemIdPastTheItemCountIsRejectedBeforeMining) {
  DatabaseBuilder b;
  for (const Itemset& t :
       std::vector<Itemset>{{0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 3}, {1, 2}}) {
    b.AddTransaction(t);
  }
  const std::string path = TempPath("baditem.fpk");
  ASSERT_TRUE(WritePacked(b.Build(), path).ok());
  const std::string bytes = ReadAll(path);
  ASSERT_EQ(bytes.size(), 192u);
  ASSERT_TRUE(OpenMapped(path).ok());

  // The items array follows the header and the six offsets: 80 + 48.
  const auto with_item = [&](size_t entry, uint32_t item) {
    std::string patched = bytes;
    std::memcpy(patched.data() + 128 + entry * sizeof(item), &item,
                sizeof(item));
    WriteAll(path, patched);
    return OpenMapped(path).status();
  };
  const Status first = with_item(0, 0xFFFFF0);
  EXPECT_EQ(first.code(), StatusCode::kIOError);
  EXPECT_EQ(first.message(), "packed file '" + path +
                                 "': item id 16777200 is not below the item "
                                 "count 4 at offset 128");
  // The bound is exact, and the last entry is read too: id 3 there opens
  // once the stored frequencies count it (item 2's 3 -> 2, item 3's
  // 2 -> 3; they follow the items, at 176 + 4 * item).
  EXPECT_EQ(with_item(11, 4).message(),
            "packed file '" + path +
                "': item id 4 is not below the item count 4 at offset 172");
  std::string recounted = bytes;
  for (const auto& [at, value] : std::vector<std::pair<size_t, uint32_t>>{
           {128 + 11 * 4, 3}, {184, 2}, {188, 3}}) {
    std::memcpy(recounted.data() + at, &value, sizeof(value));
  }
  WriteAll(path, recounted);
  EXPECT_TRUE(OpenMapped(path).ok());
}

// The packed {0,1,2} {0,1} {1,2,3} {0,3} {1,2} (192 bytes: the 80-byte
// header, six offsets at 80, twelve items at 128, four frequencies at
// 176) with `patches` written over it as 32-bit words; returns what
// OpenMapped makes of it.
Status OpenPatched(const std::string& name,
                   const std::vector<std::pair<size_t, uint32_t>>& patches) {
  DatabaseBuilder b;
  for (const Itemset& t :
       std::vector<Itemset>{{0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 3}, {1, 2}}) {
    b.AddTransaction(t);
  }
  const std::string path = TempPath(name);
  EXPECT_TRUE(WritePacked(b.Build(), path).ok());
  std::string bytes = ReadAll(path);
  EXPECT_EQ(bytes.size(), 192u);
  for (const auto& [at, value] : patches) {
    std::memcpy(bytes.data() + at, &value, sizeof(value));
  }
  WriteAll(path, bytes);
  return OpenMapped(path).status();
}

// A transaction that repeats an item used to open, and each miner
// answered it differently: at support 1 LCM reported {0,1} at 3, Eclat
// at 2, FP-Growth listed {0,1} twice and {0,1,1}, and the parallel
// driver reported the header's frequencies.
TEST(PackedDiagnosticsTest, RepeatedItemIsRejectedBeforeMining) {
  // The first transaction's third item (entry 2, at 136) becomes a second
  // item 1; the frequencies are recounted, so only the repeat is wrong.
  const Status repeated = OpenPatched(
      "repeat.fpk", {{136, 1}, {180, 5}, {184, 2}});
  EXPECT_EQ(repeated.code(), StatusCode::kIOError);
  EXPECT_EQ(repeated.message(),
            "packed file '" + TempPath("repeat.fpk") +
                "': transaction 0 repeats item 1 at offset 136");
  // The same item in two transactions is no repeat.
  EXPECT_TRUE(OpenPatched("no_repeat.fpk", {}).ok());
}

// Every miner and the parallel driver's ranking read the stored
// frequencies as the body's.
TEST(PackedDiagnosticsTest, StoredFrequenciesMustBeTheBodys) {
  const Status stale = OpenPatched("stale_freq.fpk", {{184, 4}});
  EXPECT_EQ(stale.code(), StatusCode::kIOError);
  EXPECT_EQ(stale.message(),
            "packed file '" + TempPath("stale_freq.fpk") +
                "': stored frequency 4 of item 2 is not the body's 3 at "
                "offset 184");

  // Counted in 64 bits: two transactions of weight 2^31 holding item 0
  // count 2^32, which the 32-bit frequency the writer stored (and the
  // 32-bit total weight) wrapped to 0. The digest is given, since the
  // default one hashes the FIMI text, which writes each transaction once
  // per unit of weight.
  DatabaseBuilder b;
  b.AddTransaction({0}, Support{1} << 31);
  b.AddTransaction({0, 1}, Support{1} << 31);
  const std::string path = TempPath("wrapped_freq.fpk");
  ASSERT_TRUE(WritePacked(b.Build(), path, "0123456789abcdef").ok());
  const Status wrapped = OpenMapped(path).status();
  EXPECT_EQ(wrapped.code(), StatusCode::kIOError);
  EXPECT_NE(wrapped.message().find(
                "stored frequency 0 of item 0 is not the body's 4294967296"),
            std::string::npos)
      << wrapped;
}

TEST(PackedDiagnosticsTest, TotalWeightMustBeTheBodys) {
  const Status heavier = OpenPatched("heavy.fpk", {{40, 6}});
  EXPECT_EQ(heavier.code(), StatusCode::kIOError);
  EXPECT_EQ(heavier.message(),
            "packed file '" + TempPath("heavy.fpk") +
                "': total weight 6 is not the body's 5 at offset 40");
}

// ---------------------------------------------------------------------------
// The correctness contract: a mapped database mines byte-identically to
// the heap-parsed one. Kernel emission order is deterministic, so raw
// (uncanonicalized) emissions must match entry for entry.

struct IdentityCase {
  Algorithm algorithm;
  const char* name;
};

class PackedMineIdentityTest : public ::testing::TestWithParam<IdentityCase> {
 protected:
  static constexpr Support kMinSupport = 2;

  void SetUp() override {
    auto parsed = ParseFimi(kFimiText);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    heap_ = std::move(parsed).value();
    const std::string path =
        TempPath(std::string("identity_") + GetParam().name + ".fpk");
    ASSERT_TRUE(WritePacked(heap_, path).ok());
    auto mapped = OpenMapped(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    mapped_ = std::move(mapped).value();
  }

  std::vector<CollectingSink::Entry> Run(const Database& db,
                                         const MiningQuery& query) {
    auto miner = CreateMiner(GetParam().algorithm,
                             PatternSet::ApplicableTo(GetParam().algorithm));
    EXPECT_TRUE(miner.ok()) << miner.status();
    CollectingSink sink;
    auto stats = miner.value()->Mine(db, query, &sink);
    EXPECT_TRUE(stats.ok()) << stats.status();
    return sink.results();
  }

  Database heap_;
  Database mapped_;
};

TEST_P(PackedMineIdentityTest, AllTaskVerbsMatchTheHeapRun) {
  const MiningQuery queries[] = {
      MiningQuery::Frequent(kMinSupport), MiningQuery::Closed(kMinSupport),
      MiningQuery::Maximal(kMinSupport),
      MiningQuery::TopK(/*k=*/7, /*floor=*/kMinSupport)};
  for (const MiningQuery& q : queries) {
    EXPECT_EQ(Run(heap_, q), Run(mapped_, q))
        << GetParam().name << " task " << TaskName(q.task);
  }

  // Rules go through their own surface.
  auto miner = CreateMiner(GetParam().algorithm,
                           PatternSet::ApplicableTo(GetParam().algorithm));
  ASSERT_TRUE(miner.ok());
  const MiningQuery rules_query =
      MiningQuery::Rules(kMinSupport, /*min_confidence=*/0.5);
  std::vector<AssociationRule> heap_rules, mapped_rules;
  ASSERT_TRUE(miner.value()->MineRules(heap_, rules_query, &heap_rules).ok());
  ASSERT_TRUE(
      miner.value()->MineRules(mapped_, rules_query, &mapped_rules).ok());
  EXPECT_EQ(heap_rules, mapped_rules) << GetParam().name;
  EXPECT_FALSE(heap_rules.empty());
}

TEST_P(PackedMineIdentityTest, ParallelRunsMatchAtOneAndFourThreads) {
  for (uint32_t threads : {1u, 4u}) {
    MineOptions options;
    options.algorithm = GetParam().algorithm;
    options.min_support = kMinSupport;
    options.patterns = PatternSet::ApplicableTo(options.algorithm);
    options.execution.num_threads = threads;

    CollectingSink heap_sink, mapped_sink;
    auto heap_stats = Mine(heap_, options, &heap_sink);
    ASSERT_TRUE(heap_stats.ok()) << heap_stats.status();
    auto mapped_stats = Mine(mapped_, options, &mapped_sink);
    ASSERT_TRUE(mapped_stats.ok()) << mapped_stats.status();
    EXPECT_EQ(heap_sink.results(), mapped_sink.results())
        << GetParam().name << " at " << threads << " threads";
    EXPECT_FALSE(heap_sink.results().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, PackedMineIdentityTest,
    ::testing::Values(IdentityCase{Algorithm::kLcm, "lcm"},
                      IdentityCase{Algorithm::kEclat, "eclat"},
                      IdentityCase{Algorithm::kFpGrowth, "fpgrowth"}),
    [](const ::testing::TestParamInfo<IdentityCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace fpm
