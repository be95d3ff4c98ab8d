// Coordinator routing, failover and scatter tests — everything runs
// against an injected fake Transport (no sockets), which also carries
// the membership pings, so health is under test control too.

#include "fpm/cluster/coordinator.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fpm/cluster/hash_ring.h"
#include "fpm/core/mine.h"
#include "fpm/core/partition.h"
#include "fpm/dataset/packed.h"
#include "fpm/service/json.h"
#include "fpm/service/protocol.h"
#include "testing/db_testutil.h"

namespace fpm {
namespace {

using testutil::MakeDb;
using testutil::MineCanonical;

const std::vector<std::string> kPeers = {"n1:7100", "n2:7100", "n3:7100"};

ClusterOptions MakeOptions(const std::string& self, uint32_t replicas) {
  ClusterOptions options;
  options.self = self;
  options.peers = kPeers;
  options.replicas = replicas;
  options.ping_interval_seconds = 0.0;  // no pinger thread in tests
  return options;
}

/// A digest-shaped key whose owner set (at `replicas`) does or does not
/// include `self`, found by scanning — placement is deterministic, so
/// the scan is too.
std::string FindDigest(const ClusterOptions& options, bool self_owns) {
  const ConsistentHashRing ring(options.peers);
  for (int i = 0; i < 10000; ++i) {
    const std::string key = "digest" + std::to_string(i);
    const std::vector<std::string> owners =
        ring.Owners(key, options.replicas);
    const bool owns = std::find(owners.begin(), owners.end(),
                                options.self) != owners.end();
    if (owns == self_owns) return key;
  }
  ADD_FAILURE() << "no digest found with self_owns=" << self_owns;
  return "";
}

MineRequest MakeQuery(Support min_support) {
  MineRequest request;
  request.dataset_path = "/data/test.dat";
  request.query.min_support = min_support;
  return request;
}

MineResponse CannedResponse() {
  MineResponse response;
  response.task = MiningTask::kFrequent;
  response.num_frequent = 1;
  response.itemsets = {{{1, 2}, 5}};
  response.cache = CacheOutcome::kExact;
  return response;
}

/// Scripted fake transport: per-op handlers keyed on the decoded
/// request, with a per-endpoint call log. Scatter calls peers from one
/// thread per owner, so the log is guarded; handlers must be
/// thread-safe themselves.
struct FakePeers {
  using Handler = std::function<Result<std::string>(
      const std::string& endpoint, const ServiceRequest& request)>;

  Handler on_probe;
  Handler on_shard;
  std::mutex calls_mu;
  std::map<std::string, int> calls;  // endpoint -> transport calls

  Coordinator::Transport transport() {
    return [this](const std::string& endpoint, const std::string& line,
                  double /*deadline*/, const std::function<bool()>& /*abort*/)
               -> Result<std::string> {
      {
        std::lock_guard<std::mutex> lock(calls_mu);
        ++calls[endpoint];
      }
      Result<ServiceRequest> request = DecodeRequest(line);
      if (!request.ok()) return request.status();
      switch (request->op) {
        case ServiceRequest::Op::kPing:
          return std::string("{\"ok\":true}");
        case ServiceRequest::Op::kCacheProbe:
          return on_probe(endpoint, request.value());
        case ServiceRequest::Op::kShardQuery:
          return on_shard(endpoint, request.value());
        default:
          return Status::InvalidArgument("fake peer: unexpected op");
      }
    };
  }
};

/// For tests that never touch the wire: a transport that fails loudly.
Coordinator::Transport NoTransport() {
  return [](const std::string&, const std::string&, double,
            const std::function<bool()>&) -> Result<std::string> {
    ADD_FAILURE() << "unexpected transport call";
    return Status::Internal("no transport in this test");
  };
}

TEST(CoordinatorTest, OwnersMatchRingPlacement) {
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  Coordinator coordinator(options, NoTransport());
  const ConsistentHashRing ring(options.peers);
  for (int i = 0; i < 50; ++i) {
    const std::string digest = "d" + std::to_string(i);
    const std::vector<std::string> owners =
        coordinator.OwnersForDigest(digest);
    EXPECT_EQ(owners, ring.Owners(digest, 2)) << digest;
    EXPECT_EQ(coordinator.SelfOwns(digest),
              std::find(owners.begin(), owners.end(), "n1:7100") !=
                  owners.end())
        << digest;
  }
}

TEST(CoordinatorTest, ProbeHitAnswersWithoutForwarding) {
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  const std::string digest = FindDigest(options, /*self_owns=*/false);

  FakePeers peers;
  std::string probed_digest;
  peers.on_probe = [&](const std::string&, const ServiceRequest& request)
      -> Result<std::string> {
    probed_digest = request.cluster.digest;
    return EncodeCacheProbeResponse(true, CannedResponse());
  };
  peers.on_shard = [&](const std::string&, const ServiceRequest&)
      -> Result<std::string> {
    ADD_FAILURE() << "probe hit must not forward";
    return Status::Internal("unreachable");
  };

  Coordinator coordinator(options, peers.transport());
  Result<MineResponse> response =
      coordinator.ExecuteRemote(MakeQuery(2), digest, {});
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(probed_digest, digest);
  EXPECT_EQ(response->served_by, coordinator.OwnersForDigest(digest)[0]);
  EXPECT_EQ(response->num_frequent, 1u);
  EXPECT_EQ(response->cache, CacheOutcome::kExact);

  const Coordinator::Counters c = coordinator.counters();
  EXPECT_EQ(c.remote_queries, 1u);
  EXPECT_EQ(c.probe_hits, 1u);
  EXPECT_EQ(c.probe_misses, 0u);
  EXPECT_EQ(c.forwards, 0u);
  EXPECT_EQ(c.failovers, 0u);
}

TEST(CoordinatorTest, ProbeMissForwardsToPrimaryOwner) {
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  const std::string digest = FindDigest(options, /*self_owns=*/false);

  FakePeers peers;
  peers.on_probe = [](const std::string&, const ServiceRequest&)
      -> Result<std::string> {
    return EncodeCacheProbeResponse(false, {});
  };
  std::string forwarded_to;
  peers.on_shard = [&](const std::string& endpoint,
                       const ServiceRequest& request)
      -> Result<std::string> {
    EXPECT_EQ(request.cluster.shard_mode,
              ClusterOpRequest::ShardMode::kExecute);
    EXPECT_EQ(request.mine.query.min_support, 2u);
    EXPECT_EQ(request.mine.dataset_path, "/data/test.dat");
    forwarded_to = endpoint;
    MineResponse mined = CannedResponse();
    mined.cache = CacheOutcome::kMiss;
    return EncodeQueryResponse(mined);
  };

  Coordinator coordinator(options, peers.transport());
  Result<MineResponse> response =
      coordinator.ExecuteRemote(MakeQuery(2), digest, {});
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(forwarded_to, coordinator.OwnersForDigest(digest)[0]);
  EXPECT_EQ(response->served_by, forwarded_to);
  EXPECT_EQ(response->cache, CacheOutcome::kMiss);
  ASSERT_EQ(response->itemsets.size(), 1u);
  EXPECT_EQ(response->itemsets[0].second, 5u);

  const Coordinator::Counters c = coordinator.counters();
  EXPECT_EQ(c.probe_hits, 0u);
  EXPECT_EQ(c.probe_misses, 2u);  // both replicas probed, both missed
  EXPECT_EQ(c.forwards, 1u);
  EXPECT_EQ(c.failovers, 0u);
}

TEST(CoordinatorTest, DeadReplicaFailsOverAndTurnsUnhealthy) {
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  const std::string digest = FindDigest(options, /*self_owns=*/false);

  const std::string primary =
      ConsistentHashRing(options.peers).Owners(digest, options.replicas)[0];
  Coordinator coordinator(
      options,
      [primary](const std::string& endpoint, const std::string& line, double,
                const std::function<bool()>&) -> Result<std::string> {
        // The primary owner is down for everything; the replica
        // answers probes with a miss and forwards with a result.
        if (endpoint == primary) {
          return Status::Unavailable("peer " + endpoint +
                                     ": connection refused");
        }
        Result<ServiceRequest> request = DecodeRequest(line);
        if (!request.ok()) return request.status();
        if (request->op == ServiceRequest::Op::kCacheProbe) {
          return EncodeCacheProbeResponse(false, {});
        }
        MineResponse mined = CannedResponse();
        mined.cache = CacheOutcome::kMiss;
        return EncodeQueryResponse(mined);
      });

  Result<MineResponse> response =
      coordinator.ExecuteRemote(MakeQuery(2), digest, {});
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->served_by, coordinator.OwnersForDigest(digest)[1]);

  const Coordinator::Counters c = coordinator.counters();
  EXPECT_EQ(c.probe_misses, 1u);  // the dead primary's probe failed
  EXPECT_EQ(c.forwards, 2u);      // primary attempted, then the replica
  EXPECT_EQ(c.failovers, 1u);
  EXPECT_FALSE(coordinator.membership().IsHealthy(
      coordinator.OwnersForDigest(digest)[0]));
  EXPECT_TRUE(coordinator.membership().IsHealthy(
      coordinator.OwnersForDigest(digest)[1]));
}

TEST(CoordinatorTest, AllOwnersDownIsUnavailable) {
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  const std::string digest = FindDigest(options, /*self_owns=*/false);

  Coordinator coordinator(
      options,
      [](const std::string& endpoint, const std::string&, double,
         const std::function<bool()>&) -> Result<std::string> {
        return Status::Unavailable("peer " + endpoint + ": down");
      });

  Result<MineResponse> response =
      coordinator.ExecuteRemote(MakeQuery(2), digest, {});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(response.status().message().find("all 2 owner(s) of digest"),
            std::string::npos)
      << response.status().message();
  EXPECT_EQ(coordinator.counters().failovers, 2u);
}

TEST(CoordinatorTest, DeterministicRejectionDoesNotFailOver) {
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  const std::string digest = FindDigest(options, /*self_owns=*/false);

  FakePeers peers;
  peers.on_probe = [](const std::string&, const ServiceRequest&)
      -> Result<std::string> {
    return EncodeCacheProbeResponse(false, {});
  };
  int forward_attempts = 0;
  peers.on_shard = [&](const std::string&, const ServiceRequest&)
      -> Result<std::string> {
    ++forward_attempts;
    // The peer rejected the query itself (not a peer failure): every
    // replica would answer the same, so no retry.
    return EncodeError(Status::NotFound("unknown dataset id 'ds-9'"));
  };

  Coordinator coordinator(options, peers.transport());
  Result<MineResponse> response =
      coordinator.ExecuteRemote(MakeQuery(2), digest, {});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(response.status().message(), "unknown dataset id 'ds-9'");
  EXPECT_EQ(forward_attempts, 1);
  EXPECT_EQ(coordinator.counters().failovers, 0u);
}

TEST(CoordinatorTest, AbortCancelsBeforeAnyCall) {
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  const std::string digest = FindDigest(options, /*self_owns=*/false);
  FakePeers peers;
  Coordinator coordinator(options, peers.transport());
  Result<MineResponse> response =
      coordinator.ExecuteRemote(MakeQuery(2), digest, [] { return true; });
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(peers.calls.empty());
}

/// A fake cluster whose peers actually execute shard_query mine/count
/// over a shared database via the in-process shard primitives — the
/// exact code fpmd runs for those ops.
FakePeers::Handler ShardExecutingPeers(const Database& db) {
  return [&db](const std::string&, const ServiceRequest& request)
             -> Result<std::string> {
    const ShardSlice slice = {request.cluster.partition_index,
                              request.cluster.partition_count};
    if (request.cluster.shard_mode == ClusterOpRequest::ShardMode::kMine) {
      FPM_ASSIGN_OR_RETURN(
          std::vector<CollectingSink::Entry> local,
          MineShardPartition(db, slice, request.mine.query.min_support,
                             request.mine.algorithm, request.mine.patterns));
      return EncodeShardMineResponse(local);
    }
    FPM_ASSIGN_OR_RETURN(
        std::vector<Support> counts,
        CountShardPartition(db, slice, request.cluster.candidates));
    return EncodeShardCountResponse(counts);
  };
}

TEST(CoordinatorTest, ScatterMatchesDirectCanonicalMine) {
  const Database db = MakeDb({{1, 2, 3},
                              {1, 2},
                              {2, 3},
                              {1, 3},
                              {1, 2, 3, 4},
                              {4},
                              {2, 4},
                              {1, 4}});
  // replicas = 3 on a 3-node ring: every node owns every digest, so
  // scatter fans out over all three.
  const ClusterOptions options = MakeOptions("n1:7100", 3);

  FakePeers peers;
  peers.on_shard = ShardExecutingPeers(db);
  Coordinator coordinator(options, peers.transport());

  const MineRequest request = MakeQuery(2);
  Result<MineResponse> response =
      coordinator.ExecuteScatter(request, "some-digest", {});
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->shard_count, 3u);
  EXPECT_EQ(response->cache, CacheOutcome::kMiss);
  // served_by lists every participating owner.
  for (const std::string& peer : kPeers) {
    EXPECT_NE(response->served_by.find(peer), std::string::npos)
        << response->served_by;
  }

  Result<std::unique_ptr<Miner>> miner =
      CreateMiner(Algorithm::kLcm, PatternSet::None());
  ASSERT_TRUE(miner.ok()) << miner.status();
  const std::vector<CollectingSink::Entry> direct =
      MineCanonical(**miner, db, 2);
  EXPECT_EQ(response->itemsets, direct);
  EXPECT_EQ(response->num_frequent, direct.size());
  EXPECT_EQ(coordinator.counters().scatter_queries, 1u);
}

TEST(CoordinatorTest, ScatterSurvivesOneDeadOwner) {
  const Database db = MakeDb({{1, 2}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}});
  const ClusterOptions options = MakeOptions("n1:7100", 3);

  FakePeers peers;
  const FakePeers::Handler execute = ShardExecutingPeers(db);
  peers.on_shard = [&](const std::string& endpoint,
                       const ServiceRequest& request)
      -> Result<std::string> {
    if (endpoint == "n2:7100") {
      return Status::Unavailable("peer n2:7100: down");
    }
    return execute(endpoint, request);
  };
  Coordinator coordinator(options, peers.transport());

  Result<MineResponse> response =
      coordinator.ExecuteScatter(MakeQuery(2), "some-digest", {});
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_GE(coordinator.counters().failovers, 1u);

  Result<std::unique_ptr<Miner>> miner =
      CreateMiner(Algorithm::kLcm, PatternSet::None());
  ASSERT_TRUE(miner.ok()) << miner.status();
  EXPECT_EQ(response->itemsets, MineCanonical(**miner, db, 2));
}

TEST(CoordinatorTest, ScatterRejectsNonFrequentTasks) {
  const ClusterOptions options = MakeOptions("n1:7100", 3);
  FakePeers peers;
  Coordinator coordinator(options, peers.transport());
  MineRequest request = MakeQuery(2);
  request.query.task = MiningTask::kClosed;
  Result<MineResponse> response =
      coordinator.ExecuteScatter(request, "d", {});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(response.status().message(),
            "cluster: scatter supports task 'frequent' only");
}

TEST(CoordinatorTest, ScatterNeedsTwoHealthyOwners) {
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  const std::string digest = FindDigest(options, /*self_owns=*/false);
  FakePeers peers;
  Coordinator coordinator(options, peers.transport());
  // Kill one of the two owners: one healthy owner is not enough to
  // scatter, the caller should run the query whole instead.
  coordinator.membership().RecordFailure(
      coordinator.OwnersForDigest(digest)[0]);
  Result<MineResponse> response =
      coordinator.ExecuteScatter(MakeQuery(2), digest, {});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(response.status().message(),
            "cluster: scatter needs >= 2 healthy owners, have 1");
}

TEST(CoordinatorTest, DigestForPathFimiMatchesRegistryDigest) {
  const std::string path = testing::TempDir() + "/coord_digest.dat";
  const std::string bytes = "1 2 3\n1 2\n2 3\n";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  Coordinator coordinator(options, NoTransport());
  Result<std::string> digest = coordinator.DigestForPath(path);
  ASSERT_TRUE(digest.ok()) << digest.status();
  EXPECT_EQ(digest.value(), ContentDigest(bytes));

  // Memoized: rewriting the file does not re-digest (placement must
  // not drift while a node is up).
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "9 9 9\n";
  }
  Result<std::string> again = coordinator.DigestForPath(path);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value(), ContentDigest(bytes));
}

TEST(CoordinatorTest, DigestForPathReadsPackedHeader) {
  const std::string path = testing::TempDir() + "/coord_digest.fpk";
  const Database db = MakeDb({{1, 2}, {2, 3}});
  const std::string digest = "00deadbeef001234";
  ASSERT_TRUE(WritePacked(db, path, digest).ok());
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  Coordinator coordinator(options, NoTransport());
  Result<std::string> read = coordinator.DigestForPath(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), digest);
}

// A packed header OpenMapped refuses must not route: the coordinator
// reads the header with the same reader and gets the same IO_ERROR.
TEST(CoordinatorTest, DigestForPathRefusesAPackedHeaderOpenMappedRefuses) {
  const std::string path = testing::TempDir() + "/coord_bad_version.fpk";
  ASSERT_TRUE(WritePacked(MakeDb({{1, 2}, {2, 3}}), path).ok());
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(8);  // the format version word
    file.put('\x07');
  }
  const Result<Database> mapped = OpenMapped(path);
  ASSERT_FALSE(mapped.ok());
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  Coordinator coordinator(options, NoTransport());
  const Result<std::string> digest = coordinator.DigestForPath(path);
  ASSERT_FALSE(digest.ok()) << "routed on digest " << digest.value();
  EXPECT_EQ(digest.status().code(), StatusCode::kIOError);
  EXPECT_EQ(digest.status().message(), mapped.status().message());
  EXPECT_NE(digest.status().message().find("unsupported format version 7"),
            std::string::npos)
      << digest.status().message();
}

TEST(CoordinatorTest, DigestForPathMissingFileError) {
  const ClusterOptions options = MakeOptions("n1:7100", 2);
  Coordinator coordinator(options, NoTransport());
  Result<std::string> digest =
      coordinator.DigestForPath("/nonexistent-fpm-test/absent.dat");
  ASSERT_FALSE(digest.ok());
  EXPECT_EQ(digest.status().message(),
            "cluster: cannot open dataset '/nonexistent-fpm-test/absent.dat'");
}

TEST(CoordinatorTest, InfoJsonReportsPeersCountersAndPlacement) {
  const ClusterOptions options = MakeOptions("n2:7100", 2);
  FakePeers peers;
  Coordinator coordinator(options, peers.transport());
  coordinator.NoteProbeServed(true);
  coordinator.NoteProbeServed(false);
  coordinator.NoteLocalFallback();

  std::vector<DatasetRegistryStats::Dataset> datasets(1);
  datasets[0].id = "ds-1";
  datasets[0].path = "/data/test.dat";
  datasets[0].digest = "abcdef0123456789";

  const std::string text = coordinator.InfoJson(datasets, "abcdef0123456789");
  // Keys ascending, the same bytes the tree encoder wrote.
  EXPECT_EQ(text,
            "{\"counters\":{\"failovers\":0,\"forwards\":0,"
            "\"local_fallbacks\":1,\"probe_hits\":0,\"probe_hits_served\":1,"
            "\"probe_misses\":0,\"probe_misses_served\":1,"
            "\"remote_queries\":0,\"scatter_queries\":0},\"enabled\":true,"
            "\"peers\":[{\"consecutive_failures\":0,\"datasets_owned\":1,"
            "\"endpoint\":\"n1:7100\",\"failures\":0,\"healthy\":true,"
            "\"pings\":0,\"rtt_last_ms\":0,\"rtt_p50_ms\":0,\"rtt_p99_ms\":0,"
            "\"self\":false},{\"consecutive_failures\":0,\"datasets_owned\":1,"
            "\"endpoint\":\"n2:7100\",\"failures\":0,\"healthy\":true,"
            "\"pings\":0,\"rtt_last_ms\":0,\"rtt_p50_ms\":0,\"rtt_p99_ms\":0,"
            "\"self\":true},{\"consecutive_failures\":0,\"datasets_owned\":0,"
            "\"endpoint\":\"n3:7100\",\"failures\":0,\"healthy\":true,"
            "\"pings\":0,\"rtt_last_ms\":0,\"rtt_p50_ms\":0,\"rtt_p99_ms\":0,"
            "\"self\":false}],\"placement\":{\"digest\":\"abcdef0123456789\","
            "\"owners\":[\"n2:7100\",\"n1:7100\"]},\"replicas\":2,"
            "\"self\":\"n2:7100\",\"virtual_nodes\":64}");
  const Result<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& info = parsed.value();
  EXPECT_TRUE(info["enabled"].bool_value());
  EXPECT_EQ(info["self"].string_value(), "n2:7100");
  EXPECT_EQ(info["replicas"].int_value(), 2);
  ASSERT_EQ(info["peers"].array_items().size(), kPeers.size());
  // Peer rows cover the full configured cluster, self included.
  uint64_t owned_total = 0;
  for (const JsonValue& row : info["peers"].array_items()) {
    EXPECT_TRUE(row["healthy"].bool_value());
    owned_total +=
        static_cast<uint64_t>(row["datasets_owned"].int_value());
    if (row["endpoint"].string_value() == "n2:7100") {
      EXPECT_TRUE(row["self"].bool_value());
    }
  }
  // One dataset placed on `replicas` owners.
  EXPECT_EQ(owned_total, 2u);

  EXPECT_EQ(info["counters"]["probe_hits_served"].int_value(), 1);
  EXPECT_EQ(info["counters"]["probe_misses_served"].int_value(), 1);
  EXPECT_EQ(info["counters"]["local_fallbacks"].int_value(), 1);

  EXPECT_EQ(info["placement"]["digest"].string_value(), "abcdef0123456789");
  const std::vector<std::string> owners =
      coordinator.OwnersForDigest("abcdef0123456789");
  ASSERT_EQ(info["placement"]["owners"].array_items().size(), owners.size());
  for (size_t i = 0; i < owners.size(); ++i) {
    EXPECT_EQ(info["placement"]["owners"].array_items()[i].string_value(),
              owners[i]);
  }
}

}  // namespace
}  // namespace fpm
