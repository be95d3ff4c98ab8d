// Consistent-hash placement of datasets onto cluster nodes.
//
// Every node contributes `virtual_nodes` points to a 64-bit ring
// (FNV-1a of "node#i", then a splitmix64 finalizer — see MixPoint in
// the .cc); a key (the dataset's FNV content digest — the
// same digest packed headers, FIMI loads and version chains share, so
// every storage path routes identically) hashes to a point and its R
// owners are the first R *distinct* nodes walking clockwise. The
// properties the cluster relies on, each pinned by
// tests/cluster/hash_ring_test.cc:
//
//   Determinism  — placement is a pure function of the node-name set
//                  (not insertion order, not process history), so every
//                  node computes the same owners and restarts change
//                  nothing.
//   Balance      — 64 virtual nodes keep the max/mean shard load
//                  within ~1.25 (the Zymbler-style partition-balance
//                  bound ROADMAP asks for).
//   Minimal move — a ring built with one node more or one node less
//                  than another differs only in keys adjacent to that
//                  node's virtual points (the rendezvous/consistent
//                  rebalance property): without it, only the keys it
//                  owned move; with it, it steals only keys it now
//                  owns.
//
// The ring is placement policy only: it never dials anything and holds
// plain node-name strings ("host:port"). Health is layered on top by
// the Coordinator — the ring is built from the *configured* peer list,
// never the live one, so a flapping peer does not reshuffle placement;
// it is only skipped in failover order.

#ifndef FPM_CLUSTER_HASH_RING_H_
#define FPM_CLUSTER_HASH_RING_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fpm {

class ConsistentHashRing {
 public:
  /// Default virtual-node count; enough for a max/mean load ratio of
  /// ~1.25 on small clusters (see BalanceBound in the tests).
  static constexpr uint32_t kDefaultVirtualNodes = 64;

  /// Builds the ring over `nodes`; duplicates collapse. The node set is
  /// fixed for the ring's lifetime.
  explicit ConsistentHashRing(std::vector<std::string> nodes = {},
                              uint32_t virtual_nodes = kDefaultVirtualNodes);

  /// The first `replicas` distinct nodes clockwise from the key's ring
  /// point — the owner set, primary first. Fewer when the ring has
  /// fewer nodes; empty on an empty ring.
  std::vector<std::string> Owners(const std::string& key,
                                  uint32_t replicas) const;

  /// Member nodes, sorted (the canonical form determinism relies on).
  const std::vector<std::string>& nodes() const { return nodes_; }
  uint32_t virtual_nodes() const { return virtual_nodes_; }

  /// FNV-1a 64 — the ring's hash, exposed so tests can build adversarial
  /// keys. Matches the item hashing convention used across the repo.
  static uint64_t HashKey(const std::string& key);

 private:
  std::vector<std::string> nodes_;  // sorted, unique
  uint32_t virtual_nodes_;
  /// (point hash, index into nodes_), sorted by hash then index so ties
  /// break deterministically.
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
};

}  // namespace fpm

#endif  // FPM_CLUSTER_HASH_RING_H_
