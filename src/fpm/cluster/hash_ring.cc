#include "fpm/cluster/hash_ring.h"

#include <algorithm>

#include "fpm/common/hash.h"

namespace fpm {

namespace {

/// Finalizing mixer (splitmix64's). FNV-1a alone avalanches poorly on
/// short, similar inputs ("host:port#3" vs "host:port#4"), which clumps
/// virtual-node points on the ring and blows the 1.25 balance bound.
/// Every ring point — virtual nodes and key lookups alike — goes
/// through the same mix, so placement stays a pure function of HashKey.
uint64_t MixPoint(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

uint64_t ConsistentHashRing::HashKey(const std::string& key) {
  return Fnv1a64(key);
}

ConsistentHashRing::ConsistentHashRing(std::vector<std::string> nodes,
                                       uint32_t virtual_nodes)
    : nodes_(std::move(nodes)),
      virtual_nodes_(virtual_nodes == 0 ? 1 : virtual_nodes) {
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  ring_.reserve(nodes_.size() * virtual_nodes_);
  for (uint32_t n = 0; n < nodes_.size(); ++n) {
    for (uint32_t v = 0; v < virtual_nodes_; ++v) {
      ring_.emplace_back(MixPoint(HashKey(nodes_[n] + "#" + std::to_string(v))),
                         n);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::vector<std::string> ConsistentHashRing::Owners(
    const std::string& key, uint32_t replicas) const {
  std::vector<std::string> owners;
  if (ring_.empty() || replicas == 0) return owners;
  const uint32_t want =
      std::min<uint32_t>(replicas, static_cast<uint32_t>(nodes_.size()));
  const uint64_t point = MixPoint(HashKey(key));
  // First ring entry strictly after the key's point, wrapping.
  size_t start = std::upper_bound(ring_.begin(), ring_.end(),
                                  std::make_pair(point, UINT32_MAX)) -
                 ring_.begin();
  std::vector<bool> taken(nodes_.size(), false);
  for (size_t step = 0; step < ring_.size() && owners.size() < want; ++step) {
    const uint32_t node = ring_[(start + step) % ring_.size()].second;
    if (taken[node]) continue;
    taken[node] = true;
    owners.push_back(nodes_[node]);
  }
  return owners;
}

}  // namespace fpm
