#include "fpm/dataset/versioned.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "fpm/common/hash.h"

namespace fpm {

namespace {

// FNV-1a 64-bit, matching the registry's file-content digest so the two
// digest spaces share a format (16 lowercase hex chars).
void FnvMix(uint64_t* h, const void* data, size_t len) {
  *h = Fnv1a64({static_cast<const char*>(data), len}, *h);
}

void FnvMixU64(uint64_t* h, uint64_t v) { FnvMix(h, &v, sizeof(v)); }

void FnvMixTxns(uint64_t* h, const std::vector<Itemset>& txns,
                const std::vector<Support>& weights) {
  FnvMixU64(h, txns.size());
  for (size_t t = 0; t < txns.size(); ++t) {
    FnvMixU64(h, txns[t].size());
    for (Item it : txns[t]) FnvMixU64(h, static_cast<uint64_t>(it));
    FnvMixU64(h, static_cast<uint64_t>(weights[t]));
  }
}

// Normalizes a raw transaction into the AddTransaction form: duplicates
// removed, first occurrence kept, input order otherwise preserved.
Itemset NormalizeTransaction(const Itemset& raw) {
  Itemset sorted = raw;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end()) {
    return raw;
  }
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  Itemset out;
  out.reserve(sorted.size());
  std::vector<Item> remaining = sorted;
  for (Item it : raw) {
    auto pos = std::lower_bound(remaining.begin(), remaining.end(), it);
    if (pos != remaining.end() && *pos == it) {
      out.push_back(it);
      remaining.erase(pos);
    }
  }
  return out;
}

}  // namespace

std::string ChainDigest(const std::string& parent_digest,
                        const VersionDelta& delta) {
  uint64_t h = kFnv1aOffsetBasis;
  FnvMix(&h, parent_digest.data(), parent_digest.size());
  // Tag the two halves so (append X) and (expire X) never collide.
  FnvMix(&h, "+", 1);
  FnvMixTxns(&h, delta.appended, delta.appended_weights);
  FnvMix(&h, "-", 1);
  FnvMixTxns(&h, delta.expired, delta.expired_weights);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 "", h);
  return std::string(buf);
}

VersionedDataset::VersionedDataset(Database base, std::string digest) {
  DatasetVersion v1;
  v1.number = 1;
  v1.digest = std::move(digest);
  v1.num_transactions = base.num_transactions();
  v1.database = std::make_shared<const Database>(std::move(base));
  versions_.push_back(std::move(v1));
}

void VersionedDataset::EnsureSeeded() {
  if (seeded_) return;
  seeded_ = true;
  // Seed the log from the base so later expiry can rebuild any window.
  const Database& base = *versions_.front().database;
  log_.reserve(base.num_transactions());
  for (Tid t = 0; t < base.num_transactions(); ++t) {
    auto txn = base.transaction(t);
    LogEntry e;
    e.items.assign(txn.begin(), txn.end());
    e.weight = base.weight(t);
    log_.push_back(std::move(e));
  }
}

size_t VersionedDataset::PolicyOverflow() const {
  const size_t live = log_.size() - window_start_;
  size_t expire = 0;
  if (policy_.last_n > 0 && live > policy_.last_n) {
    expire = live - static_cast<size_t>(policy_.last_n);
  }
  if (policy_.last_seconds > 0.0) {
    const double cutoff = max_timestamp_ - policy_.last_seconds;
    size_t by_time = 0;
    while (by_time < live &&
           log_[window_start_ + by_time].timestamp < cutoff) {
      ++by_time;
    }
    expire = std::max(expire, by_time);
  }
  return expire;
}

const DatasetVersion* VersionedDataset::Commit(
    size_t new_start, std::shared_ptr<VersionDelta> delta) {
  const DatasetVersion& parent = versions_.back();
  DatabaseBuilder builder;
  if (new_start == window_start_) {
    // Append-only: bulk-copy the parent CSR, then append the delta.
    builder.AddDatabase(*parent.database);
    for (size_t t = 0; t < delta->appended.size(); ++t) {
      builder.AddTransaction(
          std::span<const Item>(delta->appended[t].data(),
                                delta->appended[t].size()),
          delta->appended_weights[t]);
    }
  } else {
    // Expiry moved the window start: rebuild from the log window. The
    // appended transactions are already in the log, so this covers both
    // halves of the delta.
    for (size_t t = new_start; t < log_.size(); ++t) {
      builder.AddTransaction(
          std::span<const Item>(log_[t].items.data(), log_[t].items.size()),
          log_[t].weight);
    }
  }
  window_start_ = new_start;

  DatasetVersion v;
  v.number = parent.number + 1;
  v.parent_digest = parent.digest;
  v.digest = ChainDigest(parent.digest, *delta);
  v.appended_weight = delta->appended_weight;
  v.expired_weight = delta->expired_weight;
  v.delta = std::move(delta);
  Database db = builder.Build();
  v.num_transactions = db.num_transactions();
  v.database = std::make_shared<const Database>(std::move(db));
  versions_.push_back(std::move(v));
  return &versions_.back();
}

const DatasetVersion* VersionedDataset::SetPolicy(const WindowPolicy& policy) {
  // An unbounded policy can never overflow; don't seed the log for it.
  if (policy.bounded()) EnsureSeeded();
  policy_ = policy;
  const size_t overflow = PolicyOverflow();
  if (overflow == 0) return &versions_.back();
  return Expire(overflow).value();
}

Result<const DatasetVersion*> VersionedDataset::Append(
    const std::vector<Itemset>& transactions,
    const std::vector<double>& timestamps) {
  if (transactions.empty()) {
    return Status::InvalidArgument("append requires at least one transaction");
  }
  EnsureSeeded();
  if (!timestamps.empty() && timestamps.size() != transactions.size()) {
    return Status::InvalidArgument(
        "timestamps must be absent or one per transaction");
  }
  for (const Itemset& t : transactions) {
    if (t.empty()) {
      return Status::InvalidArgument("appended transactions must be non-empty");
    }
  }
  auto delta = std::make_shared<VersionDelta>();
  delta->appended.reserve(transactions.size());
  for (size_t t = 0; t < transactions.size(); ++t) {
    LogEntry e;
    e.items = NormalizeTransaction(transactions[t]);
    e.weight = 1;
    e.timestamp = timestamps.empty() ? max_timestamp_ : timestamps[t];
    if (e.timestamp > max_timestamp_) max_timestamp_ = e.timestamp;
    delta->appended.push_back(e.items);
    delta->appended_weights.push_back(e.weight);
    delta->appended_weight += e.weight;
    log_.push_back(std::move(e));
  }
  size_t new_start = window_start_;
  const size_t overflow = PolicyOverflow();
  for (size_t i = 0; i < overflow; ++i) {
    const LogEntry& e = log_[window_start_ + i];
    delta->expired.push_back(e.items);
    delta->expired_weights.push_back(e.weight);
    delta->expired_weight += e.weight;
  }
  new_start += overflow;
  return Commit(new_start, std::move(delta));
}

Result<const DatasetVersion*> VersionedDataset::Expire(uint64_t count) {
  EnsureSeeded();
  const size_t live = log_.size() - window_start_;
  if (count < 1 || count > live) {
    return Status::OutOfRange("expire count must be in [1, " +
                              std::to_string(live) + "], got " +
                              std::to_string(count));
  }
  auto delta = std::make_shared<VersionDelta>();
  for (uint64_t i = 0; i < count; ++i) {
    const LogEntry& e = log_[window_start_ + i];
    delta->expired.push_back(e.items);
    delta->expired_weights.push_back(e.weight);
    delta->expired_weight += e.weight;
  }
  return Commit(window_start_ + static_cast<size_t>(count), std::move(delta));
}

size_t VersionedDataset::resident_bytes() const {
  size_t bytes = 0;
  for (const DatasetVersion& v : versions_) {
    if (v.database) bytes += v.database->resident_bytes();
  }
  for (const LogEntry& e : log_) {
    bytes += e.items.size() * sizeof(Item) + sizeof(LogEntry);
  }
  return bytes;
}

size_t VersionedDataset::mapped_bytes() const {
  size_t bytes = 0;
  for (const DatasetVersion& v : versions_) {
    if (v.database) bytes += v.database->mapped_bytes();
  }
  return bytes;
}

}  // namespace fpm
