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

// Appends rows [begin, end) of `db` to one half of a delta.
void CopyRows(const Database& db, Tid begin, Tid end,
              std::vector<Itemset>* rows, std::vector<Support>* weights,
              Support* total) {
  for (Tid t = begin; t < end; ++t) {
    rows->emplace_back(db.transaction(t).begin(), db.transaction(t).end());
    weights->push_back(db.weight(t));
    *total += db.weight(t);
  }
}

// Items held by rows [begin, end) of `db`.
size_t RowEntries(const Database& db, Tid begin, Tid end) {
  return begin == end ? 0 : db.offsets()[end] - db.offsets()[begin];
}

// Heap bytes of a delta's rows and weights.
size_t DeltaBytes(const VersionDelta& d) {
  size_t bytes = sizeof(VersionDelta) +
                 (d.appended.capacity() + d.expired.capacity()) *
                     sizeof(Itemset) +
                 (d.appended_weights.capacity() +
                  d.expired_weights.capacity()) *
                     sizeof(Support);
  for (const Itemset& row : d.appended) bytes += row.capacity() * sizeof(Item);
  for (const Itemset& row : d.expired) bytes += row.capacity() * sizeof(Item);
  return bytes;
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

size_t VersionedDataset::PolicyOverflow(size_t live) const {
  size_t expire = 0;
  if (policy_.last_n > 0 && live > policy_.last_n) {
    expire = live - static_cast<size_t>(policy_.last_n);
  }
  if (policy_.last_seconds > 0.0) {
    const double cutoff = max_timestamp_ - policy_.last_seconds;
    const size_t untimed = live - timestamps_.size();
    size_t by_time = 0;
    while (by_time < live &&
           (by_time < untimed ? 0.0 : timestamps_[by_time - untimed]) <
               cutoff) {
      ++by_time;
    }
    expire = std::max(expire, by_time);
  }
  return expire;
}

const DatasetVersion* VersionedDataset::Commit(size_t expire,
                                               const Database& appended) {
  const DatasetVersion& parent = versions_.back();
  const Database& head = *parent.database;
  const Tid head_rows = static_cast<Tid>(head.num_transactions());
  const Tid appended_rows = static_cast<Tid>(appended.num_transactions());
  // The first `expire` rows of head ++ appended go: the first appended
  // rows too when the append alone overflows the window.
  const Tid head_expired =
      static_cast<Tid>(std::min<size_t>(expire, head_rows));
  const Tid appended_expired = static_cast<Tid>(expire - head_expired);

  auto delta = std::make_shared<VersionDelta>();
  CopyRows(appended, 0, appended_rows, &delta->appended,
           &delta->appended_weights, &delta->appended_weight);
  CopyRows(head, 0, head_expired, &delta->expired, &delta->expired_weights,
           &delta->expired_weight);
  CopyRows(appended, 0, appended_expired, &delta->expired,
           &delta->expired_weights, &delta->expired_weight);

  DatabaseBuilder builder;
  builder.Reserve(head_rows + appended_rows - expire,
                  RowEntries(head, head_expired, head_rows) +
                      RowEntries(appended, appended_expired, appended_rows));
  builder.AddRows(head, head_expired, head_rows);
  builder.AddRows(appended, appended_expired, appended_rows);

  // The expired rows past the untimed ones drop their timestamps.
  const size_t untimed = head_rows + appended_rows - timestamps_.size();
  if (expire > untimed) {
    timestamps_.erase(timestamps_.begin(),
                      timestamps_.begin() +
                          static_cast<std::ptrdiff_t>(expire - untimed));
  }

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
  policy_ = policy;
  const size_t overflow = PolicyOverflow(live_transactions());
  if (overflow == 0) return &versions_.back();
  return Expire(overflow).value();
}

Result<const DatasetVersion*> VersionedDataset::Append(
    const std::vector<Itemset>& transactions,
    const std::vector<double>& timestamps) {
  if (transactions.empty()) {
    return Status::InvalidArgument("append requires at least one transaction");
  }
  if (!timestamps.empty() && timestamps.size() != transactions.size()) {
    return Status::InvalidArgument(
        "timestamps must be absent or one per transaction");
  }
  for (size_t t = 0; t < transactions.size(); ++t) {
    if (transactions[t].empty()) {
      return Status::InvalidArgument("appended transactions must be non-empty");
    }
    for (Item item : transactions[t]) {
      if (item > kMaxItem) {
        return Status::InvalidArgument(
            "transactions[" + std::to_string(t) + "]: item " +
            std::to_string(item) + " exceeds the largest item id " +
            std::to_string(kMaxItem));
      }
    }
  }
  DatabaseBuilder builder;
  for (const Itemset& txn : transactions) {
    builder.AddTransaction(std::span<const Item>(txn.data(), txn.size()));
  }
  const Database appended = builder.Build();
  for (size_t t = 0; t < transactions.size(); ++t) {
    const double stamp = timestamps.empty() ? max_timestamp_ : timestamps[t];
    max_timestamp_ = std::max(max_timestamp_, stamp);
    timestamps_.push_back(stamp);
  }
  const size_t live = live_transactions() + transactions.size();
  return Commit(PolicyOverflow(live), appended);
}

Result<const DatasetVersion*> VersionedDataset::Expire(uint64_t count) {
  const uint64_t live = live_transactions();
  if (count < 1 || count > live) {
    return Status::OutOfRange("expire count must be in [1, " +
                              std::to_string(live) + "], got " +
                              std::to_string(count));
  }
  return Commit(static_cast<size_t>(count), Database());
}

size_t VersionedDataset::resident_bytes() const {
  size_t bytes = timestamps_.capacity() * sizeof(double);
  for (const DatasetVersion& v : versions_) {
    bytes += v.database->resident_bytes();
    if (v.delta != nullptr) bytes += DeltaBytes(*v.delta);
  }
  return bytes;
}

size_t VersionedDataset::mapped_bytes() const {
  size_t bytes = 0;
  for (const DatasetVersion& v : versions_) {
    bytes += v.database->mapped_bytes();
  }
  return bytes;
}

}  // namespace fpm
