#include "fpm/dataset/packed.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "fpm/common/hash.h"
#include "fpm/dataset/fimi_io.h"

namespace fpm {

// The format stores offsets as u64 and the arrays are written verbatim
// from host memory, so this code requires a 64-bit little-endian host
// (the only targets this repo builds for).
static_assert(sizeof(size_t) == 8, "packed format requires 64-bit size_t");
static_assert(std::endian::native == std::endian::little,
              "packed format requires a little-endian host");
static_assert(sizeof(Item) == 4 && sizeof(Support) == 4,
              "packed format stores items/supports/weights as u32");

std::string ContentDigest(const std::string& bytes) {
  const uint64_t h = Fnv1a64(bytes);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

namespace {

constexpr uint32_t kFlagHasWeights = 1u << 0;

// Field offsets within the header (see packed.h for the layout table).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 8;
constexpr size_t kOffEndian = 12;
constexpr size_t kOffNumTransactions = 16;
constexpr size_t kOffNumItems = 24;
constexpr size_t kOffNumEntries = 32;
constexpr size_t kOffTotalWeight = 40;
constexpr size_t kOffFlags = 48;
constexpr size_t kOffDigest = 56;

Status PackedError(const std::string& path, size_t offset, std::string what) {
  return Status::IOError("packed file '" + path + "': " + std::move(what) +
                         " at offset " + std::to_string(offset));
}

Status TruncatedHeader(const std::string& path, size_t bytes) {
  return PackedError(path, bytes,
                     "truncated header (" + std::to_string(bytes) + " of " +
                         std::to_string(kPackedHeaderBytes) + " bytes)");
}

template <typename T>
void PutLe(std::string& buf, size_t offset, T value) {
  std::memcpy(buf.data() + offset, &value, sizeof(T));
}

template <typename T>
T GetLe(const uint8_t* base, size_t offset) {
  T value;
  std::memcpy(&value, base + offset, sizeof(T));
  return value;
}

// Owns a read-only mmap of a packed file. The Database's spans point
// into the mapping; the last Database copy unmaps it.
class MappedStorage final : public DatabaseStorage {
 public:
  MappedStorage(void* base, size_t length) : base_(base), length_(length) {}
  MappedStorage(const MappedStorage&) = delete;
  MappedStorage& operator=(const MappedStorage&) = delete;
  ~MappedStorage() override { ::munmap(base_, length_); }

  StorageKind kind() const override { return StorageKind::kPacked; }
  size_t resident_bytes() const override { return 0; }
  size_t mapped_bytes() const override { return length_; }

  const uint8_t* data() const {
    return static_cast<const uint8_t*>(base_);
  }

 private:
  void* base_;
  size_t length_;
};

size_t PackedFileBytes(size_t num_transactions, size_t num_items,
                       size_t num_entries, bool has_weights) {
  return kPackedHeaderBytes + (num_transactions + 1) * sizeof(size_t) +
         num_entries * sizeof(Item) +
         (has_weights ? num_transactions * sizeof(Support) : 0) +
         num_items * sizeof(Support);
}

}  // namespace

Status WritePacked(const Database& db, const std::string& path,
                   std::string digest) {
  if (digest.empty()) digest = ContentDigest(ToFimi(db));
  if (digest.size() != 16) {
    return Status::InvalidArgument(
        "packed digest must be 16 hex chars, got '" + digest + "'");
  }

  std::string header(kPackedHeaderBytes, '\0');
  std::memcpy(header.data() + kOffMagic, kPackedMagic, sizeof(kPackedMagic));
  PutLe<uint32_t>(header, kOffVersion, kPackedFormatVersion);
  PutLe<uint32_t>(header, kOffEndian, kPackedEndianCheck);
  PutLe<uint64_t>(header, kOffNumTransactions, db.num_transactions());
  PutLe<uint64_t>(header, kOffNumItems, db.num_items());
  PutLe<uint64_t>(header, kOffNumEntries, db.num_entries());
  PutLe<uint64_t>(header, kOffTotalWeight, db.total_weight());
  PutLe<uint32_t>(header, kOffFlags, db.has_weights() ? kFlagHasWeights : 0);
  std::memcpy(header.data() + kOffDigest, digest.data(), 16);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot create packed file '" + path + "'");
  }
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  const auto write_span = [&out](const auto& span) {
    out.write(reinterpret_cast<const char*>(span.data()),
              static_cast<std::streamsize>(span.size_bytes()));
  };
  // An empty database still has the offsets sentinel row.
  if (db.offsets().empty()) {
    const size_t zero = 0;
    out.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
  } else {
    write_span(db.offsets());
  }
  write_span(db.items());
  if (db.has_weights()) write_span(db.weights());
  write_span(db.item_frequencies());

  out.flush();
  if (!out) {
    return Status::IOError("write failed for packed file '" + path + "'");
  }
  return Status::OK();
}

Result<std::string> ReadPackedHeader(const std::string& path,
                                     std::string_view header) {
  if (header.size() < kPackedHeaderBytes) {
    return TruncatedHeader(path, header.size());
  }
  const auto* data = reinterpret_cast<const uint8_t*>(header.data());
  if (std::memcmp(data + kOffMagic, kPackedMagic, sizeof(kPackedMagic)) != 0) {
    return PackedError(path, kOffMagic, "bad magic (not a packed database)");
  }
  const uint32_t version = GetLe<uint32_t>(data, kOffVersion);
  if (version != kPackedFormatVersion) {
    return PackedError(path, kOffVersion,
                       "unsupported format version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kPackedFormatVersion) + ")");
  }
  const uint32_t endian = GetLe<uint32_t>(data, kOffEndian);
  if (endian != kPackedEndianCheck) {
    char got[11];
    std::snprintf(got, sizeof(got), "0x%08x", endian);
    return PackedError(path, kOffEndian,
                       std::string("endian check mismatch (") + got +
                           ", written on an incompatible host?)");
  }
  return std::string(header.substr(kOffDigest, 16));
}

Result<Database> OpenMapped(const std::string& path, std::string* digest) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open packed file '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status err = Status::IOError("cannot stat packed file '" + path +
                                       "': " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  const size_t file_bytes = static_cast<size_t>(st.st_size);
  if (file_bytes < kPackedHeaderBytes) {
    ::close(fd);
    return TruncatedHeader(path, file_bytes);
  }

  void* base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  // The fd is no longer needed once the mapping exists.
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IOError(
        "mmap failed for packed file '" + path + "' (" +
        std::to_string(file_bytes) + " bytes): " + std::strerror(errno));
  }
  // Projection scans walk the arrays front to back; tell the kernel so
  // readahead streams pages in ahead of the miner (best-effort hint).
  ::madvise(base, file_bytes, MADV_SEQUENTIAL);
  auto storage = std::make_shared<MappedStorage>(base, file_bytes);
  const uint8_t* data = storage->data();
  const std::string_view header(reinterpret_cast<const char*>(data),
                                kPackedHeaderBytes);
  FPM_ASSIGN_OR_RETURN(std::string header_digest,
                       ReadPackedHeader(path, header));

  const uint64_t num_transactions =
      GetLe<uint64_t>(data, kOffNumTransactions);
  const uint64_t num_items = GetLe<uint64_t>(data, kOffNumItems);
  const uint64_t num_entries = GetLe<uint64_t>(data, kOffNumEntries);
  const uint64_t total_weight = GetLe<uint64_t>(data, kOffTotalWeight);
  const uint32_t flags = GetLe<uint32_t>(data, kOffFlags);
  const bool has_weights = (flags & kFlagHasWeights) != 0;
  if (total_weight > std::numeric_limits<Support>::max()) {
    return PackedError(path, kOffTotalWeight,
                       "total weight " + std::to_string(total_weight) +
                           " overflows 32-bit support");
  }
  // Every counted element takes at least four bytes of the file. A
  // larger count is corrupt, and would let the size below wrap around
  // 2^64 to a value that matches a short file.
  for (size_t offset : {kOffNumTransactions, kOffNumItems, kOffNumEntries}) {
    const uint64_t count = GetLe<uint64_t>(data, offset);
    if (count > file_bytes) {
      return PackedError(path, offset,
                         "count " + std::to_string(count) +
                             " exceeds the file size");
    }
  }

  const size_t expected =
      PackedFileBytes(num_transactions, num_items, num_entries, has_weights);
  if (file_bytes != expected) {
    return PackedError(
        path, file_bytes < expected ? file_bytes : expected,
        "truncated or oversized body (header promises " +
            std::to_string(expected) + " bytes, file has " +
            std::to_string(file_bytes) + ")");
  }

  size_t cursor = kPackedHeaderBytes;
  const size_t offsets_at = cursor;
  const auto* offsets_ptr = reinterpret_cast<const size_t*>(data + cursor);
  cursor += (num_transactions + 1) * sizeof(size_t);
  const size_t items_at = cursor;
  const auto* items_ptr = reinterpret_cast<const Item*>(data + cursor);
  cursor += num_entries * sizeof(Item);
  const Support* weights_ptr = nullptr;
  if (has_weights) {
    weights_ptr = reinterpret_cast<const Support*>(data + cursor);
    cursor += num_transactions * sizeof(Support);
  }
  const size_t freq_at = cursor;
  const auto* freq_ptr = reinterpret_cast<const Support*>(data + cursor);

  // Validate the CSR spine before anyone indexes through it: a corrupt
  // offsets array would turn transaction() into an out-of-bounds read.
  // O(num_transactions) over the (small) offsets array only.
  if (offsets_ptr[0] != 0) {
    return PackedError(path, offsets_at, "corrupt offsets array (first != 0)");
  }
  for (uint64_t t = 0; t < num_transactions; ++t) {
    if (offsets_ptr[t + 1] < offsets_ptr[t]) {
      return PackedError(path, offsets_at + (t + 1) * sizeof(size_t),
                         "corrupt offsets array (not monotone at row " +
                             std::to_string(t + 1) + ")");
    }
  }
  if (offsets_ptr[num_transactions] != num_entries) {
    return PackedError(path, offsets_at + num_transactions * sizeof(size_t),
                       "corrupt offsets array (last != num_entries)");
  }
  // Miners index per-item arrays by item id, and read a transaction's
  // items as distinct and the stored frequencies and total weight as the
  // body's; a body that breaks any of these is answered differently by
  // each miner. One pass over the items refuses an id at or past the
  // header's item count and an item that repeats in its transaction (a
  // per-item marker of the last transaction holding it), and counts the
  // body's frequencies and weight in 64 bits, so no sum wraps into a
  // match.
  std::vector<uint64_t> last_holder(num_items, 0);  // tid + 1, 0: none yet
  std::vector<uint64_t> counted(num_items, 0);
  uint64_t counted_weight = 0;
  for (uint64_t t = 0; t < num_transactions; ++t) {
    const uint64_t weight = has_weights ? weights_ptr[t] : 1;
    counted_weight += weight;
    for (size_t e = offsets_ptr[t]; e < offsets_ptr[t + 1]; ++e) {
      const Item item = items_ptr[e];
      if (item >= num_items) {
        return PackedError(path, items_at + e * sizeof(Item),
                           "item id " + std::to_string(item) +
                               " is not below the item count " +
                               std::to_string(num_items));
      }
      if (last_holder[item] == t + 1) {
        return PackedError(path, items_at + e * sizeof(Item),
                           "transaction " + std::to_string(t) +
                               " repeats item " + std::to_string(item));
      }
      last_holder[item] = t + 1;
      counted[item] += weight;
    }
  }
  for (uint64_t i = 0; i < num_items; ++i) {
    if (freq_ptr[i] != counted[i]) {
      return PackedError(
          path, freq_at + i * sizeof(Support),
          "stored frequency " + std::to_string(freq_ptr[i]) + " of item " +
              std::to_string(i) + " is not the body's " +
              std::to_string(counted[i]));
    }
  }
  if (total_weight != counted_weight) {
    return PackedError(path, kOffTotalWeight,
                       "total weight " + std::to_string(total_weight) +
                           " is not the body's " +
                           std::to_string(counted_weight));
  }

  if (digest != nullptr) *digest = std::move(header_digest);

  return Database::FromStorage(
      std::move(storage), {items_ptr, num_entries},
      {offsets_ptr, num_transactions + 1},
      has_weights ? std::span<const Support>{weights_ptr, num_transactions}
                  : std::span<const Support>{},
      {freq_ptr, num_items}, num_items,
      static_cast<Support>(total_weight));
}

bool IsPackedFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kPackedMagic)];
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kPackedMagic, sizeof(magic)) == 0;
}

}  // namespace fpm
