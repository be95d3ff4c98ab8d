// Packed on-disk database format + memory-mapped storage backend.
//
// A packed file is the CSR arrays of a Database written verbatim in
// little-endian with a fixed 80-byte header, so OpenMapped() can serve
// the arrays straight out of the page cache — the Database's spans
// point into the mapping and mining never heap-copies the data. The
// transaction order of the writer is preserved; pack after the
// lexicographic layout pass and every projection scan walks the file
// sequentially (the paper's P1 locality argument, applied to pages
// instead of cache lines).
//
// File layout (all integers little-endian; static_assert'd 8-byte
// size_t):
//
//   offset  size  field
//        0     8  magic "FPMPACK1"
//        8     4  format version (u32, currently 1)
//       12     4  endian check word (u32, 0x01020304)
//       16     8  num_transactions (u64)
//       24     8  num_items (u64)
//       32     8  num_entries (u64)
//       40     8  total_weight (u64)
//       48     4  flags (u32; bit 0 = has per-transaction weights)
//       52     4  reserved (u32, 0)
//       56    16  content digest, 16 lowercase hex chars (not NUL
//                 terminated)
//       72     8  reserved (u64, 0)
//       80     —  offsets array, (num_transactions + 1) x u64
//             —  items array, num_entries x u32
//             —  weights array, num_transactions x u32 (only when flag
//                 bit 0 is set)
//             —  frequencies array, num_items x u32
//
// The header digest is the FNV-1a digest of the dataset's *content*
// (by convention the raw FIMI bytes it was packed from), not of the
// packed file — so the DatasetRegistry and ResultCache key a dataset
// identically whether it was parsed to heap or mapped from disk.

#ifndef FPM_DATASET_PACKED_H_
#define FPM_DATASET_PACKED_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "fpm/common/status.h"
#include "fpm/dataset/database.h"

namespace fpm {

/// First 8 bytes of every packed file.
inline constexpr char kPackedMagic[8] = {'F', 'P', 'M', 'P', 'A', 'C', 'K',
                                         '1'};

/// Current (and only) format version.
inline constexpr uint32_t kPackedFormatVersion = 1;

/// Value of the endian check word as written; a big-endian reader would
/// see 0x04030201 and must reject the file.
inline constexpr uint32_t kPackedEndianCheck = 0x01020304u;

/// Header size; the offsets array starts here (8-byte aligned).
inline constexpr size_t kPackedHeaderBytes = 80;

/// FNV-1a 64-bit digest of `bytes`, as 16 lowercase hex chars. This is
/// the content-addressing key of the whole system: DatasetRegistry ids,
/// version chains, and ResultCache entries all hang off it.
std::string ContentDigest(const std::string& bytes);

/// Writes `db` to `path` in packed format. `digest` is the 16-hex
/// content digest recorded in the header; pass the digest of the source
/// bytes when converting a file (fpm_pack does), or leave empty to
/// derive one from the canonical FIMI serialization of `db`.
Status WritePacked(const Database& db, const std::string& path,
                   std::string digest = "");

/// Reads a packed file's header from its first bytes, `header` (the
/// whole file or at least its first kPackedHeaderBytes): checks the
/// length, the magic, the format version and the endian word, and
/// returns the 16-hex content digest. The one header reader: OpenMapped
/// and the cluster coordinator both use it, so both refuse the same
/// files with the same IO_ERROR, naming `path` and the byte offset.
Result<std::string> ReadPackedHeader(const std::string& path,
                                     std::string_view header);

/// Maps `path` (mmap PROT_READ + MADV_SEQUENTIAL) and returns a
/// Database viewing the file's arrays. The mapping lives as long as any
/// copy of the returned Database. On success `*digest` (when non-null)
/// receives the header's content digest. Errors carry the path and the
/// file offset of the problem. Besides the header's counts and the
/// offsets array, it reads the whole items array once: an item id that
/// is not below the header's item count is refused here, since every
/// miner indexes per-item arrays by it.
Result<Database> OpenMapped(const std::string& path,
                            std::string* digest = nullptr);

/// True when the file at `path` starts with the packed magic. Cheap
/// sniff (reads 8 bytes); false for unreadable or short files.
bool IsPackedFile(const std::string& path);

}  // namespace fpm

#endif  // FPM_DATASET_PACKED_H_
