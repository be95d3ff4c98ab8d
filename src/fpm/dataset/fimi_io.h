// Reader/writer for the FIMI workshop dataset format: one transaction per
// line, items as whitespace-separated non-negative integers. This is the
// interchange format of the FIMI'03/'04 repositories the paper draws its
// kernels and datasets from.

#ifndef FPM_DATASET_FIMI_IO_H_
#define FPM_DATASET_FIMI_IO_H_

#include <string>

#include "fpm/common/status.h"
#include "fpm/dataset/database.h"

namespace fpm {

/// Parses a FIMI-format database from a string (tests, generators).
/// An item id above kMaxItem (fpm/dataset/types.h) is an
/// INVALID_ARGUMENT naming its line and token.
Result<Database> ParseFimi(const std::string& text);

/// Reads a FIMI-format database from a file.
Result<Database> ReadFimiFile(const std::string& path);

/// Serializes a database to FIMI format. Weighted (merged-duplicate)
/// transactions are expanded back to `weight` copies so the output is a
/// faithful FIMI database.
std::string ToFimi(const Database& db);

/// Writes a database to a FIMI-format file.
Status WriteFimiFile(const Database& db, const std::string& path);

}  // namespace fpm

#endif  // FPM_DATASET_FIMI_IO_H_
