// Correctness checks the benchmark applies to every answer, outside the
// answer's timed span. Each returns an empty string on success and a
// description of the first mismatch otherwise.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "json.h"

namespace perfbench {

/// Order-insensitive fingerprint of a listing: insensitive to entry order
/// and to item order within an entry.
struct ListingDigest {
  uint64_t count = 0;
  uint64_t sum = 0;

  bool operator==(const ListingDigest&) const = default;
};

ListingDigest DigestOf(const Listing& listing);

/// Reads mine_cli --output ("i j k (support)" per line).
bool ReadMineCliListing(const std::string& path, Listing* out,
                        std::string* error);

/// The answer must be a listing equal to `expected`.
std::string CheckListing(const Listing& answer, const ListingDigest& expected);

/// What one kernel's Mine() call produced (CountingSink aggregates).
struct KernelAnswer {
  std::string kernel;
  uint64_t count = 0;
  uint64_t checksum = 0;
};

/// Every kernel of a mine_parallel round must report the count and
/// checksum of `reference`, the sequential kernel's answer on the same
/// data, and the reference count must be nonzero. Kernels that agree
/// only with each other fail: they share the parallel driver.
std::string CheckKernels(const std::vector<KernelAnswer>& answers,
                         const KernelAnswer& reference);

/// Feeds every checker a corrupted expectation and confirms it reports a
/// failure (and that the uncorrupted expectation passes). Empty on
/// success, else which checker let a corruption through.
std::string SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
