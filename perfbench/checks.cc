#include "checks.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {
namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Hash of one entry, independent of the order of its items.
uint64_t EntryHash(const uint32_t* begin, const uint32_t* end,
                   uint64_t support) {
  uint64_t items = 0;
  for (const uint32_t* it = begin; it != end; ++it) items += Mix(*it);
  return Mix(items ^ Mix(support + (static_cast<uint64_t>(end - begin) << 40)));
}

std::string Describe(const char* what, const ListingDigest& got,
                     const ListingDigest& want) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%s: %llu entries (digest %016llx), expected %llu (%016llx)",
                what, static_cast<unsigned long long>(got.count),
                static_cast<unsigned long long>(got.sum),
                static_cast<unsigned long long>(want.count),
                static_cast<unsigned long long>(want.sum));
  return buf;
}

}  // namespace

ListingDigest DigestOf(const Listing& listing) {
  ListingDigest digest;
  digest.count = listing.size();
  for (size_t i = 0; i < listing.size(); ++i) {
    digest.sum += EntryHash(listing.items.data() + listing.offsets[i],
                            listing.items.data() + listing.offsets[i + 1],
                            listing.supports[i]);
  }
  return digest;
}

bool ReadMineCliListing(const std::string& path, Listing* out,
                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  *out = Listing();
  std::string line;
  std::vector<uint32_t> items;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const size_t open = line.rfind('(');
    const size_t close = line.rfind(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
      *error = path + ":" + std::to_string(line_no) + ": no (support)";
      return false;
    }
    items.clear();
    const char* p = line.c_str();
    const char* end = p + open;
    while (p < end) {
      char* next = nullptr;
      const unsigned long item = std::strtoul(p, &next, 10);
      if (next == p) break;
      items.push_back(static_cast<uint32_t>(item));
      p = next;
    }
    const uint64_t support = std::strtoull(line.c_str() + open + 1, nullptr, 10);
    out->Add(items.data(), items.data() + items.size(), support);
  }
  return true;
}

std::string CheckListing(const Listing& answer, const ListingDigest& expected) {
  const ListingDigest got = DigestOf(answer);
  return got == expected ? "" : Describe("listing", got, expected);
}

std::string CheckKernels(const std::vector<KernelAnswer>& answers,
                         const KernelAnswer& reference) {
  if (reference.count == 0) return reference.kernel + " mined no itemsets";
  if (answers.empty()) return "no kernel ran";
  for (const KernelAnswer& answer : answers) {
    if (answer.count != reference.count ||
        answer.checksum != reference.checksum) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "%s: %llu itemsets (checksum %016llx), %s: %llu (%016llx)",
                    answer.kernel.c_str(),
                    static_cast<unsigned long long>(answer.count),
                    static_cast<unsigned long long>(answer.checksum),
                    reference.kernel.c_str(),
                    static_cast<unsigned long long>(reference.count),
                    static_cast<unsigned long long>(reference.checksum));
      return buf;
    }
  }
  return "";
}

std::string SelfTest() {
  // A frequent listing over items {1,2,3}.
  Listing base;
  const auto add = [](Listing* l, std::vector<uint32_t> items, uint64_t s) {
    l->Add(items.data(), items.data() + items.size(), s);
  };
  add(&base, {1}, 90);
  add(&base, {2}, 80);
  add(&base, {3}, 70);
  add(&base, {2, 1}, 60);
  add(&base, {1, 3}, 65);
  add(&base, {3, 2}, 55);
  add(&base, {1, 2, 3}, 60);

  std::string failures;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) failures += std::string(failures.empty() ? "" : "; ") + what;
  };

  // CheckListing against a mine_cli-style reference.
  const ListingDigest want = DigestOf(base);
  Listing reordered;
  add(&reordered, {3, 2, 1}, 60);
  for (size_t i = 0; i + 1 < base.size(); ++i) {
    reordered.Add(base.items.data() + base.offsets[i],
                  base.items.data() + base.offsets[i + 1], base.supports[i]);
  }
  expect(CheckListing(reordered, want).empty(), "listing: reorder rejected");
  Listing wrong_support = base;
  wrong_support.supports[2] += 1;
  expect(!CheckListing(wrong_support, want).empty(),
         "listing: support change accepted");
  Listing wrong_item = base;
  wrong_item.items[0] = 4;
  expect(!CheckListing(wrong_item, want).empty(),
         "listing: item change accepted");
  Listing dropped;
  for (size_t i = 0; i + 1 < base.size(); ++i) {
    dropped.Add(base.items.data() + base.offsets[i],
                base.items.data() + base.offsets[i + 1], base.supports[i]);
  }
  expect(!CheckListing(dropped, want).empty(), "listing: drop accepted");

  // CheckKernels against a sequential reference.
  const KernelAnswer reference{"sequential lcm", 7, 42};
  const std::vector<KernelAnswer> agreeing{{"lcm", 7, 42}, {"eclat", 7, 42},
                                           {"fpgrowth", 7, 42}};
  expect(CheckKernels(agreeing, reference).empty(),
         "kernels: correct answers rejected");
  std::vector<KernelAnswer> kernels = agreeing;
  kernels[2].checksum = 43;
  expect(!CheckKernels(kernels, reference).empty(),
         "kernels: checksum accepted");
  kernels[2] = {"fpgrowth", 6, 42};
  expect(!CheckKernels(kernels, reference).empty(), "kernels: count accepted");
  // A parallel driver that drops a class: every kernel agrees with the
  // others, none with the reference.
  const KernelAnswer corrupted{"sequential lcm", 8, 43};
  expect(!CheckKernels(agreeing, corrupted).empty(),
         "kernels: agreement on a wrong answer accepted");
  expect(!CheckKernels(agreeing, {"sequential lcm", 0, 0}).empty(),
         "kernels: empty reference accepted");
  return failures;
}

}  // namespace perfbench
