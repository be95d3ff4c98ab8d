#include "fpm/core/patterns.h"

#include <algorithm>
#include <array>
#include <cctype>

namespace fpm {
namespace {

// Table 2 of the paper, verbatim.
constexpr std::array<PatternInfo, kNumPatterns> kPatterns = {{
    {Pattern::kLexicographicOrdering, "P1", "lexicographic ordering",
     "database layout", /*spatial=*/true, /*temporal=*/false,
     /*latency=*/false, /*computation=*/false},
    {Pattern::kDataStructureAdaptation, "P2", "data structure adaptation",
     "data structures", true, false, false, false},
    {Pattern::kAggregation, "P3", "aggregation", "data structures", true,
     false, true, false},
    {Pattern::kCompaction, "P4", "compaction", "data structures", true,
     false, false, false},
    {Pattern::kPrefetchPointers, "P5", "prefetch pointers",
     "data structures", false, false, true, false},
    {Pattern::kTiling, "P6", "tiling", "data access", false, true, false,
     false},
    {Pattern::kSoftwarePrefetch, "P7", "software prefetch", "data access",
     false, false, true, false},
    {Pattern::kSimdization, "P8", "SIMDization", "instruction parallelism",
     false, false, false, true},
}};

std::string ToLower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

// Short aliases accepted by PatternSet::Parse.
Result<Pattern> ParseOnePattern(const std::string& raw) {
  const std::string t = ToLower(raw);
  if (t == "p1" || t == "lex" || t == "lexicographic" ||
      t == "lexicographic ordering") {
    return Pattern::kLexicographicOrdering;
  }
  if (t == "p2" || t == "adapt" || t == "adaptation" ||
      t == "data structure adaptation") {
    return Pattern::kDataStructureAdaptation;
  }
  if (t == "p3" || t == "agg" || t == "aggregation") {
    return Pattern::kAggregation;
  }
  if (t == "p4" || t == "compact" || t == "compaction") {
    return Pattern::kCompaction;
  }
  if (t == "p5" || t == "jump" || t == "prefetch pointers") {
    return Pattern::kPrefetchPointers;
  }
  if (t == "p6" || t == "tile" || t == "tiling") return Pattern::kTiling;
  if (t == "p7" || t == "pref" || t == "prefetch" ||
      t == "software prefetch") {
    return Pattern::kSoftwarePrefetch;
  }
  if (t == "p8" || t == "simd" || t == "simdization") {
    return Pattern::kSimdization;
  }
  return Status::InvalidArgument("unknown pattern: '" + raw + "'");
}

}  // namespace

std::span<const PatternInfo> AllPatterns() { return kPatterns; }

const PatternInfo& GetPatternInfo(Pattern p) {
  return kPatterns[static_cast<size_t>(p)];
}

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kLcm:
      return "lcm";
    case Algorithm::kEclat:
      return "eclat";
    case Algorithm::kFpGrowth:
      return "fpgrowth";
    case Algorithm::kApriori:
      return "apriori";
    case Algorithm::kHMine:
      return "hmine";
    case Algorithm::kBruteForce:
      return "bruteforce";
  }
  return "?";
}

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  const std::string t = ToLower(name);
  if (t == "lcm") return Algorithm::kLcm;
  if (t == "eclat") return Algorithm::kEclat;
  if (t == "fpgrowth" || t == "fp-growth") return Algorithm::kFpGrowth;
  if (t == "apriori") return Algorithm::kApriori;
  if (t == "hmine" || t == "h-mine") return Algorithm::kHMine;
  if (t == "bruteforce" || t == "brute-force") return Algorithm::kBruteForce;
  return Status::InvalidArgument("unknown algorithm: '" + name + "'");
}

const AlgorithmInfo& GetAlgorithmInfo(Algorithm a) {
  // Table 3 of the paper (plus the extra reference miners).
  static constexpr std::array<AlgorithmInfo, 6> kInfos = {{
      {Algorithm::kLcm, "horizontal", "array", "memory"},
      {Algorithm::kEclat, "vertical", "bit vector (array)", "computation"},
      {Algorithm::kFpGrowth, "horizontal", "tree", "memory"},
      {Algorithm::kApriori, "horizontal", "candidate trie", "memory"},
      {Algorithm::kHMine, "horizontal", "hyper structure", "memory"},
      {Algorithm::kBruteForce, "horizontal", "array", "computation"},
  }};
  return kInfos[static_cast<size_t>(a)];
}

PatternSet PatternSet::All() {
  PatternSet s;
  for (const auto& info : kPatterns) s = s.With(info.pattern);
  return s;
}

PatternSet PatternSet::ApplicableTo(Algorithm a) {
  // Table 4's check marks: the patterns the paper applies per kernel.
  PatternSet s;
  switch (a) {
    case Algorithm::kLcm:
      s = s.With(Pattern::kLexicographicOrdering)
              .With(Pattern::kAggregation)
              .With(Pattern::kCompaction)
              .With(Pattern::kTiling)
              .With(Pattern::kSoftwarePrefetch);
      break;
    case Algorithm::kEclat:
      s = s.With(Pattern::kLexicographicOrdering)
              .With(Pattern::kSimdization);
      break;
    case Algorithm::kFpGrowth:
      s = s.With(Pattern::kLexicographicOrdering)
              .With(Pattern::kDataStructureAdaptation)
              .With(Pattern::kAggregation)
              .With(Pattern::kCompaction)
              .With(Pattern::kPrefetchPointers)
              .With(Pattern::kSoftwarePrefetch);
      break;
    case Algorithm::kApriori:
    case Algorithm::kHMine:
    case Algorithm::kBruteForce:
      break;
  }
  return s;
}

Result<PatternSet> PatternSet::Parse(const std::string& text) {
  PatternSet s;
  const std::string lowered = ToLower(text);
  if (lowered.empty() || lowered == "none") return s;
  if (lowered == "all") return All();
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find_first_of(",+", pos);
    if (comma == std::string::npos) comma = text.size();
    std::string token = text.substr(pos, comma - pos);
    // Trim whitespace.
    while (!token.empty() && std::isspace(static_cast<unsigned char>(
                                 token.front()))) {
      token.erase(token.begin());
    }
    while (!token.empty() &&
           std::isspace(static_cast<unsigned char>(token.back()))) {
      token.pop_back();
    }
    if (!token.empty()) {
      FPM_ASSIGN_OR_RETURN(Pattern p, ParseOnePattern(token));
      s = s.With(p);
    }
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  return s;
}

std::string PatternSet::ToString() const {
  if (empty()) return "none";
  std::string out;
  for (const auto& info : kPatterns) {
    if (Contains(info.pattern)) {
      if (!out.empty()) out += "+";
      out += info.id;
    }
  }
  return out;
}

}  // namespace fpm
