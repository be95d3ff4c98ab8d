#include "fpm/algo/rules.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

namespace fpm {
namespace {

using SupportIndex = std::unordered_map<Itemset, Support, ItemsetHash>;

// Enumerates consequents: all non-empty subsets of `set` of size up to
// `max_size` (never the whole set). `chosen` marks the consequent.
class ConsequentEnumerator {
 public:
  ConsequentEnumerator(const Itemset& set, size_t max_size)
      : set_(set), max_size_(std::min(max_size, set.size() - 1)) {}

  template <typename Fn>
  Status ForEach(Fn&& fn) {
    consequent_.clear();
    return Recurse(0, std::forward<Fn>(fn));
  }

 private:
  template <typename Fn>
  Status Recurse(size_t pos, Fn&& fn) {
    if (!consequent_.empty()) {
      FPM_RETURN_IF_ERROR(fn(consequent_));
    }
    if (consequent_.size() == max_size_) return Status::OK();
    for (size_t i = pos; i < set_.size(); ++i) {
      consequent_.push_back(set_[i]);
      FPM_RETURN_IF_ERROR(Recurse(i + 1, fn));
      consequent_.pop_back();
    }
    return Status::OK();
  }

  const Itemset& set_;
  size_t max_size_;
  Itemset consequent_;
};

Status ValidateOptions(const RuleOptions& options, Support total_weight,
                       bool empty_listing) {
  if (options.min_confidence < 0.0 || options.min_confidence > 1.0) {
    return Status::InvalidArgument("min_confidence must be in [0, 1]");
  }
  if (options.min_lift < 0.0) {
    return Status::InvalidArgument("min_lift must be >= 0");
  }
  if (options.max_consequent < 1) {
    return Status::InvalidArgument("max_consequent must be >= 1");
  }
  if (total_weight == 0 && !empty_listing) {
    return Status::InvalidArgument("total_weight must be positive");
  }
  return Status::OK();
}

// The shared generation loop: walk every listing entry of size >= 2,
// enumerate consequents, and resolve the antecedent/consequent supports
// through `support_of` (exact-index lookup for the full listing,
// closure-based recovery for a closed listing).
Result<std::vector<AssociationRule>> Generate(
    const std::vector<CollectingSink::Entry>& listing, Support total_weight,
    const RuleOptions& options,
    const std::function<Result<Support>(const Itemset&)>& support_of) {
  std::vector<AssociationRule> rules;
  Itemset antecedent;
  for (const auto& [set, support] : listing) {
    if (set.size() < 2) continue;
    ConsequentEnumerator consequents(set, options.max_consequent);
    const Support set_support = support;
    const Status status = consequents.ForEach(
        [&](const Itemset& consequent) -> Status {
          antecedent.clear();
          std::set_difference(set.begin(), set.end(), consequent.begin(),
                              consequent.end(),
                              std::back_inserter(antecedent));
          FPM_ASSIGN_OR_RETURN(const Support ante_support,
                               support_of(antecedent));
          FPM_ASSIGN_OR_RETURN(const Support cons_support,
                               support_of(consequent));
          const double confidence =
              static_cast<double>(set_support) / ante_support;
          if (confidence < options.min_confidence) return Status::OK();
          const double lift = confidence *
                              static_cast<double>(total_weight) /
                              static_cast<double>(cons_support);
          if (lift < options.min_lift) return Status::OK();
          AssociationRule rule;
          rule.antecedent = antecedent;
          rule.consequent = consequent;
          rule.itemset_support = set_support;
          rule.support =
              static_cast<double>(set_support) / total_weight;
          rule.confidence = confidence;
          rule.lift = lift;
          rules.push_back(std::move(rule));
          return Status::OK();
        });
    FPM_RETURN_IF_ERROR(status);
  }
  std::sort(rules.begin(), rules.end(), RuleOutranks);
  return rules;
}

}  // namespace

bool RuleOutranks(const AssociationRule& a, const AssociationRule& b) {
  if (a.lift != b.lift) return a.lift > b.lift;
  if (a.confidence != b.confidence) return a.confidence > b.confidence;
  if (a.antecedent != b.antecedent) return a.antecedent < b.antecedent;
  return a.consequent < b.consequent;
}

Result<std::vector<AssociationRule>> GenerateRules(
    const std::vector<CollectingSink::Entry>& frequent, Support total_weight,
    const RuleOptions& options) {
  FPM_RETURN_IF_ERROR(
      ValidateOptions(options, total_weight, frequent.empty()));

  SupportIndex index;
  index.reserve(frequent.size() * 2);
  for (const auto& [set, support] : frequent) index.emplace(set, support);

  return Generate(frequent, total_weight, options,
                  [&index](const Itemset& set) -> Result<Support> {
                    const auto it = index.find(set);
                    if (it == index.end()) {
                      return Status::InvalidArgument(
                          "frequent listing is incomplete: missing a subset "
                          "required for rule generation");
                    }
                    return it->second;
                  });
}

Result<std::vector<AssociationRule>> GenerateRulesFromClosed(
    const std::vector<CollectingSink::Entry>& closed, Support total_weight,
    const RuleOptions& options) {
  FPM_RETURN_IF_ERROR(ValidateOptions(options, total_weight, closed.empty()));

  // Inverted index item -> closed sets containing it; a subset's support
  // is the max over the closed supersets found on its rarest item's
  // posting list (supp(X) = supp(clo(X)), and clo(X) is listed).
  std::unordered_map<Item, std::vector<uint32_t>> postings;
  for (uint32_t i = 0; i < closed.size(); ++i) {
    for (Item it : closed[i].first) postings[it].push_back(i);
  }
  auto support_of = [&](const Itemset& set) -> Result<Support> {
    const std::vector<uint32_t>* shortest = nullptr;
    for (Item it : set) {
      const auto found = postings.find(it);
      if (found == postings.end()) {
        return Status::InvalidArgument(
            "closed listing is incomplete: no closed superset of a "
            "required subset");
      }
      if (shortest == nullptr || found->second.size() < shortest->size()) {
        shortest = &found->second;
      }
    }
    Support best = 0;
    bool any = false;
    for (uint32_t i : *shortest) {
      const Itemset& candidate = closed[i].first;
      if (std::includes(candidate.begin(), candidate.end(), set.begin(),
                        set.end())) {
        best = std::max(best, closed[i].second);
        any = true;
      }
    }
    if (!any) {
      return Status::InvalidArgument(
          "closed listing is incomplete: no closed superset of a "
          "required subset");
    }
    return best;
  };

  return Generate(closed, total_weight, options, support_of);
}

}  // namespace fpm
