#include "fpm/dataset/quest_gen.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "fpm/common/rng.h"

namespace fpm {
namespace {

// One potentially-large itemset from the pool.
struct Pattern {
  std::vector<Item> items;
  double corruption;  // probability of dropping items when instantiated
};

// Builds the pool of potentially-large itemsets. Consecutive patterns
// share items: an exponentially-distributed fraction (mean = correlation)
// of each pattern is drawn from its predecessor.
std::vector<Pattern> BuildPatternPool(const QuestParams& p, Rng* rng) {
  std::vector<Pattern> pool;
  pool.reserve(p.num_patterns);
  std::vector<Item> prev;
  std::unordered_set<Item> chosen;
  for (uint32_t i = 0; i < p.num_patterns; ++i) {
    uint32_t len = std::max<uint32_t>(1, rng->NextPoisson(p.avg_pattern_len));
    len = std::min<uint32_t>(len, p.num_items);
    Pattern pat;
    pat.items.reserve(len);
    chosen.clear();

    // Inherit a correlated fraction from the previous pattern.
    if (!prev.empty()) {
      double frac = std::min(1.0, rng->NextExponential(p.correlation));
      auto inherit = static_cast<uint32_t>(frac * len);
      inherit = std::min<uint32_t>(inherit, static_cast<uint32_t>(prev.size()));
      // Sample `inherit` distinct items from prev.
      std::vector<Item> shuffled = prev;
      for (uint32_t k = 0; k < inherit; ++k) {
        const size_t j =
            k + static_cast<size_t>(rng->NextBounded(shuffled.size() - k));
        std::swap(shuffled[k], shuffled[j]);
        if (chosen.insert(shuffled[k]).second) pat.items.push_back(shuffled[k]);
      }
    }
    // Fill the rest with uniformly random fresh items.
    while (pat.items.size() < len) {
      const Item it = static_cast<Item>(rng->NextBounded(p.num_items));
      if (chosen.insert(it).second) pat.items.push_back(it);
    }
    pat.corruption =
        std::clamp(rng->NextNormal(p.corruption_mean, p.corruption_sd), 0.0,
                   1.0);
    prev = pat.items;
    pool.push_back(std::move(pat));
  }
  return pool;
}

}  // namespace

Result<QuestParams> QuestParams::FromName(const std::string& name) {
  QuestParams p;
  size_t i = 0;
  auto read_number = [&](double* out) -> bool {
    size_t start = i;
    while (i < name.size() &&
           (std::isdigit(static_cast<unsigned char>(name[i])) ||
            name[i] == '.')) {
      ++i;
    }
    if (i == start) return false;
    *out = std::stod(name.substr(start, i - start));
    return true;
  };

  double t = 0, iv = 0, d = 0;
  if (i >= name.size() || (name[i] != 'T' && name[i] != 't')) {
    return Status::InvalidArgument("Quest name must start with T: " + name);
  }
  ++i;
  if (!read_number(&t)) {
    return Status::InvalidArgument("missing T value in " + name);
  }
  if (i >= name.size() || (name[i] != 'I' && name[i] != 'i')) {
    return Status::InvalidArgument("expected I after T in " + name);
  }
  ++i;
  if (!read_number(&iv)) {
    return Status::InvalidArgument("missing I value in " + name);
  }
  if (i >= name.size() || (name[i] != 'D' && name[i] != 'd')) {
    return Status::InvalidArgument("expected D after I in " + name);
  }
  ++i;
  if (!read_number(&d)) {
    return Status::InvalidArgument("missing D value in " + name);
  }
  if (i < name.size()) {
    if (name[i] == 'K' || name[i] == 'k') {
      d *= 1000;
      ++i;
    } else if (name[i] == 'M' || name[i] == 'm') {
      d *= 1000000;
      ++i;
    }
  }
  if (i != name.size()) {
    return Status::InvalidArgument("trailing characters in " + name);
  }
  p.avg_transaction_len = t;
  p.avg_pattern_len = iv;
  p.num_transactions = static_cast<uint32_t>(d);
  return p;
}

std::string QuestParams::Name() const {
  auto fmt = [](double v) {
    char buf[32];
    if (v == std::floor(v)) {
      std::snprintf(buf, sizeof(buf), "%.0f", v);
    } else {
      std::snprintf(buf, sizeof(buf), "%g", v);
    }
    return std::string(buf);
  };
  std::string d;
  if (num_transactions % 1000000 == 0 && num_transactions > 0) {
    d = std::to_string(num_transactions / 1000000) + "M";
  } else if (num_transactions % 1000 == 0 && num_transactions > 0) {
    d = std::to_string(num_transactions / 1000) + "K";
  } else {
    d = std::to_string(num_transactions);
  }
  std::string name = "T";
  name += fmt(avg_transaction_len);
  name += 'I';
  name += fmt(avg_pattern_len);
  name += 'D';
  name += d;
  return name;
}

Status QuestParams::Validate() const {
  if (num_transactions == 0) {
    return Status::InvalidArgument("num_transactions must be > 0");
  }
  if (num_items == 0) return Status::InvalidArgument("num_items must be > 0");
  if (num_patterns == 0) {
    return Status::InvalidArgument("num_patterns must be > 0");
  }
  if (avg_transaction_len <= 0) {
    return Status::InvalidArgument("avg_transaction_len must be > 0");
  }
  if (avg_pattern_len <= 0) {
    return Status::InvalidArgument("avg_pattern_len must be > 0");
  }
  if (correlation < 0 || correlation > 1) {
    return Status::InvalidArgument("correlation must be in [0,1]");
  }
  if (corruption_mean < 0 || corruption_mean > 1) {
    return Status::InvalidArgument("corruption_mean must be in [0,1]");
  }
  if (corruption_sd < 0) {
    return Status::InvalidArgument("corruption_sd must be >= 0");
  }
  return Status::OK();
}

Result<Database> GenerateQuest(const QuestParams& params) {
  FPM_RETURN_IF_ERROR(params.Validate());
  Rng rng(params.seed);
  const std::vector<Pattern> pool = BuildPatternPool(params, &rng);

  // Exponential weights, normalized by the sampler.
  std::vector<double> weights(pool.size());
  for (auto& w : weights) w = rng.NextExponential(1.0);
  WeightedSampler sampler(weights);

  DatabaseBuilder builder;
  std::vector<Item> tx;
  std::vector<Item> instance;
  std::unordered_set<Item> in_tx;
  // Oversized pattern instance carried over to the next transaction.
  std::vector<Item> carry;

  for (uint32_t t = 0; t < params.num_transactions; ++t) {
    uint32_t target =
        std::max<uint32_t>(1, rng.NextPoisson(params.avg_transaction_len));
    target = std::min<uint32_t>(target, params.num_items);
    tx.clear();
    in_tx.clear();

    auto add_items = [&](const std::vector<Item>& src) {
      for (Item it : src) {
        if (in_tx.insert(it).second) tx.push_back(it);
      }
    };
    if (!carry.empty()) {
      add_items(carry);
      carry.clear();
    }

    // Safety valve: corrupted instances may all be empty on degenerate
    // parameter settings; bound the fill attempts.
    uint32_t attempts = 0;
    const uint32_t max_attempts = 50 + 10 * target;
    while (tx.size() < target && attempts++ < max_attempts) {
      const Pattern& pat = pool[sampler.Sample(&rng)];
      // Corrupt: keep dropping random items while u < corruption level.
      instance = pat.items;
      while (!instance.empty() && rng.NextDouble() < pat.corruption) {
        const size_t j = static_cast<size_t>(rng.NextBounded(instance.size()));
        instance[j] = instance.back();
        instance.pop_back();
      }
      if (instance.empty()) continue;
      if (tx.size() + instance.size() > target && !tx.empty()) {
        // Doesn't fit: add anyway half the time, else carry it over.
        if (rng.NextBool(0.5)) {
          add_items(instance);
        } else {
          carry = instance;
          break;
        }
      } else {
        add_items(instance);
      }
    }
    if (tx.empty()) {
      // Degenerate corner (tiny universes): emit one random item so the
      // database shape stays sane.
      tx.push_back(static_cast<Item>(rng.NextBounded(params.num_items)));
    }
    builder.AddTransaction(tx);
  }
  return builder.Build();
}

}  // namespace fpm
