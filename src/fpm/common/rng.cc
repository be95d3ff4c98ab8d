#include "fpm/common/rng.h"

#include <algorithm>

namespace fpm {

ZipfSampler::ZipfSampler(uint32_t n, double s) {
  FPM_CHECK(n > 0) << "ZipfSampler needs at least one rank";
  cdf_.resize(n);
  double total = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against FP drift
}

uint32_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint32_t>(it - cdf_.begin());
}

WeightedSampler::WeightedSampler(const std::vector<double>& weights) {
  FPM_CHECK(!weights.empty()) << "WeightedSampler needs weights";
  cdf_.resize(weights.size());
  double total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    FPM_CHECK(weights[i] >= 0) << "negative weight";
    total += weights[i];
    cdf_[i] = total;
  }
  FPM_CHECK(total > 0) << "all weights zero";
}

uint32_t WeightedSampler::Sample(Rng* rng) const {
  const double u = rng->NextDouble() * cdf_.back();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint32_t>(it - cdf_.begin());
}

}  // namespace fpm
