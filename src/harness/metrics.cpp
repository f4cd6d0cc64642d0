#include "harness/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace dapes::harness {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = static_cast<size_t>(std::ceil(rank));
  if (hi >= values.size()) hi = values.size() - 1;
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace dapes::harness
