#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace netbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {

bool has_tail(std::size_t n, double p, std::size_t min_beyond) {
  // Tolerance keeps exact cases (100 samples at p90) from failing on
  // the rounding of (100 - p) / 100.
  return static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9 >=
         static_cast<double>(min_beyond);
}

}  // namespace

double highest_reportable_percentile(std::size_t n, std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (has_tail(n, p, min_beyond)) return p;
  }
  return 0.0;
}

std::size_t min_samples_for_percentile(double p, std::size_t min_beyond) {
  std::size_t n = 1;
  while (!has_tail(n, p, min_beyond)) ++n;
  return n;
}

}  // namespace netbench
