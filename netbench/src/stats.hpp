// Order statistics for the benchmark's timing reports.
#pragma once

#include <cstddef>
#include <vector>

namespace netbench {

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The timing-report rule: the highest percentile of {50, 90, 99, 99.9}
/// that still has at least `min_beyond` of `n` samples strictly beyond
/// it, i.e. n * (100 - p) / 100 >= min_beyond. Returns 0 when not even
/// the median qualifies.
double highest_reportable_percentile(std::size_t n,
                                     std::size_t min_beyond = 10);

/// Smallest sample count at which percentile `p` has `min_beyond`
/// samples beyond it (100 for p90 with the default 10).
std::size_t min_samples_for_percentile(double p, std::size_t min_beyond = 10);

}  // namespace netbench
