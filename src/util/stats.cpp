#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fdb {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

namespace {
// Wilson score bound; sign = -1 lower, +1 upper. z = 1.96 for 95%.
double wilson_bound(std::uint64_t errors, std::uint64_t trials, double sign) {
  if (trials == 0) return 0.0;
  const double z = 1.96;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(errors) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = p + z2 / (2.0 * n);
  const double margin = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return std::clamp((center + sign * margin) / denom, 0.0, 1.0);
}
}  // namespace

double ErrorRateCounter::wilson_lower() const {
  return wilson_bound(errors_, trials_, -1.0);
}

double ErrorRateCounter::wilson_upper() const {
  return wilson_bound(errors_, trials_, +1.0);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::ptrdiff_t>(frac * static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  const bool compatible = lo_ == other.lo_ && hi_ == other.hi_ &&
                          counts_.size() == other.counts_.size();
  assert(compatible);
  // Release builds compile the assert out; refuse the merge rather than
  // index past the smaller counts vector.
  if (!compatible) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double within =
          counts_[i] ? (target - cum) / static_cast<double>(counts_[i]) : 0.0;
      return bin_lo(i) + within * (bin_hi(i) - bin_lo(i));
    }
    cum = next;
  }
  return hi_;
}

}  // namespace fdb
