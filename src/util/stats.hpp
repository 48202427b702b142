// Streaming statistics used by the Monte-Carlo harnesses. The benches
// run long trials and print mean ± CI columns, so everything here is
// single-pass and mergeable: Welford mean/variance (RunningStats), a
// binomial error-rate counter with confidence bounds for BER columns
// (ErrorRateCounter), and a fixed-bin histogram for latency quantiles.
// merge() exists so sharded/parallel trial runners can combine results
// without losing numerical stability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace fdb {

/// Welford's online mean/variance with min/max tracking. Numerically
/// stable for long Monte-Carlo runs.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Half-width of the 95% normal-approximation confidence interval.
  double ci95_halfwidth() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(n_); }

  /// Exact state equality, for pinning bit-identical merges.
  bool operator==(const RunningStats&) const = default;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Counter for bit- or block-error-rate estimation with a Wilson score
/// interval (robust for small error counts, which BER sweeps hit often).
class ErrorRateCounter {
 public:
  void add(bool error) {
    ++trials_;
    if (error) ++errors_;
  }
  void add(std::uint64_t errors, std::uint64_t trials) {
    errors_ += errors;
    trials_ += trials;
  }
  /// Combines with another counter (exact — integer sums), so sharded
  /// trial runners can merge per-worker counters in any grouping.
  void merge(const ErrorRateCounter& other) {
    errors_ += other.errors_;
    trials_ += other.trials_;
  }
  std::uint64_t errors() const { return errors_; }
  std::uint64_t trials() const { return trials_; }
  bool operator==(const ErrorRateCounter&) const = default;
  double rate() const {
    return trials_ ? static_cast<double>(errors_) / static_cast<double>(trials_)
                   : 0.0;
  }
  /// Wilson 95% interval bounds for the underlying error probability.
  double wilson_lower() const;
  double wilson_upper() const;

 private:
  std::uint64_t errors_ = 0;
  std::uint64_t trials_ = 0;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins so nothing is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  /// Combines with another histogram over the same [lo, hi) range and
  /// bin count (asserted); counts add exactly.
  void merge(const Histogram& other);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  /// Empirical quantile q in [0,1], linear within the containing bin.
  double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace fdb
