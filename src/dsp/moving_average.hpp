// Sliding-window moving average. This is the workhorse of ambient
// backscatter decoding: the receiver distinguishes "reflecting" from
// "absorbing" by comparing short- and long-window averages of the
// envelope, and full-duplex rate separation uses a long window whose
// span covers many fast data bits.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace fdb::dsp {

template <typename T>
class MovingAverage {
 public:
  explicit MovingAverage(std::size_t window)
      : window_(window), buffer_(window, T{}) {
    assert(window > 0);
  }

  /// Pushes a sample, returns the average over the most recent
  /// min(window, pushed) samples. Thin wrapper over the batch kernel,
  /// so chunked and sample-at-a-time feeding are bit-identical.
  T process(T x) {
    T y{};
    process(std::span<const T>(&x, 1), std::span<T>(&y, 1));
    return y;
  }

  /// Batch kernel: out[i] is the average after pushing in[i]. The warm-up
  /// prologue peels off so the steady-state loop carries no fill check,
  /// and the ring index uses a conditional wrap instead of `%`.
  void process(std::span<const T> in, std::span<T> out) {
    assert(in.size() == out.size());
    std::size_t i = 0;
    for (; i < in.size() && filled_ < window_; ++i) {
      sum_ += in[i];
      sum_ -= buffer_[pos_];
      buffer_[pos_] = in[i];
      if (++pos_ == window_) pos_ = 0;
      ++filled_;
      out[i] = sum_ / static_cast<T>(filled_);
    }
    const T full = static_cast<T>(window_);
    for (; i < in.size(); ++i) {
      sum_ += in[i];
      sum_ -= buffer_[pos_];
      buffer_[pos_] = in[i];
      if (++pos_ == window_) pos_ = 0;
      out[i] = sum_ / full;
    }
  }

  T value() const {
    return filled_ ? sum_ / static_cast<T>(filled_) : T{};
  }

  std::size_t window() const { return window_; }
  std::size_t filled() const { return filled_; }
  bool warmed_up() const { return filled_ == window_; }

  void reset() {
    std::fill(buffer_.begin(), buffer_.end(), T{});
    sum_ = T{};
    pos_ = 0;
    filled_ = 0;
  }

 private:
  std::size_t window_;
  std::vector<T> buffer_;
  T sum_{};
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
};

/// Double-buffered min/max tracker over a sliding window. No program
/// calls it, only its unit tests: the adaptive slicer keeps its own
/// window and deques.
template <typename T>
class WindowedMinMax {
 public:
  explicit WindowedMinMax(std::size_t window) : window_(window) {
    assert(window > 0);
  }

  void push(T x) {
    buffer_.push_back(x);
    if (buffer_.size() > window_) buffer_.erase(buffer_.begin());
  }

  T min() const {
    assert(!buffer_.empty());
    T m = buffer_[0];
    for (const T& v : buffer_) m = v < m ? v : m;
    return m;
  }

  T max() const {
    assert(!buffer_.empty());
    T m = buffer_[0];
    for (const T& v : buffer_) m = v > m ? v : m;
    return m;
  }

  bool empty() const { return buffer_.empty(); }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::size_t window_;
  std::vector<T> buffer_;
};

}  // namespace fdb::dsp
