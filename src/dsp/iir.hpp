// IIR building blocks: single-pole smoothers (envelope tracking, AGC
// loops) and RBJ biquads (DC removal, band selection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace fdb::dsp {

namespace detail {

/// The one-pole recurrence y = float(a·x + b·y), a = alpha, b = 1 - alpha,
/// run serially over `in` from state `y` (in place allowed). Returns the
/// last output, or `y` for an empty span. OnePole::process must write
/// exactly these bits; the tests compare against this loop.
float one_pole_serial(double alpha, float y, std::span<const float> in,
                      std::span<float> out);

}  // namespace detail

/// One-pole low-pass y[n] = a*x[n] + (1-a)*y[n-1]. The classic cheap
/// smoother a microcontroller-class backscatter decoder can afford.
class OnePole {
 public:
  /// alpha in (0, 1]; larger tracks faster. Throws std::invalid_argument
  /// otherwise (NaN included).
  explicit OnePole(double alpha);

  /// Builds a one-pole whose -3 dB point is at `cutoff_hz` for the given
  /// sample rate. Throws std::invalid_argument unless the sample rate is
  /// positive and the cutoff finite and in (0, sample_rate_hz / 2).
  static OnePole from_cutoff(double cutoff_hz, double sample_rate_hz);

  float process(float x);
  /// Writes exactly detail::one_pole_serial's bits and leaves its state.
  /// Spans of at least 1,024 samples run as eight chains in lockstep
  /// (see iir.cpp). In place allowed; throws std::invalid_argument,
  /// before any state changes, when the spans differ in length.
  void process(std::span<const float> in, std::span<float> out);
  void reset(float value = 0.0f);
  float value() const { return y_; }
  double alpha() const { return alpha_; }

  /// Segments after the first of each lockstep block, and how many of
  /// them were recomputed serially end to end because their chain never
  /// met its predecessor's output (non-finite blocks count all of theirs).
  std::uint64_t parallel_segments() const { return segments_; }
  std::uint64_t serial_fallbacks() const { return fallbacks_; }

 private:
  double alpha_;
  float y_ = 0.0f;
  std::size_t warmup_;  // samples a restarted chain runs before its segment
  std::uint64_t segments_ = 0;
  std::uint64_t fallbacks_ = 0;
};

/// Direct-form-I biquad with RBJ cookbook designers.
class Biquad {
 public:
  Biquad(double b0, double b1, double b2, double a1, double a2);

  static Biquad lowpass(double cutoff_hz, double sample_rate_hz, double q = 0.7071);
  static Biquad highpass(double cutoff_hz, double sample_rate_hz, double q = 0.7071);
  /// DC blocker: high-pass with very low cutoff, used to strip the strong
  /// carrier mean out of envelope streams.
  static Biquad dc_blocker(double sample_rate_hz, double cutoff_hz = 1.0);

  float process(float x);
  void process(std::span<const float> in, std::span<float> out);
  void reset();

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double x1_ = 0.0, x2_ = 0.0, y1_ = 0.0, y2_ = 0.0;
};

}  // namespace fdb::dsp
