// Additive noise and oscillator impairments — the non-geometric part of
// the channel. AWGN sets the noise floor that the link budget's kTB*NF
// computation predicts, and the CFO rotator models the residual between
// the ambient transmitter's carrier and the receiver's sampling clock
// (the tags themselves have no oscillator to be wrong). Both matter to
// the paper's receivers because envelope detection folds any rotation
// into amplitude statistics that the slicer must then track.
#pragma once

#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace fdb::channel {

/// Thermal noise power (watts) in `bandwidth_hz` at 290 K plus a
/// receiver noise figure in dB: kTB * NF.
double thermal_noise_power(double bandwidth_hz, double noise_figure_db = 6.0);

/// Adds complex AWGN of total power `noise_power` to the stream.
class AwgnChannel {
 public:
  /// Throws std::invalid_argument unless noise_power is finite and >= 0.
  AwgnChannel(double noise_power, Rng rng);

  cf32 process(cf32 x);
  /// Same samples as per-sample process(x) calls: the noise comes from
  /// Rng::fill_cn, which is bit-identical to successive Rng::cn draws.
  /// `in` and `out` may be the same span.
  void process(std::span<const cf32> in, std::span<cf32> out);

  double noise_power() const { return noise_power_; }
  /// Throws std::invalid_argument unless p is finite and >= 0.
  void set_noise_power(double p);

 private:
  double noise_power_;
  Rng rng_;
};

/// Carrier-frequency-offset rotator: multiplies by e^{j 2π f_off n / fs}.
/// Backscatter tags have no oscillator, but the *ambient transmitter*
/// and the receiver's sampling clock differ; this models that residual.
class CfoRotator {
 public:
  CfoRotator(double offset_hz, double sample_rate_hz);

  cf32 process(cf32 x);
  void process(std::span<const cf32> in, std::span<cf32> out);

 private:
  double step_rad_;
  double phase_ = 0.0;
};

/// Integer-sample delay line (propagation/processing latency).
class DelayLine {
 public:
  explicit DelayLine(std::size_t delay_samples);

  cf32 process(cf32 x);

 private:
  std::vector<cf32> buffer_;
  std::size_t pos_ = 0;
};

}  // namespace fdb::channel
