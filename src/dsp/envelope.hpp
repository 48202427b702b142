// Envelope detection — the only "RF" operation a passive backscatter
// receiver performs. A diode + RC network is modelled as magnitude
// extraction followed by a one-pole low-pass whose time constant is the
// RC product.
#pragma once

#include <span>

#include "dsp/iir.hpp"
#include "util/types.hpp"

namespace fdb::dsp {

/// out[i] = |in[i]| as a vectorized pass. The diode stage of
/// EnvelopeDetector. Bit-identical to std::abs for every input
/// (including subnormal, overflowing and non-finite samples) where
/// std::abs is glibc's hypotf, which rounds the exact double result
/// once; another libc's hypotf need not, and the EnvelopeMagnitude.*
/// tests pin the equality on the host they run on. Throws
/// std::invalid_argument when the spans differ in length.
void magnitude(std::span<const cf32> in, std::span<float> out);

class EnvelopeDetector {
 public:
  /// `rc_cutoff_hz` models the RC low-pass after the diode; it must pass
  /// the data rate but average out carrier structure.
  EnvelopeDetector(double rc_cutoff_hz, double sample_rate_hz);

  /// |x| -> RC smoothing. Output is a nonnegative envelope sample.
  float process(cf32 x);
  /// Throws std::invalid_argument, before any state changes, when the
  /// spans differ in length.
  void process(std::span<const cf32> in, std::span<float> out);
  void reset();

 private:
  OnePole smoother_;
};

/// Square-law detector variant (|x|^2): closer to low-cost power
/// detectors; used by the energy-detection comparisons in tests.
class SquareLawDetector {
 public:
  SquareLawDetector(double rc_cutoff_hz, double sample_rate_hz);

  float process(cf32 x);
  void process(std::span<const cf32> in, std::span<float> out);

 private:
  OnePole smoother_;
};

}  // namespace fdb::dsp
