// Integer-factor resampling. The full-duplex receiver decodes the slow
// feedback stream at a decimated rate; the ambient source can be
// upsampled to the simulation rate.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fir.hpp"
#include "util/types.hpp"

namespace fdb::dsp {

/// Anti-aliased decimator: windowed-sinc low-pass then keep-1-in-M.
class Decimator {
 public:
  Decimator(std::size_t factor, std::size_t taps = 63);

  /// Feeds input samples; appends produced output samples to `out`.
  void process(std::span<const float> in, std::vector<float>& out);
  std::size_t factor() const { return factor_; }

 private:
  std::size_t factor_;
  FirFilterF filter_;
  std::size_t phase_ = 0;
  std::vector<float> scratch_;
};

/// Zero-stuffing interpolator with image-rejection low-pass.
class Interpolator {
 public:
  Interpolator(std::size_t factor, std::size_t taps = 63);

  void process(std::span<const float> in, std::vector<float>& out);
  std::size_t factor() const { return factor_; }

 private:
  std::size_t factor_;
  FirFilterF filter_;
  std::vector<float> scratch_;
};

/// Sample-and-hold upsampler for chip streams (each chip held for
/// `factor` samples) — models a switching modulator exactly.
class HoldInterpolator {
 public:
  explicit HoldInterpolator(std::size_t factor);

  void process(std::span<const float> in, std::vector<float>& out);
  std::size_t factor() const { return factor_; }

 private:
  std::size_t factor_;
};

}  // namespace fdb::dsp
