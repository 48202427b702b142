// Goertzel single-bin DFT: cheap tone-energy measurement used by the
// spectrum probe and by tests that verify subcarrier placement without
// running a full FFT.
#pragma once

#include <cstddef>
#include <span>

#include "util/types.hpp"

namespace fdb::dsp {

class Goertzel {
 public:
  /// Measures energy at `bin_freq_hz` over blocks of `block_len` samples
  /// at `sample_rate_hz`.
  Goertzel(double bin_freq_hz, double sample_rate_hz, std::size_t block_len);

  /// Processes one block (must be exactly block_len samples); returns the
  /// squared magnitude of the target bin.
  double process_block(std::span<const float> block);
  double process_block(std::span<const cf32> block);

  /// Batch kernel: processes `powers.size()` back-to-back blocks
  /// (`samples.size()` must equal `powers.size() * block_length()`),
  /// writing one bin power per block. Equivalent to calling
  /// process_block() per block without the per-call span slicing.
  void process_blocks(std::span<const float> samples,
                      std::span<double> powers);

  std::size_t block_length() const { return block_len_; }

 private:
  std::size_t block_len_;
  double coeff_;
  double cos_w_;
  double sin_w_;
};

}  // namespace fdb::dsp
