// Rate plan shared by transmitter and receiver.
//
// The full-duplex design hinges on *rate asymmetry*: the forward data
// stream toggles the tag antenna every `samples_per_half_bit` samples
// (FM0 -> two chips per bit), while the feedback stream holds its
// reflection state for `asymmetry` whole data bits. The receiver then
// separates the two by averaging at the two time scales.
#pragma once

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace fdb::phy {

struct RateConfig {
  double sample_rate_hz = 2.0e6;    // simulation / ADC rate
  std::size_t samples_per_chip = 20;  // FM0 chip duration in samples
  std::size_t asymmetry = 16;       // feedback bit = asymmetry data bits

  /// FM0 carries one bit in two chips.
  std::size_t samples_per_bit() const { return 2 * samples_per_chip; }

  /// Samples per feedback bit (the slow stream).
  std::size_t samples_per_feedback_bit() const {
    return samples_per_bit() * asymmetry;
  }

  double data_rate_bps() const {
    return sample_rate_hz / static_cast<double>(samples_per_bit());
  }

  double feedback_rate_bps() const {
    return sample_rate_hz / static_cast<double>(samples_per_feedback_bit());
  }

  bool valid() const {
    return sample_rate_hz > 0.0 && samples_per_chip > 0 && asymmetry > 0;
  }
};

/// Throws std::invalid_argument, naming `who`, unless `rates` is valid.
inline void require_valid(const RateConfig& rates, const char* who) {
  if (!rates.valid()) {
    throw std::invalid_argument(
        std::string(who) +
        ": rates need a positive sample rate, samples_per_chip and "
        "asymmetry");
  }
}

}  // namespace fdb::phy
