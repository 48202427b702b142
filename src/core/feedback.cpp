#include "core/feedback.hpp"

#include <algorithm>

namespace fdb::core {

FeedbackEncoder::FeedbackEncoder(phy::RateConfig rates, FeedbackConfig config)
    : rates_(rates), config_(config) {
  phy::require_valid(rates, "FeedbackEncoder");
}

std::size_t FeedbackEncoder::preamble_slots() const {
  return config_.coding == FeedbackCoding::kNrz ? config_.preamble_slots
                                                : config_.pilot_slots;
}

std::vector<std::uint8_t> FeedbackEncoder::encode(
    std::span<const std::uint8_t> bits) const {
  const std::size_t w = rates_.samples_per_feedback_bit();
  std::vector<std::uint8_t> states;
  states.reserve(samples_for_bits(bits.size()));

  if (config_.coding == FeedbackCoding::kNrz) {
    // Alternating calibration slots teach the decoder both levels.
    for (std::size_t i = 0; i < config_.preamble_slots; ++i) {
      states.insert(states.end(), w, static_cast<std::uint8_t>(i % 2));
    }
    for (const std::uint8_t bit : bits) {
      states.insert(states.end(), w, bit ? 1 : 0);
    }
    return states;
  }

  // Manchester at the slow scale: '1' = high then low, '0' = low then
  // high. Each half occupies w/2 samples (w is even: it is a multiple
  // of the FM0 bit which is two chips). Known '1' pilots lead so the
  // decoder can resolve swing polarity.
  const std::size_t half = w / 2;
  auto emit = [&](std::uint8_t bit) {
    const std::uint8_t first = bit ? 1 : 0;
    states.insert(states.end(), half, first);
    states.insert(states.end(), w - half, first ^ 1u);
  };
  for (std::size_t p = 0; p < config_.pilot_slots; ++p) emit(1);
  for (const std::uint8_t bit : bits) emit(bit);
  return states;
}

std::size_t FeedbackEncoder::samples_for_bits(std::size_t n) const {
  return (n + preamble_slots()) * rates_.samples_per_feedback_bit();
}

FeedbackDecoder::FeedbackDecoder(phy::RateConfig rates, FeedbackConfig config)
    : rates_(rates), config_(config) {
  phy::require_valid(rates, "FeedbackDecoder");
}

double FeedbackDecoder::window_statistic(
    std::span<const float> envelope, std::span<const std::uint8_t> own_states,
    std::size_t first, std::size_t len) const {
  const bool gated = config_.average == FeedbackAverage::kSelfGated &&
                     own_states.size() >= first + len;
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = first; i < first + len && i < envelope.size(); ++i) {
    if (gated && own_states[i] != 0) continue;
    sum += envelope[i];
    ++count;
  }
  if (count == 0) {
    // Own transmission covered the whole window (can happen only with
    // non-FM0 data); fall back to the ungated mean.
    for (std::size_t i = first; i < first + len && i < envelope.size(); ++i) {
      sum += envelope[i];
      ++count;
    }
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

FeedbackDecodeResult FeedbackDecoder::decode(
    std::span<const float> envelope, std::span<const std::uint8_t> own_states,
    std::size_t num_bits) const {
  FeedbackDecodeResult result;
  const std::size_t w = rates_.samples_per_feedback_bit();

  if (config_.coding == FeedbackCoding::kManchester) {
    // Per-window self-thresholding: compare the two half-window means.
    // The leading pilot slots carry a known '1'; their decoded polarity
    // calibrates the sign of every payload decision.
    const std::size_t half = w / 2;
    double pilot_sign = 0.0;
    const std::size_t total_slots = num_bits + config_.pilot_slots;
    for (std::size_t b = 0; b < total_slots; ++b) {
      const std::size_t start = b * w;
      if (start + w > envelope.size()) break;
      const double first = window_statistic(envelope, own_states, start, half);
      const double second =
          window_statistic(envelope, own_states, start + half, w - half);
      const double diff = first - second;
      ++result.slots_processed;
      if (b < config_.pilot_slots) {
        pilot_sign += diff;  // expected positive for an upright channel
        continue;
      }
      const bool inverted = pilot_sign < 0.0;
      const double oriented = inverted ? -diff : diff;
      result.bits.push_back(oriented >= 0.0 ? 1 : 0);
      const double denom = std::max(first + second, 1e-30);
      result.soft.push_back(static_cast<float>(oriented / denom));
    }
    return result;
  }

  // NRZ: adaptive min/max threshold over a sliding slot history, primed
  // by the encoder's alternating calibration slots (0,1,0,1,...). The
  // calibration slots also resolve polarity: slot 1 should read above
  // slot 0 on an upright channel.
  const std::size_t total_slots =
      std::min(num_bits + config_.preamble_slots, envelope.size() / w);
  std::vector<double> history;
  double calib_sign = 0.0;
  for (std::size_t slot = 0; slot < total_slots; ++slot) {
    const double stat =
        window_statistic(envelope, own_states, slot * w, w);
    history.push_back(stat);
    if (history.size() > config_.slicer_window_slots) {
      history.erase(history.begin());
    }
    ++result.slots_processed;
    if (slot < config_.preamble_slots) {
      // Odd calibration slots carry '1' (reflect), even carry '0'.
      calib_sign += (slot % 2 == 1) ? stat : -stat;
      continue;
    }
    const bool inverted =
        config_.preamble_slots >= 2 && calib_sign < 0.0;
    const auto [lo_it, hi_it] =
        std::minmax_element(history.begin(), history.end());
    const double threshold = 0.5 * (*lo_it + *hi_it);
    const double swing = std::max(*hi_it - *lo_it, 1e-30);
    const bool above = stat >= threshold;
    result.bits.push_back((above != inverted) ? 1 : 0);
    const double soft = (stat - threshold) / swing;
    result.soft.push_back(static_cast<float>(inverted ? -soft : soft));
  }
  return result;
}

}  // namespace fdb::core
