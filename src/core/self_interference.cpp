#include "core/self_interference.hpp"

#include <cassert>
#include <stdexcept>

namespace fdb::core {

SelfInterferenceNormalizer::SelfInterferenceNormalizer(
    NormalizerConfig config)
    : config_(config), alpha_(1.0 / config.ema_samples) {
  assert(config.ema_samples >= 1.0);
}

float SelfInterferenceNormalizer::process(float envelope, bool own_state) {
  const int s = own_state ? 1 : 0;
  if (seen_[s] == 0) {
    mean_[s] = envelope;
  } else {
    mean_[s] += alpha_ * (envelope - mean_[s]);
  }
  ++seen_[s];

  if (s == 0) return envelope;
  const double g = gain();
  return static_cast<float>(envelope * g);
}

double SelfInterferenceNormalizer::gain() const {
  if (seen_[0] < config_.warmup_samples || seen_[1] < config_.warmup_samples ||
      mean_[1] <= 1e-30) {
    return 1.0;
  }
  return mean_[0] / mean_[1];
}

void SelfInterferenceNormalizer::process(
    std::span<const float> envelope, std::span<const std::uint8_t> own_states,
    std::span<float> out) {
  assert(envelope.size() == own_states.size() &&
         envelope.size() == out.size());
  for (std::size_t i = 0; i < envelope.size(); ++i) {
    out[i] = process(envelope[i], own_states[i] != 0);
  }
}

void SelfInterferenceNormalizer::reset() {
  mean_[0] = mean_[1] = 0.0;
  seen_[0] = seen_[1] = 0;
}

double normalize_batch(std::span<const float> envelope,
                       std::span<const std::uint8_t> own_states,
                       std::span<float> out) {
  if (own_states.size() != envelope.size() || out.size() != envelope.size()) {
    throw std::invalid_argument(
        "normalize_batch: own_states and out must match the envelope's "
        "length");
  }
  double sum[2] = {0.0, 0.0};
  std::size_t count[2] = {0, 0};
  for (std::size_t i = 0; i < envelope.size(); ++i) {
    const int s = own_states[i] ? 1 : 0;
    sum[s] += envelope[i];
    ++count[s];
  }
  double gain = 1.0;
  if (count[0] > 0 && count[1] > 0 && sum[1] > 1e-30) {
    // FM0 data is DC-balanced, so both conditional means carry the same
    // data mix; their ratio isolates the own-reflection scale factor.
    gain = (sum[0] / static_cast<double>(count[0])) /
           (sum[1] / static_cast<double>(count[1]));
  }
  for (std::size_t i = 0; i < envelope.size(); ++i) {
    out[i] = own_states[i] ? static_cast<float>(envelope[i] * gain)
                           : envelope[i];
  }
  return gain;
}

}  // namespace fdb::core
