#include "channel/impairments.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/db.hpp"

namespace fdb::channel {

double thermal_noise_power(double bandwidth_hz, double noise_figure_db) {
  assert(bandwidth_hz > 0.0);
  constexpr double kBoltzmann = 1.380649e-23;
  constexpr double kTemperatureK = 290.0;
  return kBoltzmann * kTemperatureK * bandwidth_hz *
         db_to_lin(noise_figure_db);
}

namespace {

double checked_noise_power(double p) {
  if (!(std::isfinite(p) && p >= 0.0)) {
    throw std::invalid_argument(
        "AwgnChannel: noise power must be finite and >= 0");
  }
  return p;
}

}  // namespace

AwgnChannel::AwgnChannel(double noise_power, Rng rng)
    : noise_power_(checked_noise_power(noise_power)), rng_(rng) {}

void AwgnChannel::set_noise_power(double p) {
  noise_power_ = checked_noise_power(p);
}

cf32 AwgnChannel::process(cf32 x) {
  if (noise_power_ <= 0.0) return x;
  return x + rng_.cn(noise_power_);
}

void AwgnChannel::process(std::span<const cf32> in, std::span<cf32> out) {
  assert(in.size() == out.size());
  if (noise_power_ <= 0.0) {
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i];
    return;
  }
  std::array<cf32, Rng::kCnBlock> noise{};
  for (std::size_t base = 0; base < in.size(); base += Rng::kCnBlock) {
    const std::size_t n = std::min(Rng::kCnBlock, in.size() - base);
    rng_.fill_cn(noise_power_, {noise.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      out[base + i] = in[base + i] + noise[i];
    }
  }
}

CfoRotator::CfoRotator(double offset_hz, double sample_rate_hz)
    : step_rad_(2.0 * std::numbers::pi * offset_hz / sample_rate_hz) {
  assert(sample_rate_hz > 0.0);
}

cf32 CfoRotator::process(cf32 x) {
  const cf32 rot(static_cast<float>(std::cos(phase_)),
                 static_cast<float>(std::sin(phase_)));
  phase_ += step_rad_;
  if (phase_ > 2.0 * std::numbers::pi) phase_ -= 2.0 * std::numbers::pi;
  if (phase_ < -2.0 * std::numbers::pi) phase_ += 2.0 * std::numbers::pi;
  return x * rot;
}

void CfoRotator::process(std::span<const cf32> in, std::span<cf32> out) {
  assert(in.size() == out.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = process(in[i]);
}


DelayLine::DelayLine(std::size_t delay_samples) : buffer_(delay_samples) {}

cf32 DelayLine::process(cf32 x) {
  if (buffer_.empty()) return x;  // zero-delay passthrough
  const cf32 out = buffer_[pos_];
  buffer_[pos_] = x;
  pos_ = (pos_ + 1) % buffer_.size();
  return out;
}

}  // namespace fdb::channel
