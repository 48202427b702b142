#include "channel/ambient_source.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "dsp/fft.hpp"

namespace fdb::channel {

namespace {
cf32 cw_sample(double phase) {
  return {static_cast<float>(std::cos(phase)),
          static_cast<float>(std::sin(phase))};
}
}  // namespace

CwSource::CwSource(double phase_drift_rad_per_sample)
    : drift_(phase_drift_rad_per_sample) {}

void CwSource::generate(std::span<cf32> out) {
  if (const auto c = constant()) {
    std::fill(out.begin(), out.end(), *c);
    return;
  }
  for (auto& s : out) {
    s = cw_sample(phase_);
    phase_ += drift_;
  }
}

void CwSource::reset() { phase_ = 0.0; }

std::optional<cf32> CwSource::constant() const {
  // Without drift the phase never leaves 0, so every sample is equal.
  if (drift_ != 0.0) return std::nullopt;
  return cw_sample(phase_);
}

OfdmTvSource::OfdmTvSource(OfdmParams params)
    : params_(params), rng_(params.seed) {
  assert(dsp::is_pow2(params_.fft_size));
  assert(params_.cp_len < params_.fft_size);
  assert(params_.occupancy > 0.0 && params_.occupancy <= 1.0);
  reset();
}

void OfdmTvSource::reset() {
  rng_ = Rng(params_.seed);
  // Fixed occupancy mask per reset: a broadcast multiplex occupies a
  // static set of subcarriers (guard bands stay empty).
  active_.assign(params_.fft_size, false);
  for (std::size_t k = 0; k < params_.fft_size; ++k) {
    active_[k] = rng_.chance(params_.occupancy);
  }
  // Average time-domain power of one symbol is (#active)/fft_size when
  // subcarriers carry unit-power QPSK; normalise to unit power.
  std::size_t count = 0;
  for (const bool a : active_) count += a ? 1 : 0;
  if (count == 0) {
    active_[params_.fft_size / 4] = true;
    count = 1;
  }
  norm_ = 1.0f / std::sqrt(static_cast<float>(count) /
                           static_cast<float>(params_.fft_size));
  symbol_.clear();
  pos_ = 0;
}

void OfdmTvSource::make_symbol() {
  std::vector<cf32> freq(params_.fft_size, cf32{});
  const float scale = 1.0f / std::sqrt(2.0f);
  for (std::size_t k = 0; k < params_.fft_size; ++k) {
    if (!active_[k]) continue;
    const float re = rng_.chance(0.5) ? scale : -scale;
    const float im = rng_.chance(0.5) ? scale : -scale;
    freq[k] = {re, im};
  }
  dsp::ifft(freq);
  // ifft applies 1/N; restore sqrt(N) so time-domain has the intended
  // per-sample power, then apply occupancy normalisation.
  const float restore =
      std::sqrt(static_cast<float>(params_.fft_size)) * norm_;
  for (auto& x : freq) x *= restore;

  symbol_.clear();
  symbol_.reserve(params_.cp_len + params_.fft_size);
  // Cyclic prefix: tail of the symbol repeated in front.
  symbol_.insert(symbol_.end(), freq.end() - static_cast<long>(params_.cp_len),
                 freq.end());
  symbol_.insert(symbol_.end(), freq.begin(), freq.end());
  pos_ = 0;
}

void OfdmTvSource::generate(std::span<cf32> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (pos_ >= symbol_.size()) make_symbol();
    out[i] = symbol_[pos_++];
  }
}

std::unique_ptr<AmbientSource> make_ambient_source(const std::string& kind,
                                                   std::uint64_t seed) {
  if (kind == "cw") return std::make_unique<CwSource>();
  OfdmParams params;
  params.seed = seed;
  return std::make_unique<OfdmTvSource>(params);
}

}  // namespace fdb::channel
