#include "dsp/resample.hpp"

#include <cassert>

namespace fdb::dsp {

Decimator::Decimator(std::size_t factor, std::size_t taps)
    : factor_(factor),
      filter_(design_lowpass(0.45 / static_cast<double>(factor), taps | 1)) {
  assert(factor > 0);
}

void Decimator::process(std::span<const float> in, std::vector<float>& out) {
  // Batch: filter the whole block through the FIR's block kernel, then
  // keep every factor-th sample of the filtered stream.
  scratch_.resize(in.size());
  filter_.process(in, scratch_);
  for (const float y : scratch_) {
    if (phase_ == 0) out.push_back(y);
    if (++phase_ == factor_) phase_ = 0;
  }
}

Interpolator::Interpolator(std::size_t factor, std::size_t taps)
    : factor_(factor),
      filter_(design_lowpass(0.45 / static_cast<double>(factor), taps | 1)) {
  assert(factor > 0);
}

void Interpolator::process(std::span<const float> in,
                           std::vector<float>& out) {
  // Zero-stuff the whole block (gain of `factor` restores amplitude),
  // then run one batch convolution over the stuffed stream.
  scratch_.assign(in.size() * factor_, 0.0f);
  const auto gain = static_cast<float>(factor_);
  for (std::size_t i = 0; i < in.size(); ++i) {
    scratch_[i * factor_] = in[i] * gain;
  }
  const std::size_t start = out.size();
  out.resize(start + scratch_.size());
  filter_.process(scratch_,
                  std::span<float>(out.data() + start, scratch_.size()));
}

HoldInterpolator::HoldInterpolator(std::size_t factor) : factor_(factor) {
  assert(factor > 0);
}

void HoldInterpolator::process(std::span<const float> in,
                               std::vector<float>& out) {
  for (const float x : in) {
    out.insert(out.end(), factor_, x);
  }
}

}  // namespace fdb::dsp
