#include "dsp/goertzel.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace fdb::dsp {

Goertzel::Goertzel(double bin_freq_hz, double sample_rate_hz,
                   std::size_t block_len)
    : block_len_(block_len) {
  assert(block_len > 0);
  assert(std::abs(bin_freq_hz) < sample_rate_hz / 2.0);
  const double w = 2.0 * std::numbers::pi * bin_freq_hz / sample_rate_hz;
  cos_w_ = std::cos(w);
  sin_w_ = std::sin(w);
  coeff_ = 2.0 * cos_w_;
}

double Goertzel::process_block(std::span<const float> block) {
  assert(block.size() == block_len_);
  double s1 = 0.0, s2 = 0.0;
  for (const float x : block) {
    const double s0 = x + coeff_ * s1 - s2;
    s2 = s1;
    s1 = s0;
  }
  const double real = s1 - s2 * cos_w_;
  const double imag = s2 * sin_w_;
  return real * real + imag * imag;
}

void Goertzel::process_blocks(std::span<const float> samples,
                              std::span<double> powers) {
  assert(samples.size() == powers.size() * block_len_);
  for (std::size_t b = 0; b < powers.size(); ++b) {
    powers[b] = process_block(samples.subspan(b * block_len_, block_len_));
  }
}

double Goertzel::process_block(std::span<const cf32> block) {
  assert(block.size() == block_len_);
  // Complex input: run two real Goertzels and combine. The target bin of
  // a complex signal at +f needs I and Q contributions.
  double s1r = 0.0, s2r = 0.0, s1i = 0.0, s2i = 0.0;
  for (const cf32 x : block) {
    const double s0r = x.real() + coeff_ * s1r - s2r;
    s2r = s1r;
    s1r = s0r;
    const double s0i = x.imag() + coeff_ * s1i - s2i;
    s2i = s1i;
    s1i = s0i;
  }
  const double rr = s1r - s2r * cos_w_;
  const double ri = s2r * sin_w_;
  const double ir = s1i - s2i * cos_w_;
  const double ii = s2i * sin_w_;
  // X = (rr + j*ri) + j*(ir + j*ii) = (rr - ii) + j*(ri + ir)
  const double re = rr - ii;
  const double im = ri + ir;
  return re * re + im * im;
}

}  // namespace fdb::dsp
