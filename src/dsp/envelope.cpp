#include "dsp/envelope.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace fdb::dsp {

namespace {
void check_spans(const char* who, std::size_t in, std::size_t out) {
  if (in != out) {
    throw std::invalid_argument(std::string(who) +
                                ": input and output spans differ in length (" +
                                std::to_string(in) + " vs " +
                                std::to_string(out) + ")");
  }
}
}  // namespace

void magnitude(std::span<const cf32> in, std::span<float> out) {
  check_spans("magnitude", in.size(), out.size());
  // For finite input glibc's hypotf (what std::abs/cabsf call) returns
  // exactly float(sqrt(double(re)^2 + double(im)^2)); other libcs need
  // not, so a port must rerun the EnvelopeMagnitude.* pins. In double the
  // squares are exact and their sum cannot overflow, and this TU is
  // built with -ffp-contract=off and -fno-math-errno, so the loop
  // vectorizes to packed double sqrt with no libm call. A non-finite
  // result (all-ones exponent, tested on the bits so the OR-reduction
  // vectorizes too) means a non-finite input, where the two forms can
  // differ (hypot(inf, nan) is inf), or a float overflow, where both
  // give inf. Those samples are recomputed with std::abs itself.
  constexpr std::uint32_t kExponent = 0x7f800000u;
  std::uint32_t non_finite = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double re = in[i].real();
    const double im = in[i].imag();
    const float m = static_cast<float>(std::sqrt(re * re + im * im));
    out[i] = m;
    non_finite |= (std::bit_cast<std::uint32_t>(m) & kExponent) == kExponent;
  }
  if (non_finite != 0) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (!std::isfinite(out[i])) out[i] = std::abs(in[i]);
    }
  }
}

EnvelopeDetector::EnvelopeDetector(double rc_cutoff_hz, double sample_rate_hz)
    : smoother_(OnePole::from_cutoff(rc_cutoff_hz, sample_rate_hz)) {}

float EnvelopeDetector::process(cf32 x) {
  float y = 0.0f;
  process(std::span<const cf32>(&x, 1), std::span<float>(&y, 1));
  return y;
}

void EnvelopeDetector::process(std::span<const cf32> in,
                               std::span<float> out) {
  // Two passes: the magnitude, staged through `out` so no scratch
  // buffer is needed, then the one-pole RC recurrence in place. The
  // magnitude pass checks the span lengths before the RC state moves.
  magnitude(in, out);
  smoother_.process(std::span<const float>(out.data(), out.size()), out);
}

void EnvelopeDetector::reset() { smoother_.reset(); }

SquareLawDetector::SquareLawDetector(double rc_cutoff_hz,
                                     double sample_rate_hz)
    : smoother_(OnePole::from_cutoff(rc_cutoff_hz, sample_rate_hz)) {}

float SquareLawDetector::process(cf32 x) {
  float y = 0.0f;
  process(std::span<const cf32>(&x, 1), std::span<float>(&y, 1));
  return y;
}

void SquareLawDetector::process(std::span<const cf32> in,
                                std::span<float> out) {
  check_spans("SquareLawDetector", in.size(), out.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::norm(in[i]);
  smoother_.process(std::span<const float>(out.data(), out.size()), out);
}

}  // namespace fdb::dsp
