#include "dsp/iir.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <string>

namespace fdb::dsp {

namespace detail {

float one_pole_serial(double alpha, float y, std::span<const float> in,
                      std::span<float> out) {
  const double a = alpha;
  const double b = 1.0 - alpha;
  for (std::size_t i = 0; i < in.size(); ++i) {
    y = static_cast<float>(a * in[i] + b * y);
    out[i] = y;
  }
  return y;
}

}  // namespace detail

namespace {

// The segmented kernel. A float step y' = float(a·x + b·y) depends only
// on the bits of (x, y), so two chains over the same input that once
// hold the same bits agree from then on. A block of n samples is cut
// into kChains segments; chain 0 continues the real state over segment
// 0 and chain j >= 1 starts from 0 `warmup` samples before segment j.
// All chains step together in one loop (independent latency chains the
// core overlaps), then a serial fix-up walks each segment j from
// segment j-1's corrected last output until it meets chain j's bits;
// from there on chain j is exact. A segment where they never meet has
// been rewritten serially, so the output is exact either way: only the
// speed depends on the chains meeting.
constexpr std::size_t kChains = 8;
// 16 KB of stack per block. Outputs are staged there and copied out at
// the end, so the fix-up still reads the input when out aliases in.
constexpr std::size_t kBlock = 4096;
// Shorter blocks stay serial: the lockstep's fixed costs (warm-up,
// fix-up steps, staging) are not repaid.
constexpr std::size_t kMinSegmented = 1024;

// Steps a chain restarted from 0 runs before its segment: a state error
// shrinks by (1 - alpha) per step, so after this many it is below 2^-40
// of where it began (23 samples at the default alpha 0.715, 541 at
// 0.05). Poles too slow to meet inside a quarter block stay serial.
std::size_t warmup_for(double alpha) {
  const double shrink = -std::log1p(-alpha);  // +inf at alpha = 1
  const double steps = std::ceil(40.0 * std::numbers::ln2 / shrink);
  if (!(steps < static_cast<double>(kBlock))) return kBlock;
  return std::max<std::size_t>(1, static_cast<std::size_t>(steps));
}

bool same_bits(float u, float v) {
  return std::bit_cast<std::uint32_t>(u) == std::bit_cast<std::uint32_t>(v);
}

// True if any sample is NaN or infinite (exponent bits all ones; an
// OR-reduction the compiler vectorizes).
bool any_non_finite(std::span<const float> x) {
  constexpr std::uint32_t kExponent = 0x7f800000u;
  std::uint32_t hit = 0;
  for (const float v : x) {
    hit |= (std::bit_cast<std::uint32_t>(v) & kExponent) == kExponent;
  }
  return hit != 0;
}

// One block, n = in.size() in [4 * warmup, kBlock]. Returns the new
// state; adds to `fallbacks` the segments recomputed end to end.
float segmented_block(double alpha, std::size_t warmup, float state,
                      std::span<const float> in, std::span<float> out,
                      std::uint64_t& fallbacks) {
  const std::size_t n = in.size();
  // A non-finite sample or state runs the serial loop itself: NaN
  // payloads of a two-NaN add depend on operand order, which the two
  // loops need not share. With finite input and state every value is
  // finite (a convex combination cannot overflow a float), and IEEE
  // add and multiply then fix every bit.
  if (!std::isfinite(state) || any_non_finite(in)) {
    fallbacks += kChains - 1;
    return detail::one_pole_serial(alpha, state, in, out);
  }
  const double a = alpha;
  const double b = 1.0 - alpha;
  // Chain j reads and writes [j·S, j·S + V + S): its first V outputs
  // are a warm-up that chain j-1 overwrites later in the same loop, the
  // rest is segment j = [V + j·S, V + (j+1)·S). The last chain also
  // takes the n - (V + 8S) < 8 samples left over.
  const std::size_t v = warmup;
  const std::size_t seg = (n - v) / kChains;
  const float* x = in.data();
  float buf[kBlock];
  float y[kChains] = {};
  y[0] = state;
  for (std::size_t t = 0; t < v + seg; ++t) {
    for (std::size_t j = 0; j < kChains; ++j) {
      y[j] = static_cast<float>(a * x[j * seg + t] + b * y[j]);
      buf[j * seg + t] = y[j];
    }
  }
  float last = y[kChains - 1];
  for (std::size_t i = v + kChains * seg; i < n; ++i) {
    last = static_cast<float>(a * x[i] + b * last);
    buf[i] = last;
  }
  for (std::size_t j = 1; j < kChains; ++j) {
    const std::size_t begin = v + j * seg;
    const std::size_t end = j + 1 == kChains ? n : begin + seg;
    float z = buf[begin - 1];
    std::size_t i = begin;
    for (; i < end; ++i) {
      z = static_cast<float>(a * x[i] + b * z);
      // Bits, not ==: +0 and -0 compare equal but step differently.
      if (same_bits(z, buf[i]) && std::isfinite(z)) break;
      buf[i] = z;
    }
    if (i == end) ++fallbacks;
  }
  std::copy_n(buf, n, out.data());
  return buf[n - 1];
}

}  // namespace

OnePole::OnePole(double alpha) : alpha_(alpha) {
  if (!(alpha > 0.0 && alpha <= 1.0)) {
    throw std::invalid_argument("OnePole: alpha must be in (0, 1], got " +
                                std::to_string(alpha));
  }
  warmup_ = warmup_for(alpha);
}

OnePole OnePole::from_cutoff(double cutoff_hz, double sample_rate_hz) {
  if (!(sample_rate_hz > 0.0)) {
    throw std::invalid_argument(
        "OnePole::from_cutoff: sample rate must be positive, got " +
        std::to_string(sample_rate_hz));
  }
  if (!(std::isfinite(cutoff_hz) && cutoff_hz > 0.0 &&
        cutoff_hz < sample_rate_hz / 2.0)) {
    throw std::invalid_argument(
        "OnePole::from_cutoff: cutoff must be finite and in (0, " +
        std::to_string(sample_rate_hz / 2.0) + ") Hz, got " +
        std::to_string(cutoff_hz));
  }
  // Exact mapping of an RC pole to its discrete equivalent.
  const double alpha =
      1.0 - std::exp(-2.0 * std::numbers::pi * cutoff_hz / sample_rate_hz);
  return OnePole(alpha);
}

float OnePole::process(float x) {
  float y = 0.0f;
  process(std::span<const float>(&x, 1), std::span<float>(&y, 1));
  return y;
}

void OnePole::process(std::span<const float> in, std::span<float> out) {
  if (in.size() != out.size()) {
    throw std::invalid_argument(
        "OnePole: input and output spans differ in length (" +
        std::to_string(in.size()) + " vs " + std::to_string(out.size()) +
        ")");
  }
  // Blocks of at most kBlock samples, split evenly so none is short.
  // A block under min_block (every block of a pole too slow to meet
  // inside a quarter block) runs the serial loop.
  const std::size_t n = in.size();
  const std::size_t min_block = std::max(kMinSegmented, 4 * warmup_);
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  std::size_t done = 0;
  for (std::size_t k = 0; k < blocks; ++k) {
    const std::size_t len = (n - done) / (blocks - k);
    const auto bin = in.subspan(done, len);
    const auto bout = out.subspan(done, len);
    if (len < min_block) {
      y_ = detail::one_pole_serial(alpha_, y_, bin, bout);
    } else {
      segments_ += kChains - 1;
      y_ = segmented_block(alpha_, warmup_, y_, bin, bout, fallbacks_);
    }
    done += len;
  }
}

void OnePole::reset(float value) { y_ = value; }

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

namespace {
struct RbjCommon {
  double w0, cosw, sinw, alpha;
};
RbjCommon rbj(double cutoff_hz, double sample_rate_hz, double q) {
  assert(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0 && q > 0.0);
  RbjCommon c{};
  c.w0 = 2.0 * std::numbers::pi * cutoff_hz / sample_rate_hz;
  c.cosw = std::cos(c.w0);
  c.sinw = std::sin(c.w0);
  c.alpha = c.sinw / (2.0 * q);
  return c;
}
}  // namespace

Biquad Biquad::lowpass(double cutoff_hz, double sample_rate_hz, double q) {
  const auto c = rbj(cutoff_hz, sample_rate_hz, q);
  const double a0 = 1.0 + c.alpha;
  return Biquad((1.0 - c.cosw) / 2.0 / a0, (1.0 - c.cosw) / a0,
                (1.0 - c.cosw) / 2.0 / a0, -2.0 * c.cosw / a0,
                (1.0 - c.alpha) / a0);
}

Biquad Biquad::highpass(double cutoff_hz, double sample_rate_hz, double q) {
  const auto c = rbj(cutoff_hz, sample_rate_hz, q);
  const double a0 = 1.0 + c.alpha;
  return Biquad((1.0 + c.cosw) / 2.0 / a0, -(1.0 + c.cosw) / a0,
                (1.0 + c.cosw) / 2.0 / a0, -2.0 * c.cosw / a0,
                (1.0 - c.alpha) / a0);
}

Biquad Biquad::dc_blocker(double sample_rate_hz, double cutoff_hz) {
  return highpass(cutoff_hz, sample_rate_hz, 0.7071);
}

float Biquad::process(float x) {
  float y = 0.0f;
  process(std::span<const float>(&x, 1), std::span<float>(&y, 1));
  return y;
}

void Biquad::process(std::span<const float> in, std::span<float> out) {
  assert(in.size() == out.size());
  // Batch kernel: direct-form-I state lives in registers across the
  // block. Safe for in-place use.
  double x1 = x1_, x2 = x2_, y1 = y1_, y2 = y2_;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double x = in[i];
    const double y = b0_ * x + b1_ * x1 + b2_ * x2 - a1_ * y1 - a2_ * y2;
    x2 = x1;
    x1 = x;
    y2 = y1;
    y1 = y;
    out[i] = static_cast<float>(y);
  }
  x1_ = x1;
  x2_ = x2;
  y1_ = y1;
  y2_ = y2;
}

void Biquad::reset() { x1_ = x2_ = y1_ = y2_ = 0.0; }

}  // namespace fdb::dsp
