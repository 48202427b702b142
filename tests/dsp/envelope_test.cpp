#include "dsp/envelope.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "dsp/iir.hpp"
#include "util/rng.hpp"

namespace fdb::dsp {
namespace {

TEST(EnvelopeDetector, ConstantCarrierSettlesToMagnitude) {
  EnvelopeDetector env(1000.0, 100000.0);
  float y = 0.0f;
  for (int i = 0; i < 20000; ++i) y = env.process({3.0f, 4.0f});
  EXPECT_NEAR(y, 5.0f, 1e-3f);  // |3+4j| = 5
}

TEST(EnvelopeDetector, TracksAmplitudeStep) {
  EnvelopeDetector env(5000.0, 100000.0);
  for (int i = 0; i < 5000; ++i) env.process({1.0f, 0.0f});
  float y = 0.0f;
  for (int i = 0; i < 5000; ++i) y = env.process({2.0f, 0.0f});
  EXPECT_NEAR(y, 2.0f, 1e-2f);
}

TEST(EnvelopeDetector, PhaseInvariant) {
  // Rotating carrier with constant magnitude -> constant envelope.
  EnvelopeDetector env(1000.0, 100000.0);
  float min_y = 1e9f, max_y = -1e9f;
  for (int i = 0; i < 50000; ++i) {
    const double angle = 2.0 * std::numbers::pi * 0.01 * i;
    const float y = env.process({static_cast<float>(std::cos(angle)),
                                 static_cast<float>(std::sin(angle))});
    if (i > 10000) {
      min_y = std::min(min_y, y);
      max_y = std::max(max_y, y);
    }
  }
  EXPECT_NEAR(min_y, 1.0f, 1e-3f);
  EXPECT_NEAR(max_y, 1.0f, 1e-3f);
}

TEST(EnvelopeDetector, BlockApiMatches) {
  EnvelopeDetector a(2000.0, 100000.0), b(2000.0, 100000.0);
  std::vector<cf32> in(100, cf32{1.0f, 1.0f});
  std::vector<float> out(100);
  a.process(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(b.process(in[i]), out[i]);
  }
}

// ---------------------------------------------------------------------
// The vectorized magnitude against std::abs, in one binary
// ---------------------------------------------------------------------

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

/// magnitude() must return std::abs's exact bits for every sample
/// (NaN payloads included: non-finite samples take std::abs itself).
void expect_magnitude_matches_std_abs(const std::vector<cf32>& in) {
  std::vector<float> out(in.size());
  magnitude(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(bits(out[i]), bits(std::abs(in[i])))
        << "sample " << i << " = (" << in[i].real() << ", " << in[i].imag()
        << ")";
  }
}

float float_from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }

TEST(EnvelopeMagnitude, MatchesStdAbsOnNormalSamples) {
  // 10^7 complex normal samples, in blocks so memory stays small.
  Rng rng(71);
  constexpr std::size_t kBlock = 1 << 16;
  std::vector<cf32> in(kBlock);
  for (std::size_t done = 0; done < 10'000'000; done += kBlock) {
    for (auto& x : in) x = rng.cn(1.0);
    expect_magnitude_matches_std_abs(in);
  }
}

TEST(EnvelopeMagnitude, MatchesStdAbsOnRandomBitPatterns) {
  // Every float class at once: random bits give normals of all
  // exponents, subnormals, zeros, infinities and NaNs of both signs.
  Rng rng(72);
  constexpr std::size_t kBlock = 1 << 16;
  std::vector<cf32> in(kBlock);
  for (int block = 0; block < 32; ++block) {
    for (auto& x : in) {
      const auto r = rng();
      x = {float_from_bits(static_cast<std::uint32_t>(r)),
           float_from_bits(static_cast<std::uint32_t>(r >> 32))};
    }
    expect_magnitude_matches_std_abs(in);
  }
}

TEST(EnvelopeMagnitude, MatchesStdAbsOnSubnormalsZerosAndHugeValues) {
  Rng rng(73);
  const float max = std::numeric_limits<float>::max();
  std::vector<cf32> in;
  const auto subnormal = [&] {
    const auto r = static_cast<std::uint32_t>(rng());
    return float_from_bits(r & 0x807fffffu);  // sign + mantissa only
  };
  for (int i = 0; i < 4096; ++i) {
    in.push_back({subnormal(), subnormal()});
    in.push_back({subnormal(), static_cast<float>(rng.normal())});
    // Near FLT_MAX: |x| overflows the float result (inf) for most of
    // these, and lands just below it for the smaller ones.
    in.push_back({max * static_cast<float>(rng.uniform()),
                  max * static_cast<float>(rng.uniform())});
    in.push_back({max * static_cast<float>(0.70 + 0.01 * rng.uniform()),
                  -max * static_cast<float>(0.70 + 0.01 * rng.uniform())});
  }
  for (const float a : {0.0f, -0.0f}) {
    for (const float b : {0.0f, -0.0f, max, -max,
                          std::numeric_limits<float>::denorm_min()}) {
      in.push_back({a, b});
      in.push_back({b, a});
    }
  }
  expect_magnitude_matches_std_abs(in);
}

TEST(EnvelopeMagnitude, NonFiniteSampleInFiniteBlockTakesStdAbs) {
  // One inf or NaN among finite samples sends the block through the
  // std::abs fallback; hypot(inf, nan) is inf, not NaN, and the finite
  // neighbours must be unaffected.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(74);
  for (const cf32 bad : {cf32{inf, 1.0f}, cf32{-inf, nan}, cf32{nan, inf},
                         cf32{nan, 0.5f}, cf32{0.0f, -nan}}) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{5},
                                 std::size_t{1000}}) {
      std::vector<cf32> in(1001);
      for (auto& x : in) x = rng.cn(1.0);
      in[at] = bad;
      expect_magnitude_matches_std_abs(in);
    }
  }
}

TEST(EnvelopeDetector, BatchMatchesStdAbsOnePoleReference) {
  // The whole detector against the chain it replaced: per-sample
  // std::abs into a OnePole with the same cutoff.
  constexpr double kCutoff = 400e3;
  constexpr double kRate = 2e6;
  EnvelopeDetector env(kCutoff, kRate);
  OnePole ref = OnePole::from_cutoff(kCutoff, kRate);
  Rng rng(75);
  constexpr std::size_t kBlock = 1 << 16;
  std::vector<cf32> in(kBlock);
  std::vector<float> out(kBlock);
  for (std::size_t done = 0; done < 10'000'000; done += kBlock) {
    for (auto& x : in) x = rng.cn(1.0);
    env.process(in, out);
    for (std::size_t i = 0; i < kBlock; ++i) {
      ASSERT_EQ(bits(out[i]), bits(ref.process(std::abs(in[i]))))
          << "sample " << done + i;
    }
  }
}

TEST(EnvelopeDetector, RejectsMismatchedSpans) {
  EnvelopeDetector env(1000.0, 100000.0);
  env.process({2.0f, 0.0f});
  const float state = env.process({2.0f, 0.0f});
  std::vector<cf32> in(8, {1.0f, 0.0f});
  std::vector<float> longer(9, -1.0f), shorter(7, -1.0f);
  // ASSERT first: without the check a shorter span would be overrun.
  ASSERT_THROW(env.process(in, longer), std::invalid_argument);
  EXPECT_THROW(env.process(in, shorter), std::invalid_argument);
  ASSERT_THROW(magnitude(in, longer), std::invalid_argument);
  EXPECT_THROW(magnitude(in, shorter), std::invalid_argument);
  for (const float v : longer) EXPECT_EQ(v, -1.0f);
  for (const float v : shorter) EXPECT_EQ(v, -1.0f);
  // The RC state is untouched: the next sample continues from `state`.
  EnvelopeDetector twin(1000.0, 100000.0);
  twin.process({2.0f, 0.0f});
  EXPECT_EQ(bits(twin.process({2.0f, 0.0f})), bits(state));
  EXPECT_EQ(bits(env.process({3.0f, 0.0f})), bits(twin.process({3.0f, 0.0f})));
}

TEST(SquareLawDetector, SettlesToPower) {
  SquareLawDetector det(1000.0, 100000.0);
  float y = 0.0f;
  for (int i = 0; i < 20000; ++i) y = det.process({3.0f, 4.0f});
  EXPECT_NEAR(y, 25.0f, 1e-2f);  // |3+4j|^2 = 25
}

TEST(EnvelopeDetector, ResetForgetsState) {
  EnvelopeDetector env(1000.0, 100000.0);
  for (int i = 0; i < 1000; ++i) env.process({10.0f, 0.0f});
  env.reset();
  const float y = env.process({1.0f, 0.0f});
  EXPECT_LT(y, 1.0f);  // fresh RC ramping from zero, no residue of 10
}

}  // namespace
}  // namespace fdb::dsp
