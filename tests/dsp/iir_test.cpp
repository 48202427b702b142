#include "dsp/iir.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <numbers>
#include <vector>

namespace fdb::dsp {
namespace {

TEST(OnePole, ConvergesToDcInput) {
  OnePole lp(0.1);
  float y = 0.0f;
  for (int i = 0; i < 500; ++i) y = lp.process(2.0f);
  EXPECT_NEAR(y, 2.0f, 1e-4f);
}

TEST(OnePole, AlphaOneIsPassthrough) {
  OnePole lp(1.0);
  EXPECT_FLOAT_EQ(lp.process(3.5f), 3.5f);
  EXPECT_FLOAT_EQ(lp.process(-1.0f), -1.0f);
}

TEST(OnePole, FromCutoffTracksSpeed) {
  // A higher cutoff converges faster.
  auto settle_steps = [](double cutoff) {
    OnePole lp = OnePole::from_cutoff(cutoff, 1000.0);
    int steps = 0;
    float y = 0.0f;
    while (y < 0.95f && steps < 100000) {
      y = lp.process(1.0f);
      ++steps;
    }
    return steps;
  };
  EXPECT_LT(settle_steps(100.0), settle_steps(10.0));
}

TEST(OnePole, ResetToValue) {
  OnePole lp(0.5);
  lp.process(10.0f);
  lp.reset(1.0f);
  EXPECT_FLOAT_EQ(lp.value(), 1.0f);
}

TEST(OnePole, RejectsBadConstruction) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double alpha : {0.0, -0.5, 1.0 + 1e-12, 2.0, nan, inf}) {
    EXPECT_THROW(OnePole{alpha}, std::invalid_argument) << "alpha " << alpha;
  }
  EXPECT_NO_THROW(OnePole{1.0});
  EXPECT_NO_THROW(OnePole{1e-9});
  for (const double cutoff : {0.0, -1.0, 500.0, 600.0, nan, inf}) {
    EXPECT_THROW((void)OnePole::from_cutoff(cutoff, 1000.0),
                 std::invalid_argument)
        << "cutoff " << cutoff;
  }
  for (const double rate : {0.0, -1000.0, nan}) {
    EXPECT_THROW((void)OnePole::from_cutoff(10.0, rate),
                 std::invalid_argument)
        << "rate " << rate;
  }
  EXPECT_NO_THROW((void)OnePole::from_cutoff(499.0, 1000.0));
}

TEST(OnePole, RejectsMismatchedSpans) {
  OnePole lp(0.5);
  lp.reset(0.25f);
  std::vector<float> in(8, 1.0f), longer(9, -1.0f), shorter(7, -1.0f);
  // ASSERT first: without the check a shorter span would be overrun.
  ASSERT_THROW(lp.process(in, longer), std::invalid_argument);
  EXPECT_THROW(lp.process(in, shorter), std::invalid_argument);
  std::vector<float> big(5000, 1.0f), big_out(4999);
  EXPECT_THROW(lp.process(big, big_out), std::invalid_argument);
  // Nothing was written and the state is untouched.
  EXPECT_EQ(lp.value(), 0.25f);
  for (const float v : longer) EXPECT_EQ(v, -1.0f);
  for (const float v : shorter) EXPECT_EQ(v, -1.0f);
}

TEST(Biquad, LowpassPassesDcBlocksHigh) {
  auto tone_gain = [](Biquad filter, double freq, double fs) {
    double in_power = 0.0, out_power = 0.0;
    for (int i = 0; i < 4000; ++i) {
      const float x =
          std::sin(2.0 * std::numbers::pi * freq * i / fs);
      const float y = filter.process(x);
      if (i > 500) {
        in_power += x * x;
        out_power += y * y;
      }
    }
    return out_power / in_power;
  };
  EXPECT_GT(tone_gain(Biquad::lowpass(100.0, 8000.0), 10.0, 8000.0), 0.9);
  EXPECT_LT(tone_gain(Biquad::lowpass(100.0, 8000.0), 3000.0, 8000.0), 1e-3);
  EXPECT_LT(tone_gain(Biquad::highpass(1000.0, 8000.0), 20.0, 8000.0), 1e-2);
  EXPECT_GT(tone_gain(Biquad::highpass(1000.0, 8000.0), 3500.0, 8000.0), 0.8);
}

TEST(Biquad, DcBlockerRemovesOffset) {
  Biquad dc = Biquad::dc_blocker(8000.0);
  float y = 1.0f;
  for (int i = 0; i < 50000; ++i) y = dc.process(5.0f);
  EXPECT_NEAR(y, 0.0f, 1e-3f);
}

TEST(Biquad, ResetClearsState) {
  Biquad lp = Biquad::lowpass(100.0, 8000.0);
  for (int i = 0; i < 100; ++i) lp.process(1.0f);
  lp.reset();
  // After reset the first output should match a fresh filter.
  Biquad fresh = Biquad::lowpass(100.0, 8000.0);
  EXPECT_FLOAT_EQ(lp.process(1.0f), fresh.process(1.0f));
}

TEST(Biquad, BlockApiMatchesSampleApi) {
  Biquad a = Biquad::lowpass(200.0, 8000.0);
  Biquad b = Biquad::lowpass(200.0, 8000.0);
  std::vector<float> in(256), out(256);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::cos(0.05f * static_cast<float>(i));
  }
  a.process(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(b.process(in[i]), out[i]);
  }
}

}  // namespace
}  // namespace fdb::dsp
