#include "channel/impairments.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <vector>

namespace fdb::channel {
namespace {

TEST(ThermalNoise, ScalesWithBandwidth) {
  const double n1 = thermal_noise_power(1e6, 0.0);
  const double n2 = thermal_noise_power(2e6, 0.0);
  EXPECT_NEAR(n2 / n1, 2.0, 1e-9);
}

TEST(ThermalNoise, KtbAt290K) {
  // kTB for 1 Hz at 290 K is -174 dBm.
  const double p = thermal_noise_power(1.0, 0.0);
  EXPECT_NEAR(10.0 * std::log10(p * 1000.0), -174.0, 0.2);
}

TEST(Awgn, AddsConfiguredPower) {
  AwgnChannel awgn(0.25, Rng(7));
  double noise_power = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const cf32 y = awgn.process({0.0f, 0.0f});
    noise_power += std::norm(y);
  }
  EXPECT_NEAR(noise_power / n, 0.25, 0.01);
}

TEST(Awgn, ZeroPowerIsTransparent) {
  AwgnChannel awgn(0.0, Rng(8));
  const cf32 x{1.0f, -2.0f};
  const cf32 y = awgn.process(x);
  EXPECT_EQ(x, y);
}

TEST(Awgn, SignalPlusNoisePowerAdds) {
  AwgnChannel awgn(0.1, Rng(9));
  double total = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    total += std::norm(awgn.process({1.0f, 0.0f}));
  }
  EXPECT_NEAR(total / n, 1.1, 0.02);
}

TEST(Awgn, BatchMatchesPerSampleInPlace) {
  // process(span) draws its noise through Rng::fill_cn in blocks; the
  // samples must equal per-sample process(x) across block boundaries.
  AwgnChannel batch(0.3, Rng(10));
  AwgnChannel scalar(0.3, Rng(10));
  std::vector<cf32> buf(1000);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = {static_cast<float>(i) * 0.01f, -0.5f};
  }
  const std::vector<cf32> in = buf;
  batch.process(buf, buf);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const cf32 want = scalar.process(in[i]);
    ASSERT_EQ(buf[i].real(), want.real()) << "sample " << i;
    ASSERT_EQ(buf[i].imag(), want.imag()) << "sample " << i;
  }
}

TEST(Awgn, RejectsBadNoisePower) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double p : {-1e-9, -1.0, nan, inf}) {
    EXPECT_THROW(AwgnChannel(p, Rng(1)), std::invalid_argument) << p;
    AwgnChannel awgn(0.5, Rng(1));
    EXPECT_THROW(awgn.set_noise_power(p), std::invalid_argument) << p;
    EXPECT_EQ(awgn.noise_power(), 0.5) << "a rejected power is not kept";
  }
  AwgnChannel awgn(0.0, Rng(1));
  awgn.set_noise_power(0.0);
  EXPECT_EQ(awgn.noise_power(), 0.0);
}

TEST(Cfo, RotatesAtConfiguredRate) {
  const double fs = 1e6;
  const double offset = 1000.0;
  CfoRotator cfo(offset, fs);
  // After fs/offset/4 samples the phase should be 90 degrees.
  const int quarter = static_cast<int>(fs / offset / 4.0);
  cf32 y{};
  for (int i = 0; i <= quarter; ++i) y = cfo.process({1.0f, 0.0f});
  EXPECT_NEAR(std::arg(y), std::numbers::pi / 2.0, 0.02);
}

TEST(Cfo, ZeroOffsetIdentity) {
  CfoRotator cfo(0.0, 1e6);
  for (int i = 0; i < 100; ++i) {
    const cf32 y = cfo.process({1.0f, 1.0f});
    EXPECT_NEAR(y.real(), 1.0f, 1e-6f);
    EXPECT_NEAR(y.imag(), 1.0f, 1e-6f);
  }
}

TEST(Cfo, PreservesMagnitude) {
  CfoRotator cfo(12345.0, 1e6);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(std::abs(cfo.process({0.0f, 3.0f})), 3.0f, 1e-4f);
  }
}

TEST(DelayLine, ZeroDelayPassthrough) {
  DelayLine delay(0);
  EXPECT_EQ(delay.process({5.0f, 0.0f}), (cf32{5.0f, 0.0f}));
}

TEST(DelayLine, DelaysBySamples) {
  DelayLine delay(3);
  EXPECT_EQ(delay.process({1.0f, 0.0f}), (cf32{0.0f, 0.0f}));
  EXPECT_EQ(delay.process({2.0f, 0.0f}), (cf32{0.0f, 0.0f}));
  EXPECT_EQ(delay.process({3.0f, 0.0f}), (cf32{0.0f, 0.0f}));
  EXPECT_EQ(delay.process({4.0f, 0.0f}), (cf32{1.0f, 0.0f}));
  EXPECT_EQ(delay.process({5.0f, 0.0f}), (cf32{2.0f, 0.0f}));
}

}  // namespace
}  // namespace fdb::channel
