#include "channel/ambient_source.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <span>
#include <vector>

namespace fdb::channel {
namespace {

double mean_power(const std::vector<cf32>& samples) {
  double p = 0.0;
  for (const cf32 s : samples) p += std::norm(s);
  return p / static_cast<double>(samples.size());
}

TEST(CwSource, UnitConstantEnvelope) {
  CwSource src;
  std::vector<cf32> out;
  src.generate(1000, out);
  for (const cf32 s : out) {
    EXPECT_NEAR(std::abs(s), 1.0f, 1e-5f);
  }
}

TEST(CwSource, PhaseDriftRotates) {
  CwSource src(0.01);
  std::vector<cf32> out;
  src.generate(1000, out);
  // Envelope still unit, but phase moves.
  EXPECT_NEAR(std::abs(out.back()), 1.0f, 1e-4f);
  EXPECT_GT(std::abs(std::arg(out[500]) - std::arg(out[0])), 0.1);
}

TEST(CwSource, ResetRestoresPhase) {
  CwSource src(0.05);
  std::vector<cf32> a, b;
  src.generate(100, a);
  src.reset();
  src.generate(100, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i].real(), b[i].real());
  }
}

TEST(CwSource, ZeroDriftFillMatchesPerSampleLoop) {
  // Without drift generate() fills one constant instead of evaluating
  // cos/sin per sample. It must equal the per-sample loop it replaced,
  // whose phase stays 0.0 at zero drift, across chunked calls and
  // reset().
  const cf32 ref{static_cast<float>(std::cos(0.0)),
                 static_cast<float>(std::sin(0.0))};
  CwSource src;
  EXPECT_EQ(src.constant(), std::optional<cf32>(ref));
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{0}, std::size_t{4096}}) {
      std::vector<cf32> out(n, cf32{-2.0f, -2.0f});
      src.generate(std::span<cf32>(out));
      for (const cf32 s : out) {
        ASSERT_EQ(s.real(), ref.real());
        ASSERT_EQ(s.imag(), ref.imag());
      }
    }
    src.reset();
  }
}

TEST(AmbientSource, ConstantOnlyForZeroDriftCw) {
  EXPECT_FALSE(CwSource(0.01).constant().has_value());
  EXPECT_FALSE(make_ambient_source("ofdm_tv", 1)->constant().has_value());
  EXPECT_TRUE(make_ambient_source("cw", 1)->constant().has_value());
}

TEST(OfdmTvSource, UnitAveragePower) {
  OfdmTvSource src({.fft_size = 256, .cp_len = 32, .occupancy = 0.8,
                    .seed = 7});
  std::vector<cf32> out;
  src.generate(100000, out);
  EXPECT_NEAR(mean_power(out), 1.0, 0.05);
}

TEST(OfdmTvSource, EnvelopeFluctuates) {
  // The whole point of the OFDM arm: per-sample envelope varies a lot,
  // unlike CW.
  OfdmTvSource src({.fft_size = 128, .cp_len = 16, .occupancy = 0.9,
                    .seed = 3});
  std::vector<cf32> out;
  src.generate(20000, out);
  double min_env = 1e9, max_env = 0.0;
  for (const cf32 s : out) {
    min_env = std::min(min_env, static_cast<double>(std::abs(s)));
    max_env = std::max(max_env, static_cast<double>(std::abs(s)));
  }
  EXPECT_GT(max_env / std::max(min_env, 1e-9), 5.0);
}

TEST(OfdmTvSource, DeterministicForSeed) {
  OfdmParams params{.fft_size = 64, .cp_len = 8, .occupancy = 0.5,
                    .seed = 11};
  OfdmTvSource a(params), b(params);
  std::vector<cf32> out_a, out_b;
  a.generate(500, out_a);
  b.generate(500, out_b);
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_FLOAT_EQ(out_a[i].real(), out_b[i].real());
    EXPECT_FLOAT_EQ(out_a[i].imag(), out_b[i].imag());
  }
}

TEST(OfdmTvSource, GenerateAcrossSymbolBoundaries) {
  OfdmTvSource src({.fft_size = 64, .cp_len = 8, .occupancy = 0.7,
                    .seed = 5});
  // Request sizes that do not divide the symbol length.
  std::vector<cf32> a, b;
  src.generate(50, a);
  src.generate(100, b);
  EXPECT_EQ(a.size(), 50u);
  EXPECT_EQ(b.size(), 100u);
}

TEST(MakeAmbientSource, FactorySelectsKind) {
  EXPECT_STREQ(make_ambient_source("cw", 1)->name(), "cw");
  EXPECT_STREQ(make_ambient_source("ofdm_tv", 1)->name(), "ofdm_tv");
}

}  // namespace
}  // namespace fdb::channel
