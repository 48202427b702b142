// End-to-end one-way modem tests over synthetic envelope waveforms: the
// transmit states are mapped to two envelope levels (what a clean CW
// channel produces) plus optional noise.
#include "phy/modem.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.hpp"

namespace fdb::phy {
namespace {

ModemConfig small_config() {
  ModemConfig config;
  config.rates.samples_per_chip = 8;
  config.rates.asymmetry = 8;
  return config;
}

std::vector<float> states_to_envelope(const std::vector<std::uint8_t>& states,
                                      float low, float high, Rng* rng,
                                      double noise_sigma,
                                      std::size_t pad = 200) {
  std::vector<float> env;
  env.reserve(states.size() + 2 * pad);
  auto emit = [&](float level) {
    const double noise = rng ? rng->normal(0.0, noise_sigma) : 0.0;
    env.push_back(level + static_cast<float>(noise));
  };
  for (std::size_t i = 0; i < pad; ++i) emit(low);
  for (const auto s : states) emit(s ? high : low);
  for (std::size_t i = 0; i < pad; ++i) emit(low);
  return env;
}

TEST(BackscatterRx, RejectsInvalidRates) {
  // Rejected in every build, not only where assert() is live.
  for (const auto bad : {&RateConfig::samples_per_chip,
                         &RateConfig::asymmetry}) {
    ModemConfig config = small_config();
    config.rates.*bad = 0;
    EXPECT_THROW(BackscatterRx{config}, std::invalid_argument);
    EXPECT_THROW(BackscatterTx{config}, std::invalid_argument);
  }
  ModemConfig config = small_config();
  config.rates.sample_rate_hz = 0.0;
  EXPECT_THROW(BackscatterRx{config}, std::invalid_argument);
  EXPECT_THROW(BackscatterTx{config}, std::invalid_argument);
  EXPECT_NO_THROW(BackscatterRx{small_config()});
}

TEST(Modem, CleanChannelFrameRoundTrip) {
  const auto config = small_config();
  BackscatterTx tx(config);
  BackscatterRx rx(config);
  Rng rng(3);
  std::vector<std::uint8_t> payload(24);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));

  const auto states = tx.modulate_frame(payload);
  const auto env = states_to_envelope(states, 1.0f, 1.5f, nullptr, 0.0);
  const auto result = rx.demodulate_frame(env);
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(result.payload, payload);
  EXPECT_GT(result.diag.sync_corr, 0.9f);
}

TEST(Modem, ModerateNoiseStillDecodes) {
  const auto config = small_config();
  BackscatterTx tx(config);
  BackscatterRx rx(config);
  Rng rng(5);
  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));

  int ok = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto states = tx.modulate_frame(payload);
    // Swing 0.5, per-sample sigma 0.15 -> post-integration (8 samples)
    // effective sigma ~0.053, comfortably decodable.
    const auto env = states_to_envelope(states, 1.0f, 1.5f, &rng, 0.15);
    const auto result = rx.demodulate_frame(env);
    if (result.status == Status::kOk && result.payload == payload) ++ok;
  }
  EXPECT_GE(ok, 18);
}

TEST(Modem, NoSignalReportsSyncNotFound) {
  const auto config = small_config();
  BackscatterRx rx(config);
  Rng rng(7);
  std::vector<float> env(5000);
  for (auto& e : env) e = 1.0f + static_cast<float>(rng.normal(0.0, 0.01));
  const auto result = rx.demodulate_frame(env);
  EXPECT_EQ(result.status, Status::kSyncNotFound);
}

TEST(Modem, RawBitsRoundTrip) {
  const auto config = small_config();
  BackscatterTx tx(config);
  BackscatterRx rx(config);
  Rng rng(9);
  std::vector<std::uint8_t> bits(300);
  for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;

  const auto states = tx.modulate_bits(bits);
  const auto env = states_to_envelope(states, 2.0f, 2.6f, nullptr, 0.0);
  const auto decoded = rx.demodulate_bits(env, bits.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, bits);
}

TEST(Modem, InvertedPolarityStillDecodes) {
  // If "reflect" darkens the envelope (destructive backscatter phase),
  // the preamble correlation is negative. Acquisition matches on the
  // correlation magnitude and FM0 is equality-coded, so the frame
  // decodes anyway — no dead spot from polarity alone.
  const auto config = small_config();
  BackscatterTx tx(config);
  BackscatterRx rx(config);
  std::vector<std::uint8_t> payload(8, 0xAA);
  const auto states = tx.modulate_frame(payload);
  const auto env = states_to_envelope(states, 1.5f, 1.0f, nullptr, 0.0);
  const auto result = rx.demodulate_frame(env);
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(result.payload, payload);
}

TEST(Modem, FrameSamplesMatchesModulateLength) {
  const auto config = small_config();
  BackscatterTx tx(config);
  const std::vector<std::uint8_t> payload(33, 0x5A);
  EXPECT_EQ(tx.modulate_frame(payload).size(), tx.frame_samples(33));
}

TEST(Modem, LargePayloadNearLimit) {
  const auto config = small_config();
  BackscatterTx tx(config);
  BackscatterRx rx(config);
  Rng rng(11);
  std::vector<std::uint8_t> payload(255);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const auto states = tx.modulate_frame(payload);
  const auto env = states_to_envelope(states, 1.0f, 1.4f, nullptr, 0.0);
  const auto result = rx.demodulate_frame(env);
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(result.payload, payload);
}

}  // namespace
}  // namespace fdb::phy
