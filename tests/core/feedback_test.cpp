#include "core/feedback.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "phy/line_code.hpp"
#include "util/rng.hpp"

namespace fdb::core {
namespace {

phy::RateConfig small_rates() {
  phy::RateConfig rates;
  rates.samples_per_chip = 4;
  rates.asymmetry = 8;  // feedback bit = 8 data bits = 64 samples
  return rates;
}

// Builds the transmitter-side envelope: A's own FM0 data pattern rides
// at `data_swing` on top of a base level, and B's feedback adds
// `fb_swing` when B reflects. This is what A's antenna sees.
struct Waveform {
  std::vector<float> envelope;
  std::vector<std::uint8_t> own_states;
};

Waveform make_waveform(const phy::RateConfig& rates,
                       const std::vector<std::uint8_t>& fb_states,
                       Rng& rng, double data_swing, double fb_swing,
                       double noise_sigma) {
  // A transmits random FM0 data continuously.
  const std::size_t num_bits =
      fb_states.size() / rates.samples_per_bit() + 2;
  std::vector<std::uint8_t> data_bits(num_bits);
  for (auto& b : data_bits) b = rng.chance(0.5) ? 1 : 0;
  const auto chips = phy::encode(phy::LineCode::kFm0, data_bits);
  Waveform wf;
  for (const auto chip : chips) {
    for (std::size_t s = 0; s < rates.samples_per_chip; ++s) {
      wf.own_states.push_back(chip);
    }
  }
  wf.own_states.resize(fb_states.size());
  wf.envelope.resize(fb_states.size());
  for (std::size_t i = 0; i < fb_states.size(); ++i) {
    double env = 1.0;
    if (wf.own_states[i]) env += data_swing;   // own reflection
    if (fb_states[i]) env += fb_swing;         // B's feedback reflection
    env += rng.normal(0.0, noise_sigma);
    wf.envelope[i] = static_cast<float>(env);
  }
  return wf;
}

class FeedbackRoundTrip
    : public ::testing::TestWithParam<std::pair<FeedbackCoding,
                                                FeedbackAverage>> {};

TEST_P(FeedbackRoundTrip, CleanChannel) {
  const auto [coding, average] = GetParam();
  const auto rates = small_rates();
  FeedbackConfig config{.coding = coding, .average = average};
  FeedbackEncoder encoder(rates, config);
  FeedbackDecoder decoder(rates, config);
  Rng rng(7);

  std::vector<std::uint8_t> bits(24);
  for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
  const auto fb_states = encoder.encode(bits);
  const auto wf = make_waveform(rates, fb_states, rng, /*data_swing=*/0.5,
                                /*fb_swing=*/0.2, /*noise=*/0.0);
  const auto result = decoder.decode(wf.envelope, wf.own_states,
                                     bits.size());
  ASSERT_EQ(result.bits.size(), bits.size());
  EXPECT_EQ(result.bits, bits);
}

TEST_P(FeedbackRoundTrip, SurvivesModerateNoise) {
  const auto [coding, average] = GetParam();
  const auto rates = small_rates();
  FeedbackConfig config{.coding = coding, .average = average};
  FeedbackEncoder encoder(rates, config);
  FeedbackDecoder decoder(rates, config);
  Rng rng(11);

  std::size_t errors = 0, total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint8_t> bits(16);
    for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
    const auto fb_states = encoder.encode(bits);
    const auto wf = make_waveform(rates, fb_states, rng, 0.5, 0.2, 0.05);
    const auto result =
        decoder.decode(wf.envelope, wf.own_states, bits.size());
    for (std::size_t i = 0; i < result.bits.size(); ++i) {
      ++total;
      if (result.bits[i] != bits[i]) ++errors;
    }
  }
  // Feedback averages over 32+ samples per decision: sigma_eff small.
  EXPECT_LT(static_cast<double>(errors) / static_cast<double>(total), 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    CodingsAndAverages, FeedbackRoundTrip,
    ::testing::Values(
        std::make_pair(FeedbackCoding::kManchester,
                       FeedbackAverage::kSelfGated),
        std::make_pair(FeedbackCoding::kManchester, FeedbackAverage::kWindow),
        std::make_pair(FeedbackCoding::kNrz, FeedbackAverage::kSelfGated),
        std::make_pair(FeedbackCoding::kNrz, FeedbackAverage::kWindow)),
    [](const auto& info) {
      std::string name =
          info.param.first == FeedbackCoding::kManchester ? "manchester"
                                                          : "nrz";
      name += info.param.second == FeedbackAverage::kSelfGated
                  ? "_selfgated"
                  : "_window";
      return name;
    });

TEST(FeedbackEncoder, RejectsInvalidRates) {
  auto rates = small_rates();
  rates.asymmetry = 0;
  EXPECT_THROW(FeedbackEncoder(rates, FeedbackConfig{}), std::invalid_argument);
}

TEST(FeedbackDecoder, RejectsInvalidRates) {
  auto rates = small_rates();
  rates.sample_rate_hz = 0.0;
  EXPECT_THROW(FeedbackDecoder(rates, FeedbackConfig{}), std::invalid_argument);
}

TEST(FeedbackEncoder, NrzPrependsCalibrationSlots) {
  const auto rates = small_rates();
  FeedbackEncoder encoder(rates, {.coding = FeedbackCoding::kNrz,
                                  .preamble_slots = 4});
  const std::vector<std::uint8_t> bits = {1, 0};
  const auto states = encoder.encode(bits);
  EXPECT_EQ(states.size(), (4 + 2) * rates.samples_per_feedback_bit());
  // Calibration slots alternate 0,1,0,1.
  const std::size_t w = rates.samples_per_feedback_bit();
  EXPECT_EQ(states[0], 0);
  EXPECT_EQ(states[w], 1);
  EXPECT_EQ(states[2 * w], 0);
}

TEST(FeedbackEncoder, ManchesterPrependsPilotAndSplitsWindows) {
  const auto rates = small_rates();
  FeedbackEncoder encoder(rates, {.coding = FeedbackCoding::kManchester,
                                  .pilot_slots = 1});
  const std::vector<std::uint8_t> bits = {0};
  const auto states = encoder.encode(bits);
  const std::size_t w = rates.samples_per_feedback_bit();
  ASSERT_EQ(states.size(), 2 * w);  // pilot + payload bit
  // Pilot is a '1': high half then low half.
  EXPECT_EQ(states[0], 1);
  EXPECT_EQ(states[w / 2], 0);
  // Payload '0' = low half then high half.
  EXPECT_EQ(states[w], 0);
  EXPECT_EQ(states[w + w / 2], 1);
}

TEST(FeedbackDecoder, PilotResolvesInvertedPolarity) {
  // Invert the whole waveform (destructive fading phase): the pilot
  // must flip the payload decisions back.
  const auto rates = small_rates();
  FeedbackConfig config{.coding = FeedbackCoding::kManchester,
                        .average = FeedbackAverage::kWindow};
  FeedbackEncoder encoder(rates, config);
  FeedbackDecoder decoder(rates, config);
  const std::vector<std::uint8_t> bits = {1, 0, 1, 1, 0, 0};
  const auto states = encoder.encode(bits);
  std::vector<float> envelope(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    envelope[i] = states[i] ? 0.9f : 1.1f;  // reflect DARKENS the env
  }
  const auto result = decoder.decode(envelope, {}, bits.size());
  ASSERT_EQ(result.bits.size(), bits.size());
  EXPECT_EQ(result.bits, bits);
}

TEST(FeedbackDecoder, NrzCalibrationResolvesInvertedPolarity) {
  const auto rates = small_rates();
  FeedbackConfig config{.coding = FeedbackCoding::kNrz,
                        .average = FeedbackAverage::kWindow,
                        .preamble_slots = 4};
  FeedbackEncoder encoder(rates, config);
  FeedbackDecoder decoder(rates, config);
  const std::vector<std::uint8_t> bits = {1, 0, 0, 1, 1, 0};
  const auto states = encoder.encode(bits);
  std::vector<float> envelope(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    envelope[i] = states[i] ? 0.8f : 1.2f;  // inverted channel
  }
  const auto result = decoder.decode(envelope, {}, bits.size());
  ASSERT_EQ(result.bits.size(), bits.size());
  EXPECT_EQ(result.bits, bits);
}

TEST(FeedbackDecoder, SelfGatedIgnoresOwnOnSamples) {
  // Construct a pathological case where own-state samples carry a huge
  // disturbance; the self-gated decoder must be immune.
  const auto rates = small_rates();
  FeedbackConfig config{.coding = FeedbackCoding::kManchester,
                        .average = FeedbackAverage::kSelfGated};
  FeedbackEncoder encoder(rates, config);
  FeedbackDecoder decoder(rates, config);
  Rng rng(13);

  std::vector<std::uint8_t> bits = {1, 0, 1, 1, 0};
  const auto fb_states = encoder.encode(bits);
  auto wf = make_waveform(rates, fb_states, rng, 0.5, 0.2, 0.0);
  // Blow up own-state samples by 10x.
  for (std::size_t i = 0; i < wf.envelope.size(); ++i) {
    if (wf.own_states[i]) wf.envelope[i] *= 10.0f;
  }
  const auto result = decoder.decode(wf.envelope, wf.own_states,
                                     bits.size());
  EXPECT_EQ(result.bits, bits);
}

TEST(FeedbackDecoder, TruncatedCaptureYieldsFewerBits) {
  const auto rates = small_rates();
  FeedbackConfig config{.coding = FeedbackCoding::kManchester};
  FeedbackEncoder encoder(rates, config);
  FeedbackDecoder decoder(rates, config);
  Rng rng(17);

  std::vector<std::uint8_t> bits(10, 1);
  const auto fb_states = encoder.encode(bits);
  const auto wf = make_waveform(rates, fb_states, rng, 0.5, 0.2, 0.0);
  // Give the decoder only half the capture.
  const std::span<const float> half(wf.envelope.data(),
                                    wf.envelope.size() / 2);
  const std::span<const std::uint8_t> half_states(wf.own_states.data(),
                                                  wf.own_states.size() / 2);
  const auto result = decoder.decode(half, half_states, bits.size());
  EXPECT_LT(result.bits.size(), bits.size());
  EXPECT_GT(result.bits.size(), 0u);
}

}  // namespace
}  // namespace fdb::core
