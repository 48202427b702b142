// Full-duplex modem tests on synthetic envelopes: both directions
// decoded from the same construction the link simulator uses, but with
// hand-controlled levels so failures localise.
#include "core/fd_modem.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.hpp"

namespace fdb::core {
namespace {

FdModemConfig small_config() {
  auto config = FdModemConfig::make(/*block_size_bytes=*/4,
                                    /*samples_per_chip=*/6);
  return config;
}

TEST(FdModemConfig, MakeIsConsistent) {
  const auto config = small_config();
  EXPECT_TRUE(config.consistent());
  EXPECT_EQ(config.block_bits(), 4u * 8u + 8u);
  EXPECT_EQ(config.data.rates.asymmetry, config.block_bits());
}

TEST(FdModemConfig, InconsistentWhenAsymmetryDiverges) {
  auto config = small_config();
  config.data.rates.asymmetry = 10;
  EXPECT_FALSE(config.consistent());
}

// The consistency checks run in every build, not only under assert:
// 4-byte blocks (40 block bits) with the default 72-bit asymmetry.
FdModemConfig inconsistent_config() {
  auto config = FdModemConfig::make(/*block_size_bytes=*/8,
                                    /*samples_per_chip=*/6);
  config.block_size_bytes = 4;
  return config;
}

TEST(FdDataTransmitter, RejectsInconsistentConfig) {
  EXPECT_THROW(FdDataTransmitter{inconsistent_config()}, std::invalid_argument);
}

TEST(FdDataReceiver, RejectsInconsistentConfig) {
  EXPECT_THROW(FdDataReceiver{inconsistent_config()}, std::invalid_argument);
}

TEST(FdFeedbackReceiver, RejectsInconsistentConfig) {
  EXPECT_THROW(FdFeedbackReceiver{inconsistent_config()},
               std::invalid_argument);
}

TEST(FdDataTransmitter, BurstLayout) {
  const auto config = small_config();
  FdDataTransmitter tx(config);
  const std::vector<std::uint8_t> payload(12, 0xC3);  // 3 blocks
  EXPECT_EQ(tx.num_blocks(12), 3u);
  const auto states = tx.modulate(payload);
  EXPECT_EQ(states.size(), tx.burst_samples(12));
  EXPECT_EQ(tx.preamble_samples(),
            phy::default_preamble_length() * 6u);
}

TEST(FdDataReceiver, HalfDuplexDecodeWithoutOwnStates) {
  const auto config = small_config();
  FdDataTransmitter tx(config);
  FdDataReceiver rx(config);
  Rng rng(3);
  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));

  const auto states = tx.modulate(payload);
  std::vector<float> env;
  env.insert(env.end(), 100, 1.0f);
  for (const auto s : states) env.push_back(s ? 1.5f : 1.0f);
  env.insert(env.end(), 100, 1.0f);

  const auto result = rx.demodulate(env, {}, payload.size());
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(result.blocks.blocks_failed, 0u);
  EXPECT_EQ(result.blocks.payload, payload);
}

TEST(FdDataReceiver, DecodesWhileTransmittingFeedback) {
  // B's own feedback modulation scales its received envelope; the
  // normaliser must remove it and the data must still decode.
  const auto config = small_config();
  FdDataTransmitter tx(config);
  FdDataReceiver rx(config);
  FeedbackEncoder fb_enc(config.data.rates, config.feedback);
  Rng rng(5);
  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));

  const auto states_a = tx.modulate(payload);
  std::vector<std::uint8_t> fb_bits(8);
  for (auto& b : fb_bits) b = rng.chance(0.5) ? 1 : 0;
  const auto fb_states_raw = fb_enc.encode(fb_bits);

  const std::size_t pad = 400;
  const std::size_t total = states_a.size() + 2 * pad;
  std::vector<std::uint8_t> own_states(total, 0);
  const std::size_t data_start = pad + tx.preamble_samples();
  for (std::size_t i = 0;
       i < fb_states_raw.size() && data_start + i < total; ++i) {
    own_states[data_start + i] = fb_states_raw[i];
  }

  std::vector<float> env(total);
  for (std::size_t i = 0; i < total; ++i) {
    const bool a_on =
        i >= pad && i < pad + states_a.size() && states_a[i - pad];
    double level = 1.0;
    if (a_on) level += 0.4;                  // A's data reflection
    if (own_states[i]) level *= 1.35;        // B's own reflection scales
    env[i] = static_cast<float>(level);
  }

  const auto result = rx.demodulate(env, own_states, payload.size());
  EXPECT_EQ(result.status, Status::kOk) << "blocks failed: "
                                        << result.blocks.blocks_failed;
  EXPECT_EQ(result.blocks.payload, payload);
}

TEST(FdFeedbackReceiver, DecodesFeedbackThroughOwnData) {
  const auto config = small_config();
  FdDataTransmitter tx(config);
  FdFeedbackReceiver fb_rx(config);
  FeedbackEncoder fb_enc(config.data.rates, config.feedback);
  Rng rng(7);

  std::vector<std::uint8_t> payload(16);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const auto states_a = tx.modulate(payload);

  std::vector<std::uint8_t> fb_bits(6);
  for (auto& b : fb_bits) b = rng.chance(0.5) ? 1 : 0;
  const auto fb_states_raw = fb_enc.encode(fb_bits);

  // The capture must cover all six feedback slots; A idles (absorbing)
  // after its burst while the tail verdicts drain.
  const std::size_t data_start = tx.preamble_samples();
  const std::size_t total = data_start + fb_states_raw.size();
  std::vector<std::uint8_t> fb_states(total, 0);
  std::copy(fb_states_raw.begin(), fb_states_raw.end(),
            fb_states.begin() + static_cast<long>(data_start));
  std::vector<std::uint8_t> own(total, 0);
  std::copy(states_a.begin(), states_a.end(), own.begin());

  // A's antenna: own strong reflection + B's weak feedback reflection.
  std::vector<float> env(total);
  for (std::size_t i = 0; i < total; ++i) {
    double level = 1.0;
    if (own[i]) level += 0.6;        // own (huge relative to feedback)
    if (fb_states[i]) level += 0.08; // B's feedback
    env[i] = static_cast<float>(level);
  }

  const auto result = fb_rx.decode(env, own, data_start, fb_bits.size());
  ASSERT_GE(result.bits.size(), fb_bits.size());
  for (std::size_t i = 0; i < fb_bits.size(); ++i) {
    EXPECT_EQ(result.bits[i], fb_bits[i]) << "feedback bit " << i;
  }
}

TEST(FdDataReceiver, CorruptedBlockIsolated) {
  const auto config = small_config();
  FdDataTransmitter tx(config);
  FdDataReceiver rx(config);
  Rng rng(9);
  std::vector<std::uint8_t> payload(16);  // 4 blocks
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));

  const auto states = tx.modulate(payload);
  std::vector<float> env;
  env.insert(env.end(), 100, 1.0f);
  for (const auto s : states) env.push_back(s ? 1.5f : 1.0f);
  env.insert(env.end(), 100, 1.0f);

  // Destroy block 2's samples: preamble + 2 blocks in, flatten a block.
  const std::size_t spb = config.data.rates.samples_per_bit();
  const std::size_t block_samples = config.block_bits() * spb;
  const std::size_t block2_start =
      100 + tx.preamble_samples() + 2 * block_samples;
  for (std::size_t i = block2_start; i < block2_start + block_samples; ++i) {
    env[i] = 1.25f;  // midway: chips become noise
  }

  const auto result = rx.demodulate(env, {}, payload.size());
  EXPECT_EQ(result.status, Status::kCrcMismatch);
  ASSERT_EQ(result.blocks.block_ok.size(), 4u);
  EXPECT_TRUE(result.blocks.block_ok[0]);
  EXPECT_TRUE(result.blocks.block_ok[1]);
  EXPECT_FALSE(result.blocks.block_ok[2]);
  // Block 3 may or may not survive the slicer transient; block 0/1 must.
}

TEST(FdDataReceiver, RejectsShortOwnStates) {
  const auto config = small_config();
  FdDataReceiver rx(config);
  const std::vector<float> env(600, 1.0f);
  const std::vector<std::uint8_t> own(env.size() - 1, 1);
  EXPECT_THROW(rx.demodulate(env, own, 4), std::invalid_argument);
}

TEST(FdFeedbackReceiver, RejectsDataStartPastEnvelope) {
  const auto config = small_config();
  FdFeedbackReceiver rx(config);
  const std::vector<float> env(600, 1.0f);
  EXPECT_THROW(rx.decode(env, {}, env.size() + 1, 1), std::invalid_argument);
}

TEST(FdFeedbackReceiver, RejectsShortOwnStates) {
  const auto config = small_config();
  FdFeedbackReceiver rx(config);
  const std::vector<float> env(600, 1.0f);
  const std::vector<std::uint8_t> own(100, 1);
  EXPECT_THROW(rx.decode(env, own, 200, 1), std::invalid_argument);
}

TEST(FdDataTransmitter, RetransmissionBurstContainsOnlyRequestedBlocks) {
  const auto config = small_config();
  FdDataTransmitter tx(config);
  const std::vector<std::uint8_t> payload(16, 0x11);
  const std::vector<std::size_t> wanted = {1, 3};
  const auto states = tx.modulate_blocks_raw(payload, 4, wanted);
  // Two blocks of (4*8+8) bits, 2 chips/bit, 6 samples/chip.
  EXPECT_EQ(states.size(), 2u * 40u * 2u * 6u);
}

}  // namespace
}  // namespace fdb::core
