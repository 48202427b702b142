#include "core/self_interference.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace fdb::core {
namespace {

// RemovesKnownScaleChange, PreservesDataModulationOnTop,
// State0PassesThroughUnchanged and SingleStateCaptureUnchanged drive the
// two-pass batch form, the one FdDataReceiver runs; the rest pin the
// streaming EMA normalizer.

TEST(Normalizer, RemovesKnownScaleChange) {
  // Envelope is 1.0 while own state is 0, and 1.4 while own state is 1
  // (own reflection raises the level). The normalised stream should be
  // flat at ~1.0.
  std::vector<float> env(4000);
  std::vector<std::uint8_t> states(env.size());
  for (std::size_t i = 0; i < env.size(); ++i) {
    states[i] = (i / 16) % 2;  // alternate states in runs of 16 samples
    env[i] = states[i] ? 1.4f : 1.0f;
  }
  std::vector<float> out(env.size());
  const double gain = normalize_batch(env, states, out);
  EXPECT_NEAR(gain, 1.0 / 1.4, 1e-6);
  for (const float y : out) EXPECT_NEAR(y, 1.0f, 1e-6f);
}

TEST(Normalizer, PreservesDataModulationOnTop) {
  // Data signal (small swing d) rides on both own-state levels; after
  // normalisation the swing must survive in comparable size.
  std::vector<float> env(20000);
  std::vector<std::uint8_t> own(env.size());
  std::vector<std::uint8_t> data(env.size());
  for (std::size_t i = 0; i < env.size(); ++i) {
    own[i] = (i / 64) % 2;
    data[i] = (i / 8) % 2;  // fast data toggling
    const float base = own[i] ? 1.5f : 1.0f;
    env[i] = base * (data[i] ? 1.1f : 1.0f);
  }
  std::vector<float> out(env.size());
  normalize_batch(env, own, out);
  double sum[2] = {0.0, 0.0};
  std::size_t count[2] = {0, 0};
  for (std::size_t i = 0; i < out.size(); ++i) {
    sum[data[i]] += out[i];
    ++count[data[i]];
  }
  const double m0 = sum[0] / static_cast<double>(count[0]);
  const double m1 = sum[1] / static_cast<double>(count[1]);
  // Data swing ~10% preserved after own-state normalisation.
  EXPECT_NEAR(m1 / m0, 1.1, 0.02);
}

TEST(Normalizer, UnityGainBeforeWarmup) {
  SelfInterferenceNormalizer normalizer({.ema_samples = 64,
                                         .warmup_samples = 1000});
  for (int i = 0; i < 100; ++i) {
    normalizer.process(2.0f, i % 2 == 1);
  }
  EXPECT_DOUBLE_EQ(normalizer.gain(), 1.0);
}

TEST(Normalizer, State0PassesThroughUnchanged) {
  Rng rng(7);
  std::vector<float> env(1000);
  std::vector<std::uint8_t> states(env.size());
  for (std::size_t i = 0; i < env.size(); ++i) {
    env[i] = 1.0f + static_cast<float>(rng.uniform());
    states[i] = rng.chance(0.5) ? 1 : 0;
  }
  std::vector<float> out(env.size());
  const double gain = normalize_batch(env, states, out);
  EXPECT_NE(gain, 1.0);
  for (std::size_t i = 0; i < env.size(); ++i) {
    if (states[i] == 0) {
      EXPECT_EQ(out[i], env[i]) << "sample " << i;
    }
  }
}

TEST(Normalizer, SingleStateCaptureUnchanged) {
  // One state only: there is no ratio to take, so the gain is 1 and
  // every sample passes through, whichever state it is.
  const std::vector<float> env = {0.5f, 1.25f, 2.0f, 3.5f};
  std::vector<float> out(env.size());
  for (const std::uint8_t s : {0, 1}) {
    const std::vector<std::uint8_t> states(env.size(), s);
    EXPECT_EQ(normalize_batch(env, states, out), 1.0);
    EXPECT_EQ(out, env);
  }
}

TEST(Normalizer, BlockApiMatchesSampleApi) {
  SelfInterferenceNormalizer a({.ema_samples = 32, .warmup_samples = 8});
  SelfInterferenceNormalizer b({.ema_samples = 32, .warmup_samples = 8});
  Rng rng(5);
  std::vector<float> env(500);
  std::vector<std::uint8_t> states(500);
  for (std::size_t i = 0; i < env.size(); ++i) {
    env[i] = 1.0f + static_cast<float>(rng.uniform()) * 0.5f;
    states[i] = rng.chance(0.5) ? 1 : 0;
  }
  std::vector<float> block_out(500);
  a.process(env, states, block_out);
  for (std::size_t i = 0; i < env.size(); ++i) {
    EXPECT_FLOAT_EQ(b.process(env[i], states[i] != 0), block_out[i]);
  }
}

TEST(Normalizer, ResetClearsEstimates) {
  SelfInterferenceNormalizer normalizer({.ema_samples = 16,
                                         .warmup_samples = 4});
  for (int i = 0; i < 100; ++i) normalizer.process(2.0f, i % 2 == 1);
  normalizer.reset();
  EXPECT_DOUBLE_EQ(normalizer.gain(), 1.0);
  EXPECT_DOUBLE_EQ(normalizer.mean_state0(), 0.0);
}

TEST(Normalizer, TracksSlowChannelDrift) {
  // The per-state gain ratio stays correct while the overall level
  // drifts (fading within coherence limits).
  SelfInterferenceNormalizer normalizer({.ema_samples = 128,
                                         .warmup_samples = 32});
  float final_output = 0.0f;
  for (int i = 0; i < 30000; ++i) {
    const bool own = (i / 32) % 2 == 1;
    const float drift = 1.0f + 0.3f * static_cast<float>(i) / 30000.0f;
    const float env = drift * (own ? 1.25f : 1.0f);
    final_output = normalizer.process(env, own);
  }
  // At the end, normalised own-state output should track drift*1.0.
  EXPECT_NEAR(final_output, 1.3f, 0.05f);
}

}  // namespace
}  // namespace fdb::core
