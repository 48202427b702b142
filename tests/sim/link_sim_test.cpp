#include "sim/link_sim.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fdb::sim {
namespace {

LinkSimConfig fast_config() {
  LinkSimConfig config;
  config.modem = core::FdModemConfig::make(/*block_size_bytes=*/4,
                                           /*samples_per_chip=*/6);
  config.carrier = "cw";
  config.fading = "static";
  config.seed = 42;
  return config;
}

TEST(LinkSim, RejectsInconsistentModem) {
  auto config = fast_config();
  config.modem.block_size_bytes = 8;  // asymmetry still keyed to 4 bytes
  EXPECT_THROW(LinkSimulator{config}, std::invalid_argument);
}

TEST(LinkSim, CleanCwStaticIsErrorFree) {
  LinkSimulator sim(fast_config());
  sim.set_payload_bytes(12);
  const auto summary = sim.run(5);
  EXPECT_EQ(summary.sync_failures, 0u);
  EXPECT_EQ(summary.data.errors(), 0u);
  EXPECT_EQ(summary.feedback.errors(), 0u);
  EXPECT_GT(summary.data.trials(), 0u);
  EXPECT_GT(summary.feedback.trials(), 0u);
}

TEST(LinkSim, HarvestsEnergyEveryFrame) {
  LinkSimulator sim(fast_config());
  sim.set_payload_bytes(8);
  const auto summary = sim.run(3);
  EXPECT_GT(summary.harvested_per_frame_j.min(), 0.0);
}

TEST(LinkSim, StrongNoiseCausesErrors) {
  auto config = fast_config();
  // Envelope swing at B is ~1e-4; make per-sample noise comparable.
  config.noise_power_override_w = 1e-7;
  LinkSimulator sim(config);
  sim.set_payload_bytes(12);
  const auto summary = sim.run(10);
  EXPECT_GT(summary.data.errors() + summary.sync_failures, 0u);
}

TEST(LinkSim, DeterministicForSeed) {
  LinkSimConfig config = fast_config();
  config.noise_power_override_w = 1e-9;
  LinkSimulator a(config), b(config);
  a.set_payload_bytes(8);
  b.set_payload_bytes(8);
  const auto sa = a.run(5);
  const auto sb = b.run(5);
  EXPECT_EQ(sa.data.errors(), sb.data.errors());
  EXPECT_EQ(sa.feedback.errors(), sb.feedback.errors());
}

TEST(LinkSim, FeedbackOffStillDecodesData) {
  auto config = fast_config();
  config.feedback_active = false;
  LinkSimulator sim(config);
  sim.set_payload_bytes(12);
  const auto summary = sim.run(5);
  EXPECT_EQ(summary.data.errors(), 0u);
  EXPECT_EQ(summary.feedback.trials(), 0u);  // nothing to decode
}

TEST(LinkSim, ConcurrentFeedbackCostsLittleOnCleanChannel) {
  // The headline E1 claim in its cleanest form: with ample averaging,
  // data BER with feedback on equals data BER with feedback off.
  auto on = fast_config();
  on.noise_power_override_w = 1e-12;
  auto off = on;
  off.feedback_active = false;
  LinkSimulator sim_on(on), sim_off(off);
  sim_on.set_payload_bytes(12);
  sim_off.set_payload_bytes(12);
  const auto s_on = sim_on.run(10);
  const auto s_off = sim_off.run(10);
  EXPECT_NEAR(s_on.data_ber(), s_off.data_ber(), 0.01);
}

TEST(LinkSim, FartherLinkIsWorse) {
  auto near = fast_config();
  near.noise_power_override_w = 3e-9;
  auto far = near;
  far.a_to_b_m = 3.0;  // backscatter leg 3x longer
  LinkSimulator sim_near(near), sim_far(far);
  sim_near.set_payload_bytes(8);
  sim_far.set_payload_bytes(8);
  const auto s_near = sim_near.run(15);
  const auto s_far = sim_far.run(15);
  const double near_err =
      s_near.data_ber() + s_near.sync_failure_rate();
  const double far_err = s_far.data_ber() + s_far.sync_failure_rate();
  EXPECT_LE(near_err, far_err);
  EXPECT_GT(far_err, 0.0);
}

TEST(LinkSim, TxPowerScalesHarvest) {
  auto low = fast_config();
  auto high = fast_config();
  high.tx_power_w = 4.0;
  LinkSimulator sim_low(low), sim_high(high);
  sim_low.set_payload_bytes(8);
  sim_high.set_payload_bytes(8);
  const auto s_low = sim_low.run(3);
  const auto s_high = sim_high.run(3);
  EXPECT_GT(s_high.harvested_per_frame_j.mean(),
            s_low.harvested_per_frame_j.mean());
}

TEST(LinkSim, RayleighFadingDegradesLink) {
  auto faded = fast_config();
  faded.fading = "rayleigh";
  faded.noise_power_override_w = 1e-10;
  LinkSimulator sim(faded);
  sim.set_payload_bytes(8);
  const auto fadedsum = sim.run(30);
  // Fading produces occasional deep fades: some frames lost or errored.
  EXPECT_GT(fadedsum.data.errors() + fadedsum.sync_failures, 0u);
}

TEST(LinkSim, OfdmCarrierHarderThanCw) {
  auto cw = fast_config();
  cw.noise_power_override_w = 0.0;
  auto ofdm = cw;
  ofdm.carrier = "ofdm_tv";
  LinkSimulator sim_cw(cw), sim_ofdm(ofdm);
  sim_cw.set_payload_bytes(8);
  sim_ofdm.set_payload_bytes(8);
  const auto s_cw = sim_cw.run(8);
  const auto s_ofdm = sim_ofdm.run(8);
  const double cw_err = s_cw.data_ber() + s_cw.sync_failure_rate();
  const double ofdm_err = s_ofdm.data_ber() + s_ofdm.sync_failure_rate();
  EXPECT_LE(cw_err, ofdm_err);
}

TEST(LinkSim, TrialReportsBlockVerdicts) {
  LinkSimulator sim(fast_config());
  sim.set_payload_bytes(16);  // 4 blocks
  const auto trial = sim.run_trial(0);
  ASSERT_TRUE(trial.sync_ok);
  EXPECT_EQ(trial.block_ok.size(), 4u);
  for (const bool ok : trial.block_ok) EXPECT_TRUE(ok);
}

TEST(LinkSim, NoiseFigureRaisesDefaultNoise) {
  auto a = fast_config();
  a.noise_figure_db = 3.0;
  auto b = fast_config();
  b.noise_figure_db = 9.0;
  EXPECT_LT(a.noise_power_w(), b.noise_power_w());
}

}  // namespace
}  // namespace fdb::sim
