// Cross-fidelity contract of the hybrid fleet engine (sim/fleet.hpp):
//
//  * statistically, kHybrid must track kWaveform on every registry
//    scenario — the escalation machinery may only reshuffle marginal
//    frames, never move the headline numbers;
//  * frame-for-frame, the analytic classifier must be one-sided-safe:
//    replayed against ground-truth synthesis (kWaveform +
//    record_frames runs both on identical trial state), every
//    clear-deliver frame really delivers and every clear-fail frame
//    really fails, across a randomized sweep of small deployments;
//  * the contested band must do actual work: it cannot swallow 100% of
//    frames, or the fast path would never fire.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/fleet.hpp"
#include "sim/network_sim.hpp"
#include "sim/scenarios.hpp"
#include "util/rng.hpp"

namespace fdb::sim {
namespace {

NetworkSimSummary run(const NetworkSimConfig& config, std::size_t trials) {
  const NetworkSimulator sim(config);
  NetworkSimSummary summary;
  for (std::size_t t = 0; t < trials; ++t) summary.add(sim.run_trial(t));
  return summary;
}

double collision_rate(const NetworkSimSummary& s) {
  const std::uint64_t attempted = s.frames_attempted();
  return attempted ? static_cast<double>(s.collisions) /
                         static_cast<double>(attempted)
                   : 0.0;
}

// -------------------------------------------------------------------
// Registry-wide statistical agreement, kWaveform vs kHybrid.
// -------------------------------------------------------------------

TEST(CrossFidelity, HybridTracksWaveformOnEveryScenario) {
  // Verdict differences inside the contested band can nudge the MAC
  // onto a different backoff path, so the comparison is statistical,
  // not bit-exact: a handful of trials must agree within a few frames'
  // worth of ratio. (e13's agreement section pins the two fleet
  // scenarios at 100 tags; this sweep holds every registry entry.)
  constexpr std::size_t kTrials = 4;
  for (const std::string& name : scenario_names()) {
    auto scenario = make_scenario(name, 0, 3);

    auto waveform = scenario.config;
    waveform.fleet.fidelity = FidelityMode::kWaveform;
    const auto wf = run(waveform, kTrials);

    auto hybrid = scenario.config;
    hybrid.fleet.fidelity = FidelityMode::kHybrid;
    const auto hy = run(hybrid, kTrials);

    EXPECT_NEAR(hy.delivery_ratio(), wf.delivery_ratio(), 0.25) << name;
    EXPECT_NEAR(collision_rate(hy), collision_rate(wf), 0.25) << name;
    EXPECT_NEAR(hy.mean_detect_latency_slots(),
                wf.mean_detect_latency_slots(), 3.0)
        << name;
    // Hybrid must actually skip synthesis work somewhere; kWaveform by
    // definition synthesizes every gateway-slot.
    EXPECT_NEAR(wf.synthesized_slot_fraction(), 1.0, 1e-12) << name;
    EXPECT_LT(hy.synthesized_slot_fraction(), 1.0) << name;
  }
}

// -------------------------------------------------------------------
// One-sided safety, frame-for-frame, over randomized deployments.
// -------------------------------------------------------------------

// A small random deployment inside the engine's design envelope: CW
// ambient, static or Rayleigh-faded links, 1-6 tags within a 15 m cell
// of 1-2 gateways, noise spanning link budgets from trivially clean to
// hopeless (log-uniform over ~4.5 decades).
NetworkSimConfig random_config(std::uint64_t index) {
  Rng rng = Rng::substream(0xf1ee7c0de, index);
  NetworkSimConfig config;
  config.payload_bytes = 16;
  config.slots_per_trial = 64;
  config.seed = 1000 + index;
  config.ambient_position = {-rng.uniform(80.0, 400.0),
                             rng.uniform(-30.0, 30.0)};
  config.tx_power_w = rng.uniform(10.0, 1000.0);
  config.receiver_position = {0.0, 0.0};
  if (rng.chance(0.4)) {
    config.extra_gateways.push_back(
        {rng.uniform(4.0, 18.0), rng.uniform(-8.0, 8.0)});
  }
  config.combining = rng.chance(0.5) ? GatewayCombining::kAnyGateway
                                     : GatewayCombining::kBestGateway;
  const std::size_t num_tags = 1 + rng.uniform_int(5);
  for (std::size_t k = 0; k < num_tags; ++k) {
    config.tags.push_back({{rng.uniform(-15.0, 15.0),
                            rng.uniform(-15.0, 15.0)},
                           rng.uniform(0.2, 0.8)});
  }
  config.noise_power_override_w = std::pow(10.0, rng.uniform(-12.0, -7.5));
  if (rng.chance(0.5)) {
    config.fading = "rayleigh";
    config.pathloss.shadowing_sigma_db = rng.uniform(0.0, 3.0);
  }
  config.backoff_min_slots = std::size_t{8} << rng.uniform_int(4);
  if (rng.chance(0.5)) config.notify_slots_per_m = 0.1;
  config.fleet.fidelity = FidelityMode::kWaveform;
  config.fleet.record_frames = true;
  return config;
}

TEST(CrossFidelity, ClearVerdictsMatchSynthesisFrameForFrame) {
  // ~50 random deployments, each replayed in kWaveform mode with the
  // classifier running alongside: a clear verdict that disagrees with
  // the synthesized ground truth is a hard failure — that frame would
  // have been resolved wrongly (and silently) in kHybrid.
  constexpr std::uint64_t kConfigs = 50;
  constexpr std::size_t kTrials = 2;
  std::uint64_t total = 0, contested = 0, clear_deliver = 0, clear_fail = 0;
  for (std::uint64_t i = 0; i < kConfigs; ++i) {
    const auto config = random_config(i);
    const NetworkSimulator sim(config);
    for (std::size_t t = 0; t < kTrials; ++t) {
      const auto trial = sim.run_trial(t);
      for (const FrameRecord& frame : trial.frames) {
        ++total;
        std::ostringstream where;
        where << "config=" << i << " trial=" << t << " tag=" << frame.tag
              << " slot=" << frame.start_slot
              << " margin=" << frame.margin_db << " dB";
        switch (frame.analytic) {
          case LinkVerdict::kClearDeliver:
            ++clear_deliver;
            EXPECT_TRUE(frame.delivered) << where.str();
            break;
          case LinkVerdict::kClearFail:
            ++clear_fail;
            EXPECT_FALSE(frame.delivered) << where.str();
            break;
          case LinkVerdict::kContested:
            ++contested;
            break;
        }
      }
    }
  }
  ASSERT_GT(total, 100u) << "sweep produced too few resolved frames";
  // The band has to leave real work for the fast path: both clear
  // classes must appear, and contested frames must stay a fraction.
  EXPECT_GT(clear_deliver, 0u);
  EXPECT_GT(clear_fail, 0u);
  EXPECT_LT(contested, total);
  const double contested_fraction =
      static_cast<double>(contested) / static_cast<double>(total);
  RecordProperty("frames_total", static_cast<int>(total));
  RecordProperty("contested_fraction_percent",
                 static_cast<int>(100.0 * contested_fraction));
  std::cout << "[cross-fidelity] " << total << " frames: " << clear_deliver
            << " clear-deliver, " << clear_fail << " clear-fail, "
            << contested << " contested ("
            << 100.0 * contested_fraction << "%)\n";
}

TEST(CrossFidelity, ClearVerdictsSurviveFaultInjection) {
  // The fault engine feeds the same slot-domain schedule to synthesis
  // and to the analytic mirror; the split-band classifier brackets the
  // faulted frame with the window-worst and window-best signal scales,
  // and frames whose own tag is faulted are forced into the contested
  // band. Net contract: one-sided safety of clear verdicts holds under
  // fault injection exactly as it does clean.
  constexpr std::uint64_t kConfigs = 30;
  constexpr std::size_t kTrials = 2;
  std::uint64_t total = 0, contested = 0, clear_deliver = 0, clear_fail = 0;
  std::uint64_t faulted_frames = 0;
  for (std::uint64_t i = 0; i < kConfigs; ++i) {
    auto config = random_config(i);
    Rng rng = Rng::substream(0xfa17a2b5, i);
    config.faults.intensity = rng.uniform(0.2, 1.0);
    const NetworkSimulator sim(config);
    for (std::size_t t = 0; t < kTrials; ++t) {
      const auto trial = sim.run_trial(t);
      faulted_frames += trial.faulted_frames_attempted;
      for (const FrameRecord& frame : trial.frames) {
        ++total;
        std::ostringstream where;
        where << "config=" << i << " trial=" << t << " tag=" << frame.tag
              << " slot=" << frame.start_slot
              << " margin=" << frame.margin_db << " dB (faulted run)";
        switch (frame.analytic) {
          case LinkVerdict::kClearDeliver:
            ++clear_deliver;
            EXPECT_TRUE(frame.delivered) << where.str();
            break;
          case LinkVerdict::kClearFail:
            ++clear_fail;
            EXPECT_FALSE(frame.delivered) << where.str();
            break;
          case LinkVerdict::kContested:
            ++contested;
            break;
        }
      }
    }
  }
  ASSERT_GT(total, 60u) << "faulted sweep produced too few resolved frames";
  ASSERT_GT(faulted_frames, 0u) << "sweep never exposed a frame to a fault";
  EXPECT_GT(clear_deliver, 0u);
  EXPECT_GT(clear_fail, 0u);
  EXPECT_LT(contested, total);
  std::cout << "[cross-fidelity/faults] " << total << " frames: "
            << clear_deliver << " clear-deliver, " << clear_fail
            << " clear-fail, " << contested << " contested, "
            << faulted_frames << " fault-exposed\n";
}

// -------------------------------------------------------------------
// Frame recording must be a pure observer.
// -------------------------------------------------------------------

TEST(CrossFidelity, RecordFramesDoesNotChangeTheRun) {
  // The classifier runs alongside synthesis when record_frames is set;
  // it must not consume randomness or alter verdicts. Same config with
  // recording on and off -> identical statistics.
  auto scenario = make_scenario("multi-gateway-dense", 6, 11);
  auto plain = scenario.config;
  plain.fleet.record_frames = false;
  auto recorded = scenario.config;
  recorded.fleet.record_frames = true;

  EXPECT_EQ(run(plain, 3), run(recorded, 3));
}

}  // namespace
}  // namespace fdb::sim
