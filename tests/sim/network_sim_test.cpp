#include "sim/network_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/runner.hpp"
#include "sim/scenarios.hpp"

namespace fdb::sim {
namespace {

/// Small, fast config: 4 tags around the receiver, short trials.
NetworkSimConfig small_config(std::size_t num_tags = 4) {
  NetworkSimConfig config;
  config.payload_bytes = 32;  // 4 blocks -> 5-slot frames
  config.slots_per_trial = 96;
  config.ambient_position = {0.0, 0.0};
  config.receiver_position = {5.0, 0.0};
  config.tags.clear();
  for (std::size_t k = 0; k < num_tags; ++k) {
    NetworkTagConfig tag;
    tag.position = {5.0 + 1.0 * static_cast<double>(k % 3),
                    1.0 + 0.5 * static_cast<double>(k)};
    config.tags.push_back(tag);
  }
  config.seed = 5;
  return config;
}

NetworkSimSummary run_with_runner(const NetworkSimulator& sim,
                                  std::size_t trials, std::size_t jobs) {
  const ExperimentRunner runner(jobs);
  return runner.run_chunked<NetworkSimSummary>(
      trials, [&sim](NetworkSimSummary& acc, std::size_t trial) {
        acc.add(sim.run_trial(trial));
      });
}

TEST(NetworkSim, TrialIsPureAndDeterministic) {
  const NetworkSimulator sim(small_config());
  EXPECT_EQ(sim.run_trial(3), sim.run_trial(3));
}

TEST(NetworkSim, BitIdenticalAcrossJobCounts) {
  const NetworkSimulator sim(small_config());
  const auto j1 = run_with_runner(sim, 5, 1);
  const auto j8 = run_with_runner(sim, 5, 8);
  EXPECT_EQ(j1, j8);
}

TEST(NetworkSim, SingleTagNeverCollides) {
  auto config = small_config(1);
  for (const auto kind :
       {mac::MacKind::kTimeout, mac::MacKind::kCollisionNotify}) {
    config.mac_kind = kind;
    const NetworkSimulator sim(config);
    const auto summary = sim.run(3);
    EXPECT_EQ(summary.collisions, 0u);
    EXPECT_EQ(summary.tags[0].frames_collided, 0u);
    EXPECT_GT(summary.frames_delivered(), 0u);
    // A lone tag in a clean static channel also decodes everything.
    EXPECT_EQ(summary.sync_failures, 0u);
  }
}

TEST(NetworkSim, StatsInternallyConsistent) {
  auto config = small_config(6);
  for (const auto kind :
       {mac::MacKind::kTimeout, mac::MacKind::kCollisionNotify}) {
    config.mac_kind = kind;
    const NetworkSimulator sim(config);
    const auto summary = sim.run(3);
    EXPECT_EQ(summary.trials, 3u);
    EXPECT_EQ(summary.slots, 3u * config.slots_per_trial);
    EXPECT_LE(summary.busy_slots, summary.slots);
    EXPECT_LE(summary.wasted_slots, summary.slots);
    EXPECT_LE(summary.wasted_airtime_fraction(), 1.0);
    for (const auto& tag : summary.tags) {
      // Every attempt resolves as at most one of delivered / collided
      // (aborts count as collided when overlapped).
      EXPECT_LE(tag.frames_delivered + tag.frames_collided,
                tag.frames_attempted);
      EXPECT_LE(tag.frames_delivered, tag.frames_attempted);
      EXPECT_EQ(tag.payload_bits_delivered,
                tag.frames_delivered * config.payload_bytes * 8);
      EXPECT_GT(tag.harvested_j, 0.0);
      EXPECT_EQ(tag.energy_outages, 0u);  // gating disabled here
    }
    if (summary.detect_latency_slots.count() > 0) {
      EXPECT_GE(summary.detect_latency_slots.min(), 1.0);
    }
  }
}

TEST(NetworkSim, NotifyBeatsTimeoutOnWasteInDenseScenario) {
  auto timeout_scenario = make_scenario("dense-deployment", 8, 3);
  timeout_scenario.config.slots_per_trial = 128;
  timeout_scenario.config.mac_kind = mac::MacKind::kTimeout;
  auto notify_scenario = timeout_scenario;
  notify_scenario.config.mac_kind = mac::MacKind::kCollisionNotify;

  const auto timeout = NetworkSimulator(timeout_scenario.config).run(2);
  const auto notify = NetworkSimulator(notify_scenario.config).run(2);
  EXPECT_LT(notify.wasted_airtime_fraction(),
            timeout.wasted_airtime_fraction());
  EXPECT_LT(notify.mean_detect_latency_slots(),
            timeout.mean_detect_latency_slots());
}

TEST(NetworkSim, EnergyGatingProducesOutagesWhenStarved) {
  auto scenario = make_scenario("energy-starved", 4, 9);
  scenario.config.slots_per_trial = 96;
  const NetworkSimulator gated(scenario.config);
  const auto starved = gated.run(2);
  EXPECT_GT(starved.energy_outages(), 0u);
  EXPECT_GT(starved.energy_outage_fraction(), 0.0);

  auto ungated_config = scenario.config;
  ungated_config.energy_gating = false;
  const NetworkSimulator ungated(ungated_config);
  EXPECT_EQ(ungated.run(2).energy_outages(), 0u);
}

TEST(NetworkSim, SummaryMergeMatchesSequentialAdd) {
  const NetworkSimulator sim(small_config());
  NetworkSimSummary whole;
  NetworkSimSummary first;
  NetworkSimSummary second;
  for (std::size_t t = 0; t < 4; ++t) {
    whole.add(sim.run_trial(t));
    (t < 2 ? first : second).add(sim.run_trial(t));
  }
  NetworkSimSummary merged;  // empty-adopts, then folds in order
  merged.merge(first);
  merged.merge(second);
  // Integer counters merge exactly; the Welford moments merge stably
  // (same values, different reduction tree -> compare approximately).
  EXPECT_EQ(whole.trials, merged.trials);
  EXPECT_EQ(whole.busy_slots, merged.busy_slots);
  EXPECT_EQ(whole.useful_slots, merged.useful_slots);
  EXPECT_EQ(whole.wasted_slots, merged.wasted_slots);
  EXPECT_EQ(whole.collisions, merged.collisions);
  EXPECT_EQ(whole.sync_failures, merged.sync_failures);
  EXPECT_EQ(whole.frames_attempted(), merged.frames_attempted());
  EXPECT_EQ(whole.bits_delivered(), merged.bits_delivered());
  EXPECT_EQ(whole.detect_latency_slots.count(),
            merged.detect_latency_slots.count());
  EXPECT_NEAR(whole.mean_detect_latency_slots(),
              merged.mean_detect_latency_slots(), 1e-12);
}

// ---------------------------------------------------------------------
// Config validation (used to fail silently)
// ---------------------------------------------------------------------

TEST(NetworkSimConfigValidation, RejectsEmptyTagSet) {
  auto config = small_config();
  config.tags.clear();
  EXPECT_THROW((void)NetworkSimulator(config), std::invalid_argument);
}

TEST(NetworkSimConfigValidation, RejectsNonPositiveTxPower) {
  auto config = small_config();
  config.tx_power_w = 0.0;
  EXPECT_THROW((void)NetworkSimulator(config), std::invalid_argument);
  config.tx_power_w = -1.0;
  EXPECT_THROW((void)NetworkSimulator(config), std::invalid_argument);
}

TEST(NetworkSimConfigValidation, RejectsReflectionRhoOutsideUnitInterval) {
  // Was only an assert in ReflectionStates::ook, compiled out in
  // Release: rho -0.5 gave a NaN gain, 1.5 reflected more than 100% of
  // the incident power.
  auto config = small_config();
  for (const double rho : {-0.5, 0.0, 1.5}) {
    config.tags[1].reflection_rho = rho;
    EXPECT_THROW((void)NetworkSimulator(config), std::invalid_argument)
        << "rho " << rho;
  }
  config.tags[1].reflection_rho = 1.0;  // full reflection stays valid
  EXPECT_NO_THROW((void)NetworkSimulator(config));
}

TEST(NetworkSimConfigValidation, RejectsZeroSlotsPerTrial) {
  // Was a debug-only assert in the simulator; now a first-class
  // rejection so Release builds fail loudly too.
  auto config = small_config();
  config.slots_per_trial = 0;
  EXPECT_THROW((void)NetworkSimulator(config), std::invalid_argument);
}

TEST(NetworkSimConfigValidation, RejectsSlotsPerTrialPastUint32) {
  // The active engine keeps slot indices in 32-bit fields: a 2^32-slot
  // trial used to wrap them silently (or die allocating 16 GB of wake
  // heads). validate() runs before any allocation.
  auto config = small_config();
  config.slots_per_trial = std::size_t{1} << 32;
  try {
    (void)NetworkSimulator(config);
    FAIL() << "2^32 slots per trial should be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("4294967295"), std::string::npos)
        << e.what();
  }
  config.slots_per_trial = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.slots_per_trial = (std::size_t{1} << 32) - 1;  // the limit itself
  EXPECT_NO_THROW(config.validate());
}

TEST(NetworkSimConfigValidation, RejectsZeroPayloadBytes) {
  // A 0-byte frame "delivered" whenever its preamble synced and carried
  // 0 bits.
  auto config = small_config();
  config.payload_bytes = 0;
  try {
    (void)NetworkSimulator(config);
    FAIL() << "payload_bytes 0 should be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("payload_bytes"), std::string::npos)
        << e.what();
  }
  config.payload_bytes = 1;
  EXPECT_NO_THROW(config.validate());
}

TEST(NetworkSimConfigValidation, RejectsNegativeNotifySlope) {
  auto config = small_config();
  config.notify_slots_per_m = -0.25;  // would underflow the latency
  EXPECT_THROW((void)NetworkSimulator(config), std::invalid_argument);
  config.notify_slots_per_m = 0.0;  // the legacy flat latency stays valid
  EXPECT_NO_THROW((void)NetworkSimulator(config));
}

TEST(NetworkSimConfigValidation, RejectsUnknownCarrierAndFading) {
  auto config = small_config();
  config.carrier = "wifi";  // the factory would silently pick ofdm_tv
  EXPECT_THROW((void)NetworkSimulator(config), std::invalid_argument);
  config.carrier = "cw";
  config.fading = "nakagami";  // the factory would silently pick static
  EXPECT_THROW((void)NetworkSimulator(config), std::invalid_argument);
  config.fading = "rician";  // all named arms stay accepted
  EXPECT_NO_THROW((void)NetworkSimulator(config));
}

TEST(NetworkSimConfigValidation, RejectsBadEnvelopeCutoffMult) {
  // OnePole::from_cutoff only asserted this: in Release, 0 gave a dead
  // envelope (alpha 0, every frame lost), -1 a negative alpha, and NaN
  // passed through std::min into alpha.
  auto config = small_config();
  for (const double mult : {0.0, -1.0, std::nan("")}) {
    config.envelope_cutoff_mult = mult;
    EXPECT_THROW((void)NetworkSimulator(config), std::invalid_argument)
        << "mult " << mult;
  }
  config.envelope_cutoff_mult = 4.0;  // the default stays valid
  EXPECT_NO_THROW((void)NetworkSimulator(config));
}

TEST(NetworkSimConfigValidation, RejectsRelayWithUndefinedTargetBer) {
  // Every relay hop is judged by its margin over the target BER's
  // required SINR, in every fidelity mode. Pure kWaveform runs no
  // classifier, so FleetConfig accepts any target there; with relaying
  // on, 0.6 used to make each hop read qfunc_inv(0.6)^2 = 0.064 as its
  // required SINR (about 22 dB too high) in Release.
  auto config = make_scenario("warehouse-mesh", 24, 7).config;
  config.fleet.fidelity = FidelityMode::kWaveform;
  for (const double ber : {0.6, 0.5, 0.0, std::nan("")}) {
    config.fleet.analytic_target_ber = ber;
    try {
      config.validate();
      ADD_FAILURE() << "target BER " << ber << " accepted with relaying";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("fleet.analytic_target_ber"),
                std::string::npos)
          << e.what();
    }
  }
  config.fleet.analytic_target_ber = 1e-3;
  EXPECT_NO_THROW(config.validate());
  // Without relaying, pure kWaveform still never evaluates the target.
  config.relay.enabled = false;
  config.fleet.analytic_target_ber = 0.6;
  EXPECT_NO_THROW(config.validate());
}

// ---------------------------------------------------------------------
// Scheduled slotframe MAC (mac/schedule.hpp) under the network engine
// ---------------------------------------------------------------------

TEST(NetworkSimScheduled, DedicatedCellsNeverCollide) {
  // One dedicated cell per tag: fresh frames are contention-free by
  // construction, so a clean static channel delivers everything.
  auto config = small_config(6);
  config.mac_kind = mac::MacKind::kScheduled;
  const NetworkSimulator sim(config);
  const auto s = sim.run(3);
  EXPECT_EQ(s.collisions, 0u);
  EXPECT_GT(s.frames_delivered(), 0u);
  for (const auto& tag : s.tags) {
    EXPECT_EQ(tag.frames_collided, 0u);
    EXPECT_GT(tag.frames_attempted, 0u);
  }
}

TEST(NetworkSimScheduled, BitIdenticalAcrossJobCounts) {
  auto config = small_config(6);
  config.mac_kind = mac::MacKind::kScheduled;
  const NetworkSimulator sim(config);
  const auto j1 = run_with_runner(sim, 5, 1);
  const auto j8 = run_with_runner(sim, 5, 8);
  EXPECT_EQ(j1, j8);
}

TEST(NetworkSimScheduled, BeatsContentionOnWasteInDenseScenario) {
  // The schedule-vs-contention headline (gated again in e15): dense
  // deployments waste airtime on collisions and timers under contention;
  // the slotframe serializes them away.
  auto scheduled_scenario = make_scenario("dense-deployment", 8, 3);
  scheduled_scenario.config.slots_per_trial = 128;
  scheduled_scenario.config.mac_kind = mac::MacKind::kScheduled;
  auto notify_scenario = scheduled_scenario;
  notify_scenario.config.mac_kind = mac::MacKind::kCollisionNotify;

  const auto scheduled = NetworkSimulator(scheduled_scenario.config).run(2);
  const auto notify = NetworkSimulator(notify_scenario.config).run(2);
  EXPECT_LT(scheduled.wasted_airtime_fraction(),
            notify.wasted_airtime_fraction());
  EXPECT_EQ(scheduled.collisions, 0u);
  EXPECT_GT(scheduled.frames_delivered(), 0u);
}

TEST(NetworkSimScheduled, UndersizedDedicatedSetContendsInSharedCells) {
  // Fewer dedicated cells than tags: owners share cells, overlaps are
  // real, and the policy's notify-abort path must engage (kScheduled
  // honours collision notifications like the notify MAC).
  auto config = small_config(6);
  config.mac_kind = mac::MacKind::kScheduled;
  config.sched_dedicated_cells = 2;  // 6 tags -> 3 owners per cell
  config.sched_shared_cells = 1;
  const NetworkSimulator sim(config);
  const auto s = sim.run(3);
  EXPECT_GT(s.collisions, 0u);
}

// ---------------------------------------------------------------------
// Multi-gateway receive diversity
// ---------------------------------------------------------------------

TEST(NetworkSimGateways, SingleGatewayPolicyChoiceIsIrrelevant) {
  // With one gateway, "best" and "any" must be the same machine.
  auto config = small_config();
  config.combining = GatewayCombining::kAnyGateway;
  const auto any = NetworkSimulator(config).run(3);
  config.combining = GatewayCombining::kBestGateway;
  const auto best = NetworkSimulator(config).run(3);
  EXPECT_EQ(any, best);
  ASSERT_EQ(any.gateway_decodes.size(), 1u);
}

TEST(NetworkSimGateways, TwoGatewaysBitIdenticalAcrossJobCounts) {
  auto scenario = make_scenario("multi-gateway-dense", 4, 7);
  scenario.config.slots_per_trial = 96;
  const NetworkSimulator sim(scenario.config);
  const auto j1 = run_with_runner(sim, 5, 1);
  const auto j8 = run_with_runner(sim, 5, 8);
  EXPECT_EQ(j1, j8);
  ASSERT_EQ(j1.gateway_decodes.size(), 2u);
}

TEST(NetworkSimGateways, AnyCombiningDeliversAtLeastSingleReceiver) {
  // The e12 headline, as a regression gate: in the diversity scenario
  // a second gateway with any-combining must not deliver less than the
  // single-receiver baseline.
  auto scenario = make_scenario("multi-gateway-dense", 8, 17);
  auto single = scenario.config;
  single.extra_gateways.clear();
  const auto one = NetworkSimulator(single).run(2);
  const auto two = NetworkSimulator(scenario.config).run(2);
  EXPECT_GE(two.delivery_ratio(), one.delivery_ratio());
  // And the diversity is real: both gateways decode frames.
  ASSERT_EQ(two.gateway_decodes.size(), 2u);
  EXPECT_GT(two.gateway_decodes[0], 0u);
  EXPECT_GT(two.gateway_decodes[1], 0u);
}

TEST(NetworkSimGateways, DeliveredNeverExceedsPerGatewayDecodeTotal) {
  // Any-combining delivers only frames at least one gateway decoded.
  auto scenario = make_scenario("multi-gateway-dense", 4, 5);
  scenario.config.slots_per_trial = 96;
  const auto s = NetworkSimulator(scenario.config).run(3);
  std::uint64_t decode_total = 0;
  for (const auto d : s.gateway_decodes) decode_total += d;
  EXPECT_LE(s.frames_delivered(), decode_total);
}

TEST(NetworkSimGateways, NotifyLatencyReflectsClosestGateway) {
  // In the corridor, edge tags sit next to a gateway and hear the
  // notification at the base delay; mid-corridor tags pay the distance
  // term of whichever gateway is nearer.
  auto scenario = make_scenario("gateway-handoff-line", 8, 1);
  const NetworkSimulator sim(scenario.config);
  const std::size_t base = scenario.config.notify_delay_slots;
  EXPECT_EQ(sim.notify_latency_slots(0), base);
  EXPECT_EQ(sim.notify_latency_slots(7), base);
  EXPECT_GT(sim.notify_latency_slots(3), base);
  EXPECT_GT(sim.notify_latency_slots(4), base);
  // Symmetric corridor: latency profile mirrors around the middle.
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(sim.notify_latency_slots(k), sim.notify_latency_slots(7 - k));
  }

  // The legacy distance-independent latency survives slope 0.
  auto legacy = scenario.config;
  legacy.notify_slots_per_m = 0.0;
  const NetworkSimulator flat(legacy);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(flat.notify_latency_slots(k), base);
  }
}

TEST(NetworkSimGateways, SceneContainsAllGatewayDevices) {
  auto scenario = make_scenario("multi-gateway-dense", 6, 2);
  const NetworkSimulator sim(scenario.config);
  EXPECT_EQ(sim.num_gateways(), 2u);
  EXPECT_EQ(sim.scene().num_devices(), 2u + 6u + 1u);
  EXPECT_EQ(sim.gateway_device(0), sim.receiver_device());
  EXPECT_EQ(sim.scene().device(sim.gateway_device(1)).kind,
            channel::DeviceKind::kReceiver);
  // Extra gateways append after the tags so single-gateway configs keep
  // every historical device index (and so every shadowing draw).
  EXPECT_GT(sim.gateway_device(1), sim.tag_device(5));
  // The scene can enumerate the receive diversity directly.
  const auto receivers =
      sim.scene().find_all(channel::DeviceKind::kReceiver);
  ASSERT_EQ(receivers.size(), 2u);
  EXPECT_EQ(receivers[0], sim.gateway_device(0));
  EXPECT_EQ(receivers[1], sim.gateway_device(1));
}

TEST(NetworkSim, SlotGeometryConsistent) {
  const NetworkSimulator sim(small_config());
  EXPECT_GT(sim.slot_samples(), 0u);
  EXPECT_GT(sim.frame_slots(), 0u);
  EXPECT_GT(sim.slot_seconds(), 0.0);
  EXPECT_GT(sim.frame_cost_j(), 0.0);
  // Scene was populated: ambient + receiver + tags.
  EXPECT_EQ(sim.scene().num_devices(), 2u + sim.num_tags());
  EXPECT_EQ(sim.scene().find_first(channel::DeviceKind::kAmbientTx),
            sim.ambient_device());
  EXPECT_EQ(sim.scene().find_first(channel::DeviceKind::kReceiver),
            sim.receiver_device());
}

}  // namespace
}  // namespace fdb::sim
