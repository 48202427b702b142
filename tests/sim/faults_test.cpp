// Fault-injection engine contracts:
//
//  1. Validation — FaultConfig::validate() rejects every out-of-range
//     knob and malformed scripted event with a message naming the
//     offending field.
//  2. Determinism — plan(trial) is pure, fault randomness lives in a
//     salted side substream (enabling faults never perturbs fault-free
//     results), and faulted summaries merge bit-identically at any
//     --jobs.
//  3. Thinning — fault sets nest across intensities: every fault
//     present at low intensity is present at high intensity on the
//     same trial (the mechanism behind monotone degradation).
//  4. Injection — scripted events do what the taxonomy says, in both
//     the waveform and analytic fidelity paths, and the paired MAC
//     responses (dead-gateway failover) actually fire.
#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "sim/network_sim.hpp"
#include "sim/runner.hpp"

namespace fdb::sim {
namespace {

// ---------------------------------------------------------------------
// FaultConfig::validate() matrix
// ---------------------------------------------------------------------

TEST(FaultConfigValidate, DefaultAndFullIntensityAreValid) {
  FaultConfig config;
  EXPECT_NO_THROW(config.validate());
  EXPECT_FALSE(config.enabled());
  config.intensity = 1.0;
  EXPECT_NO_THROW(config.validate());
  EXPECT_TRUE(config.enabled());
}

TEST(FaultConfigValidate, RejectsOutOfRangeKnobs) {
  const auto expect_rejects = [](auto mutate) {
    FaultConfig config;
    mutate(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  expect_rejects([](FaultConfig& c) { c.intensity = -0.1; });
  expect_rejects([](FaultConfig& c) { c.intensity = 1.5; });
  expect_rejects([](FaultConfig& c) { c.intensity = std::nan(""); });
  expect_rejects([](FaultConfig& c) { c.gateway_outages_per_kslot = -1.0; });
  expect_rejects([](FaultConfig& c) { c.gateway_outage_mean_slots = 0.0; });
  expect_rejects([](FaultConfig& c) { c.gateway_outage_atten = 1.5; });
  expect_rejects([](FaultConfig& c) { c.carrier_sag_mean_slots = -2.0; });
  expect_rejects([](FaultConfig& c) { c.carrier_sag_floor = 1.0; });
  expect_rejects([](FaultConfig& c) { c.interferer_env_sigma = -1.0; });
  expect_rejects([](FaultConfig& c) { c.interferer_burst_mean_slots = 0.0; });
  expect_rejects([](FaultConfig& c) { c.tag_fault_fraction = 1.01; });
  expect_rejects([](FaultConfig& c) { c.tag_stuck_share = -0.5; });
  expect_rejects([](FaultConfig& c) { c.tag_drift_max_ppm = 2e5; });
}

TEST(FaultConfigValidate, RejectsMalformedScriptedEvents) {
  const auto expect_rejects = [](FaultEvent ev) {
    FaultConfig config;
    config.events.push_back(ev);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  expect_rejects({FaultClass::kGatewayOutage, -1, 10, 0, 0.0});
  expect_rejects({FaultClass::kGatewayOutage, 0, 0, 0, 0.0});
  expect_rejects({FaultClass::kGatewayOutage, 0, 10, 0, 1.5});
  expect_rejects({FaultClass::kCarrierSag, 0, 10, 0, 1.0});  // scale < 1
  expect_rejects({FaultClass::kBurstInterferer, 0, 10, 0, -3.0});
  expect_rejects({FaultClass::kTagStuck, 0, 10, 0, 0.5});  // not 0/1
  expect_rejects({FaultClass::kTagDrift, 0, 10, 0, 2e5});

  FaultConfig ok;
  ok.events.push_back({FaultClass::kGatewayOutage, 5, 20, 1, 0.25});
  ok.events.push_back({FaultClass::kCarrierSag, 0, 8, 0, 0.4});
  ok.events.push_back({FaultClass::kBurstInterferer, 3, 4, 0, 25.0});
  ok.events.push_back({FaultClass::kTagStuck, 10, 30, 2, 1.0});
  ok.events.push_back({FaultClass::kTagDrift, 0, 50, 3, -300.0});
  EXPECT_NO_THROW(ok.validate());
  EXPECT_TRUE(ok.enabled());
}

TEST(FaultConfigValidate, NetworkConfigValidatesFaultsAndFailover) {
  NetworkSimConfig config;
  config.tags.emplace_back();
  config.faults.intensity = 2.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.faults.intensity = 0.5;
  EXPECT_NO_THROW(config.validate());
  // Failover requires a serving gateway to abandon: kBestGateway only.
  config.failover_streak_frames = 3;
  config.combining = GatewayCombining::kAnyGateway;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.combining = GatewayCombining::kBestGateway;
  EXPECT_NO_THROW(config.validate());
}

// ---------------------------------------------------------------------
// FaultPlan realisation
// ---------------------------------------------------------------------

FaultInjector make_injector(const FaultConfig& config, std::uint64_t seed = 9,
                            std::size_t gateways = 2, std::size_t tags = 4,
                            std::size_t slots = 256) {
  return FaultInjector(config, seed, gateways, tags, slots,
                       /*slot_samples=*/640, /*samples_per_chip=*/20,
                       /*noise_sigma=*/1e-8);
}

TEST(FaultPlan, DisabledInjectorYieldsHealthyPlan) {
  const FaultInjector injector;  // default: disabled
  EXPECT_FALSE(injector.enabled());
  const auto plan = injector.plan(0);
  EXPECT_FALSE(plan.any());
  EXPECT_EQ(plan.gateway_atten(0, 0), 1.0f);
  EXPECT_EQ(plan.carrier_scale(0), 1.0f);
  EXPECT_EQ(plan.interferer_env(0, 0), 0.0f);
  EXPECT_EQ(plan.tag_fault(0), nullptr);
}

TEST(FaultPlan, PlanIsPureInTrial) {
  FaultConfig config;
  config.intensity = 0.7;
  const auto injector = make_injector(config);
  const auto a = injector.plan(11);
  const auto b = injector.plan(11);
  ASSERT_EQ(a.any(), b.any());
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t s = 0; s < a.slots(); ++s) {
      ASSERT_EQ(a.gateway_atten(g, s), b.gateway_atten(g, s));
      ASSERT_EQ(a.interferer_env(g, s), b.interferer_env(g, s));
    }
  }
  for (std::size_t s = 0; s < a.slots(); ++s) {
    ASSERT_EQ(a.carrier_scale(s), b.carrier_scale(s));
  }
}

TEST(FaultPlan, FaultSetsNestAcrossIntensities) {
  // Thinning contract: on the same trial, every slot degraded at
  // intensity 0.15 is at least as degraded at intensity 0.6.
  FaultConfig low;
  low.intensity = 0.15;
  FaultConfig high = low;
  high.intensity = 0.6;
  const auto low_inj = make_injector(low);
  const auto high_inj = make_injector(high);
  std::size_t degraded_slots = 0;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const auto lp = low_inj.plan(trial);
    const auto hp = high_inj.plan(trial);
    for (std::size_t g = 0; g < 2; ++g) {
      for (std::size_t s = 0; s < lp.slots(); ++s) {
        if (lp.gateway_atten(g, s) < 1.0f) {
          ++degraded_slots;
          ASSERT_LE(hp.gateway_atten(g, s), lp.gateway_atten(g, s))
              << "trial " << trial << " gw " << g << " slot " << s;
        }
        if (lp.interferer_env(g, s) > 0.0f) {
          ASSERT_GE(hp.interferer_env(g, s), lp.interferer_env(g, s));
        }
      }
    }
    for (std::size_t s = 0; s < lp.slots(); ++s) {
      if (lp.carrier_scale(s) < 1.0f) {
        ASSERT_LE(hp.carrier_scale(s), lp.carrier_scale(s));
      }
    }
    for (std::uint32_t k = 0; k < 4; ++k) {
      if (lp.tag_fault(k) != nullptr) {
        ASSERT_NE(hp.tag_fault(k), nullptr);
      }
    }
  }
  // The property must not pass vacuously.
  EXPECT_GT(degraded_slots, 0u);
}

TEST(FaultPlan, ScriptedEventsRealiseVerbatim) {
  FaultConfig config;  // intensity 0: only scripted events
  config.events.push_back({FaultClass::kGatewayOutage, 10, 20, 1, 0.0});
  config.events.push_back({FaultClass::kCarrierSag, 40, 8, 0, 0.5});
  config.events.push_back({FaultClass::kBurstInterferer, 60, 5, 0, 30.0});
  config.events.push_back({FaultClass::kTagStuck, 100, 50, 2, 1.0});
  config.events.push_back({FaultClass::kTagDrift, 0, 256, 3, -200.0});
  const auto injector = make_injector(config);
  const auto plan = injector.plan(3);
  ASSERT_TRUE(plan.any());

  // Outage: gateway 1 dead exactly in [10, 30).
  EXPECT_TRUE(plan.gateway_alive(1, 9));
  EXPECT_FALSE(plan.gateway_alive(1, 10));
  EXPECT_FALSE(plan.gateway_alive(1, 29));
  EXPECT_TRUE(plan.gateway_alive(1, 30));
  EXPECT_TRUE(plan.gateway_alive(0, 15));  // other gateway untouched
  EXPECT_TRUE(plan.window_has_outage(1, 0, 256));
  EXPECT_FALSE(plan.window_has_outage(0, 0, 256));

  // Sag: global carrier scale 0.5 in [40, 48).
  EXPECT_EQ(plan.carrier_scale(39), 1.0f);
  EXPECT_EQ(plan.carrier_scale(44), 0.5f);
  EXPECT_EQ(plan.signal_scale(0, 44), 0.5f);
  EXPECT_TRUE(plan.window_has_sag(40, 48));
  EXPECT_FALSE(plan.window_has_sag(48, 256));

  // Window reductions see the worst/best slot in range.
  EXPECT_EQ(plan.min_signal_scale(1, 0, 256), 0.0f);
  EXPECT_EQ(plan.max_signal_scale(1, 0, 256), 1.0f);
  EXPECT_EQ(plan.min_signal_scale(0, 44, 45), 0.5f);

  // Interferer: positive envelope at gateway 0 in [60, 65), and the
  // waveform hook writes real energy into a slot buffer.
  EXPECT_GT(plan.interferer_env(0, 60), 0.0f);
  EXPECT_EQ(plan.interferer_env(0, 65), 0.0f);
  EXPECT_EQ(plan.interferer_env(1, 60), 0.0f);
  std::vector<cf32> acc(640, cf32{0.0f, 0.0f});
  plan.add_interferers(0, 62, acc);
  double energy = 0.0;
  for (const cf32 x : acc) energy += std::norm(x);
  EXPECT_GT(energy, 0.0);
  std::vector<cf32> quiet(640, cf32{0.0f, 0.0f});
  plan.add_interferers(0, 70, quiet);
  for (const cf32 x : quiet) ASSERT_EQ(std::norm(x), 0.0f);

  // Tag faults.
  const TagFault* stuck = plan.tag_fault(2);
  ASSERT_NE(stuck, nullptr);
  EXPECT_TRUE(stuck->stuck);
  EXPECT_EQ(stuck->stuck_state, 1);
  EXPECT_TRUE(plan.stuck_in_window(2, 100, 150));
  EXPECT_FALSE(plan.stuck_in_window(2, 0, 100));
  EXPECT_EQ(plan.drift_shift_samples(2, 120), 0u);  // stuck, not drifting

  const TagFault* drift = plan.tag_fault(3);
  ASSERT_NE(drift, nullptr);
  EXPECT_FALSE(drift->stuck);
  EXPECT_EQ(drift->drift_ppm, -200.0);
  EXPECT_EQ(plan.drift_shift_samples(3, 0), 0u);  // no elapsed time yet
  // 200 ppm over 100 slots * 640 samples = 12.8 samples of skew.
  EXPECT_EQ(plan.drift_shift_samples(3, 100), 13u);
  EXPECT_GT(plan.drift_shift_samples(3, 200), plan.drift_shift_samples(3, 100));
  EXPECT_EQ(plan.tag_fault(0), nullptr);
  EXPECT_EQ(plan.drift_shift_samples(0, 50), 0u);
}

TEST(FaultPlan, OverlappingWindowsNormalize) {
  FaultConfig config;
  // Two overlapping outages on the same gateway: worst residual wins.
  config.events.push_back({FaultClass::kGatewayOutage, 0, 20, 0, 0.6});
  config.events.push_back({FaultClass::kGatewayOutage, 10, 20, 0, 0.2});
  // Two coincident interferer bursts superpose.
  config.events.push_back({FaultClass::kBurstInterferer, 50, 10, 0, 10.0});
  config.events.push_back({FaultClass::kBurstInterferer, 50, 10, 0, 10.0});
  // Two faults on one tag: the earliest onset wins.
  config.events.push_back({FaultClass::kTagDrift, 30, 10, 1, 100.0});
  config.events.push_back({FaultClass::kTagStuck, 5, 10, 1, 1.0});
  const auto injector = make_injector(config);
  const auto plan = injector.plan(0);

  EXPECT_EQ(plan.gateway_atten(0, 5), 0.6f);
  EXPECT_EQ(plan.gateway_atten(0, 15), 0.2f);  // min, not product
  EXPECT_EQ(plan.gateway_atten(0, 25), 0.2f);
  FaultConfig single;
  single.events.push_back({FaultClass::kBurstInterferer, 50, 10, 0, 10.0});
  const auto single_plan = make_injector(single).plan(0);
  EXPECT_EQ(plan.interferer_env(0, 55), 2.0f * single_plan.interferer_env(0, 55));
  EXPECT_EQ(plan.max_interferer_env(0, 50, 60), plan.interferer_env(0, 55));
  const TagFault* f = plan.tag_fault(1);
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->stuck);
  EXPECT_EQ(f->start_slot, 5);

  // Events past the trial end clamp instead of writing out of range.
  FaultConfig tail;
  tail.events.push_back({FaultClass::kGatewayOutage, 250, 100, 0, 0.0});
  const auto tail_plan = make_injector(tail).plan(0);
  EXPECT_FALSE(tail_plan.gateway_alive(0, 255));
  EXPECT_EQ(tail_plan.min_signal_scale(0, 250, 400), 0.0f);  // hi clamps
}

// ---------------------------------------------------------------------
// NetworkSimulator integration
// ---------------------------------------------------------------------

NetworkSimConfig faulted_small_config(std::size_t num_tags = 4) {
  NetworkSimConfig config;
  config.payload_bytes = 32;
  config.slots_per_trial = 96;
  config.ambient_position = {0.0, 0.0};
  config.receiver_position = {5.0, 0.0};
  for (std::size_t k = 0; k < num_tags; ++k) {
    NetworkTagConfig tag;
    tag.position = {5.0 + 1.0 * static_cast<double>(k % 3),
                    1.0 + 0.5 * static_cast<double>(k)};
    config.tags.push_back(tag);
  }
  config.seed = 5;
  return config;
}

TEST(NetworkSimFaults, ZeroIntensityIsBitIdenticalToFaultFree) {
  // The fault substream is salted away from the trial stream, and every
  // fault code path is gated: a config with intensity 0 must reproduce
  // the fault-free engine bit for bit.
  const NetworkSimulator clean(faulted_small_config());
  auto cfg = faulted_small_config();
  cfg.faults.intensity = 0.0;  // explicit no-op
  const NetworkSimulator zero(cfg);
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    EXPECT_EQ(clean.run_trial(trial), zero.run_trial(trial));
  }
}

TEST(NetworkSimFaults, FullGatewayOutageKillsDeliveryAndIsClassified) {
  auto cfg = faulted_small_config();
  cfg.faults.events.push_back(
      {FaultClass::kGatewayOutage, 0,
       static_cast<std::int64_t>(cfg.slots_per_trial), 0, 0.0});
  const NetworkSimulator sim(cfg);
  const auto res = sim.run_trial(1);
  std::uint64_t attempted = 0, delivered = 0;
  for (const auto& t : res.tags) {
    attempted += t.frames_attempted;
    delivered += t.frames_delivered;
  }
  ASSERT_GT(attempted, 0u);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(res.faulted_frames_attempted, attempted);
  EXPECT_EQ(res.faulted_frames_delivered, 0u);
  EXPECT_EQ(res.frames_lost_outage, attempted);
}

TEST(NetworkSimFaults, StuckTagDeliversNothingAndOthersSurvive) {
  auto cfg = faulted_small_config();
  cfg.faults.events.push_back(
      {FaultClass::kTagStuck, 0,
       static_cast<std::int64_t>(cfg.slots_per_trial), 0, 1.0});
  const NetworkSimulator sim(cfg);
  std::uint64_t stuck_delivered = 0, healthy_delivered = 0;
  std::uint64_t lost_tag_fault = 0;
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    const auto res = sim.run_trial(trial);
    stuck_delivered += res.tags[0].frames_delivered;
    for (std::size_t k = 1; k < res.tags.size(); ++k) {
      healthy_delivered += res.tags[k].frames_delivered;
    }
    lost_tag_fault += res.frames_lost_tag_fault;
  }
  EXPECT_EQ(stuck_delivered, 0u);
  EXPECT_GT(healthy_delivered, 0u);
  EXPECT_GT(lost_tag_fault, 0u);
}

TEST(NetworkSimFaults, AnalyticAndHybridSeeTheSameOutage) {
  // The analytic mirror consumes the same slot-domain schedule: a dead
  // gateway kills delivery in every fidelity mode.
  for (const auto fidelity : {FidelityMode::kAnalytic, FidelityMode::kHybrid,
                              FidelityMode::kWaveform}) {
    auto cfg = faulted_small_config();
    cfg.fleet.fidelity = fidelity;
    cfg.faults.events.push_back(
        {FaultClass::kGatewayOutage, 0,
         static_cast<std::int64_t>(cfg.slots_per_trial), 0, 0.0});
    const NetworkSimulator sim(cfg);
    const auto res = sim.run_trial(0);
    std::uint64_t delivered = 0;
    for (const auto& t : res.tags) delivered += t.frames_delivered;
    EXPECT_EQ(delivered, 0u) << fidelity_name(fidelity);
  }
}

TEST(NetworkSimFaults, DeadGatewayFailoverFiresAndRecovers) {
  auto cfg = faulted_small_config();
  cfg.extra_gateways.push_back({9.0, 0.0});  // farther than the primary
  cfg.combining = GatewayCombining::kBestGateway;
  // Timeout MAC: collided frames run to completion, so failed frames
  // actually reach the failover streak (the notify MAC aborts them
  // early, and aborts deliberately do not feed the streak).
  cfg.mac_kind = mac::MacKind::kTimeout;
  cfg.failover_streak_frames = 2;
  cfg.failover_holdoff_slots = 16;
  // Primary gateway dead for the whole trial: every tag starts on it
  // (it is closer), streaks out, and fails over to gateway 1.
  cfg.faults.events.push_back(
      {FaultClass::kGatewayOutage, 0,
       static_cast<std::int64_t>(cfg.slots_per_trial), 0, 0.0});
  const NetworkSimulator sim(cfg);
  NetworkSimSummary summary;
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    summary.add(sim.run_trial(trial));
  }
  EXPECT_GT(summary.failovers, 0u);
  EXPECT_EQ(summary.time_to_failover_slots.count(), summary.failovers);
  EXPECT_GT(summary.mean_time_to_failover_slots(), 0.0);
  // Deliveries resume on the surviving gateway after the switch.
  ASSERT_EQ(summary.gateway_decodes.size(), 2u);
  EXPECT_GT(summary.gateway_decodes[1], 0u);
  EXPECT_EQ(summary.gateway_decodes[0], 0u);  // dead all trial
}

TEST(NetworkSimFaults, FaultedSummariesMergeBitIdenticallyAcrossJobs) {
  auto cfg = faulted_small_config(6);
  cfg.extra_gateways.push_back({9.0, 0.0});
  cfg.combining = GatewayCombining::kBestGateway;
  cfg.failover_streak_frames = 2;
  cfg.faults.intensity = 0.5;
  cfg.fleet.fidelity = FidelityMode::kHybrid;
  const NetworkSimulator sim(cfg);
  NetworkSimSummary merged[2];
  const std::size_t jobs[] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    const ExperimentRunner runner(jobs[i]);
    merged[i] = runner.run_chunked<NetworkSimSummary>(
        12, [&sim](NetworkSimSummary& acc, std::size_t trial) {
          acc.add(sim.run_trial(trial));
        });
  }
  EXPECT_EQ(merged[0], merged[1]);
  // The run was not degenerate: faults actually fired.
  EXPECT_GT(merged[0].faulted_frames_attempted, 0u);
}

TEST(NetworkSimFaults, IntensityDegradesDeliveryMonotonically) {
  // Thinning + common random numbers: total delivery is non-increasing
  // across nested intensities on the same seeds.
  std::uint64_t delivered_at[3] = {0, 0, 0};
  const double intensities[3] = {0.0, 0.25, 0.9};
  for (int i = 0; i < 3; ++i) {
    auto cfg = faulted_small_config();
    cfg.faults.intensity = intensities[i];
    const NetworkSimulator sim(cfg);
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
      const auto res = sim.run_trial(trial);
      for (const auto& t : res.tags) delivered_at[i] += t.frames_delivered;
    }
  }
  EXPECT_GE(delivered_at[0], delivered_at[1]);
  EXPECT_GE(delivered_at[1], delivered_at[2]);
  EXPECT_GT(delivered_at[0], 0u);
}

}  // namespace
}  // namespace fdb::sim
