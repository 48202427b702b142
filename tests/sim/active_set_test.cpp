// Bit-identity goldens for the active-set slot engine. run_trial()
// drives the wake-bucket/event-driven machinery; run_trial_reference()
// keeps the historical per-slot scans alive as the oracle. The two must
// produce EXPECT_EQ-identical summaries — not approximately equal —
// across scenario x MAC x fault x energy-gating configs, at --jobs 1
// and 8, because they share every RNG draw: a single divergent wake
// slot or draw-order swap shows up as a hard counter mismatch here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "sim/network_sim.hpp"
#include "sim/runner.hpp"
#include "sim/scenarios.hpp"

namespace fdb::sim {
namespace {

NetworkSimSummary run_active(const NetworkSimulator& sim, std::size_t trials,
                             std::size_t jobs) {
  const ExperimentRunner runner(jobs);
  return runner.run_chunked<NetworkSimSummary>(
      trials, [&sim](NetworkSimSummary& acc, std::size_t trial) {
        acc.add(sim.run_trial(trial));
      });
}

NetworkSimSummary run_reference(const NetworkSimulator& sim,
                                std::size_t trials) {
  NetworkSimSummary acc;
  for (std::size_t t = 0; t < trials; ++t) {
    acc.add(sim.run_trial_reference(t));
  }
  return acc;
}

/// Runs the reference oracle serially and the active-set engine at
/// jobs 1 and 8, and pins all three summaries EXPECT_EQ-identical.
void expect_engines_agree(const NetworkSimConfig& config,
                          std::size_t trials = 3) {
  const NetworkSimulator sim(config);
  const auto ref = run_reference(sim, trials);
  {
    SCOPED_TRACE("active jobs=1 vs reference");
    EXPECT_EQ(run_active(sim, trials, 1), ref);
  }
  {
    SCOPED_TRACE("active jobs=8 vs reference");
    EXPECT_EQ(run_active(sim, trials, 8), ref);
  }
  // Trial by trial with frame recording on: the frame records (band,
  // margin, escalation) and the per-gateway envelope digests must agree
  // too, not only the summary counters.
  NetworkSimConfig recorded = config;
  recorded.fleet.record_frames = true;
  const NetworkSimulator rec(recorded);
  for (std::size_t t = 0; t < trials; ++t) {
    SCOPED_TRACE("recorded trial " + std::to_string(t));
    EXPECT_EQ(rec.run_trial(t), rec.run_trial_reference(t));
  }
}

// ----- scenario x MAC x fault x energy-gating golden matrix ----------

NetworkSimConfig energy_starved_gated_config() {
  auto scenario = make_scenario("energy-starved", 12, 17);
  scenario.config.slots_per_trial = 128;
  return scenario.config;
}

NetworkSimConfig fading_with_faults_config() {
  auto scenario = make_scenario("fading-sweep", 10, 23);
  scenario.config.slots_per_trial = 128;
  scenario.config.faults.intensity = 0.2;
  return scenario.config;
}

NetworkSimConfig mesh_relay_config() {
  auto scenario = make_scenario("warehouse-mesh", 24, 31);
  scenario.config.slots_per_trial = 160;
  return scenario.config;
}

NetworkSimConfig fleet_config(FidelityMode mode) {
  auto scenario = make_scenario("warehouse-10k", 300, 29);
  scenario.config.slots_per_trial = 48;
  scenario.config.fleet.fidelity = mode;
  return scenario.config;
}

NetworkSimConfig best_gateway_failover_config() {
  auto scenario = make_scenario("gateway-handoff-line", 10, 13);
  scenario.config.slots_per_trial = 160;
  scenario.config.combining = GatewayCombining::kBestGateway;
  scenario.config.failover_streak_frames = 2;
  scenario.config.faults.intensity = 0.3;  // make links actually die
  return scenario.config;
}

TEST(ActiveSetEngine, EnergyStarvedGatedMatchesReference) {
  const auto config = energy_starved_gated_config();
  ASSERT_TRUE(config.energy_gating)
      << "scenario should exercise the gated wake path";
  expect_engines_agree(config);
}

TEST(ActiveSetEngine, FadingSweepWithFaultsMatchesReference) {
  expect_engines_agree(fading_with_faults_config());
}

TEST(ActiveSetEngine, WarehouseMeshRelayScheduledMatchesReference) {
  const auto config = mesh_relay_config();
  ASSERT_TRUE(config.relay.enabled);
  ASSERT_EQ(config.mac_kind, mac::MacKind::kScheduled);
  expect_engines_agree(config);
}

TEST(ActiveSetEngine, DenseNotifyAbortMatchesReference) {
  auto scenario = make_scenario("dense-deployment", 16, 7);
  scenario.config.slots_per_trial = 128;
  scenario.config.mac_kind = mac::MacKind::kCollisionNotify;
  // Distance-dependent notification latency exercises the mid-frame
  // abort -> backoff reschedule transition under the wake buckets.
  scenario.config.notify_slots_per_m = 0.5;
  expect_engines_agree(scenario.config);
}

TEST(ActiveSetEngine, TimeoutMacMatchesReference) {
  auto scenario = make_scenario("near-far", 8, 11);
  scenario.config.slots_per_trial = 128;
  scenario.config.mac_kind = mac::MacKind::kTimeout;
  expect_engines_agree(scenario.config);
}

TEST(ActiveSetEngine, HybridAndAnalyticFleetModesMatchReference) {
  for (const FidelityMode mode :
       {FidelityMode::kAnalytic, FidelityMode::kHybrid}) {
    SCOPED_TRACE(fidelity_name(mode));
    expect_engines_agree(fleet_config(mode), 2);
  }
}

TEST(ActiveSetEngine, BestGatewayFailoverMatchesReference) {
  expect_engines_agree(best_gateway_failover_config());
}

// netbench's mesh-relay-faults shape, scaled down: the only row where
// relaying and fault injection meet.
TEST(ActiveSetEngine, MeshRelayWithFaultsMatchesReference) {
  auto config = make_scenario("warehouse-mesh", 24, 37).config;
  config.slots_per_trial = 160;
  config.faults.intensity = 0.1;
  ASSERT_TRUE(config.relay.enabled);
  const NetworkSimulator sim(config);
  const NetworkSimSummary summary = run_reference(sim, 3);
  EXPECT_GT(summary.relay_tx_frames, 0u) << "row should forward frames";
  EXPECT_GT(summary.faulted_frames_attempted, 0u) << "row should see faults";
  expect_engines_agree(config);
}

// The ofdm_tv carrier is not constant: kWaveform reads a trial-length
// carrier buffer and kHybrid fills it lazily per escalated window.
TEST(ActiveSetEngine, OfdmTvCarrierMatchesReference) {
  auto config = make_scenario("dense-deployment", 10, 19).config;
  config.slots_per_trial = 128;
  config.carrier = "ofdm_tv";
  for (const FidelityMode mode :
       {FidelityMode::kWaveform, FidelityMode::kHybrid}) {
    SCOPED_TRACE(fidelity_name(mode));
    config.fleet.fidelity = mode;
    expect_engines_agree(config, 2);
  }
}

// Idle spans of up to thousands of slots with tags that harvest: the
// only rows whose idle-harvest catch-up (detail::add_repeated) runs
// long chains of nonzero adds. fading-sweep redraws the channel per
// trial, so its increments differ from trial to trial.
void expect_long_idle_harvest_agrees(NetworkSimConfig config) {
  config.slots_per_trial = 4096;
  config.backoff_min_slots = 2048;
  config.backoff_max_exponent = 1;
  // Analytic verdicts: the energy path is the same in every mode, and
  // 4096 synthesized slots would make these the suite's slowest rows.
  config.fleet.fidelity = FidelityMode::kAnalytic;
  ASSERT_FALSE(config.energy_gating);
  const NetworkTrialResult first = NetworkSimulator(config).run_trial(0);
  ASSERT_TRUE(std::any_of(
      first.tags.begin(), first.tags.end(),
      [](const NetworkTagStats& t) { return t.harvested_j > 0.0; }))
      << "row should harvest";
  expect_engines_agree(config);
}

TEST(ActiveSetEngine, LongIdleHarvestMatchesReference) {
  expect_long_idle_harvest_agrees(
      make_scenario("dense-deployment", 16, 53).config);
}

TEST(ActiveSetEngine, LongIdleHarvestFadingMatchesReference) {
  const auto config = make_scenario("fading-sweep", 16, 59).config;
  ASSERT_EQ(config.fading, "rayleigh");
  expect_long_idle_harvest_agrees(config);
}

// ----- summary merge round trip --------------------------------------

void expect_stats_near(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_NEAR(a.mean(), b.mean(), 1e-12 * std::max(1.0, std::abs(b.mean())));
  EXPECT_NEAR(a.variance(), b.variance(),
              1e-12 * std::max(1.0, std::abs(b.variance())));
}

/// `regrouped` folds the same trials as `one_pass` through a different
/// reduction tree. Integer counters must still agree exactly; the
/// doubles (per-tag energy sums, Welford moments) only to rounding, so
/// they are compared approximately and then copied across, and the
/// whole-struct comparison covers every other field.
void expect_equal_up_to_regrouping(const NetworkSimSummary& regrouped,
                                   const NetworkSimSummary& one_pass) {
  EXPECT_EQ(regrouped.trials, one_pass.trials);
  expect_stats_near(regrouped.escalation_rate_trials,
                    one_pass.escalation_rate_trials);
  NetworkCounters lhs = regrouped;
  ASSERT_EQ(lhs.tags.size(), one_pass.tags.size());
  for (std::size_t k = 0; k < lhs.tags.size(); ++k) {
    const NetworkTagStats& want = one_pass.tags[k];
    EXPECT_NEAR(lhs.tags[k].harvested_j, want.harvested_j,
                1e-12 * std::abs(want.harvested_j));
    EXPECT_NEAR(lhs.tags[k].spent_j, want.spent_j,
                1e-12 * std::abs(want.spent_j));
    lhs.tags[k].harvested_j = want.harvested_j;
    lhs.tags[k].spent_j = want.spent_j;
  }
  for (const auto field : {&NetworkCounters::detect_latency_slots,
                           &NetworkCounters::time_to_failover_slots,
                           &NetworkCounters::relay_hops}) {
    expect_stats_near(lhs.*field, one_pass.*field);
    lhs.*field = one_pass.*field;
  }
  EXPECT_EQ(lhs, static_cast<const NetworkCounters&>(one_pass));
}

/// add() and merge() share NetworkCounters::merge, so a counter left out
/// of it shows up here as a trial whose one-trial summary differs from
/// the trial itself. Trials run concurrently on one simulator (the
/// static channel tables are shared read-only state).
TEST(NetworkCountersMerge, RoundTripsOverScenarioMatrix) {
  const std::pair<const char*, NetworkSimConfig> matrix[] = {
      {"energy-starved gated", energy_starved_gated_config()},
      {"fading with faults", fading_with_faults_config()},
      {"warehouse-mesh relay", mesh_relay_config()},
      {"hybrid", fleet_config(FidelityMode::kHybrid)},
      {"analytic", fleet_config(FidelityMode::kAnalytic)},
      {"best-gateway failover", best_gateway_failover_config()},
  };
  constexpr std::size_t kTrials = 4;
  for (const auto& [name, config] : matrix) {
    SCOPED_TRACE(name);
    const NetworkSimulator sim(config);
    const auto trials = ExperimentRunner(4).map(
        kTrials, [&sim](std::size_t t) { return sim.run_trial(t); });

    NetworkSimSummary one_pass;
    NetworkSimSummary head;  // every trial but the last
    for (std::size_t t = 0; t < kTrials; ++t) {
      NetworkSimSummary single;
      single.add(trials[t]);
      EXPECT_EQ(static_cast<const NetworkCounters&>(single),
                static_cast<const NetworkCounters&>(trials[t]))
          << "trial " << t;
      one_pass.add(trials[t]);
      if (t + 1 < kTrials) head.add(trials[t]);
    }
    NetworkSimSummary tail;
    tail.add(trials.back());
    head.merge(tail);

    // Split at the last trial so every double folds in the same order
    // on both sides (halves of several trials would regroup the sums).
    EXPECT_EQ(static_cast<const NetworkCounters&>(head),
              static_cast<const NetworkCounters&>(one_pass));
    EXPECT_EQ(head.trials, one_pass.trials);
    // The escalation-rate samples: one_pass add()s the last one
    // (Welford), head merge()s it (Chan). Count, mean and range agree
    // exactly for a one-sample tail; the second moment only to rounding.
    const RunningStats& merged = head.escalation_rate_trials;
    const RunningStats& added = one_pass.escalation_rate_trials;
    EXPECT_EQ(merged.count(), added.count());
    EXPECT_EQ(merged.mean(), added.mean());
    EXPECT_EQ(merged.min(), added.min());
    EXPECT_EQ(merged.max(), added.max());
    EXPECT_NEAR(merged.variance(), added.variance(), 1e-12);

    // 2+2 regrouping: an empty summary adopts the first half, then
    // merges the second.
    NetworkSimSummary first_half;
    NetworkSimSummary second_half;
    for (std::size_t t = 0; t < kTrials; ++t) {
      (t < kTrials / 2 ? first_half : second_half).add(trials[t]);
    }
    NetworkSimSummary regrouped;
    regrouped.merge(first_half);
    regrouped.merge(second_half);
    expect_equal_up_to_regrouping(regrouped, one_pass);
  }
}

// ----- wake-bucket edge cases ----------------------------------------

/// Tight contention window: backoff_min_slots = 1 with a zero-exponent
/// cap makes every backoff draw land in {0}..{1}, so initial waits of 0
/// fire in slot 0 and whole cohorts wake in the same bucket.
TEST(ActiveSetEngine, ZeroWaitAndSimultaneousWakeStorm) {
  NetworkSimConfig config;
  config.payload_bytes = 32;
  config.slots_per_trial = 96;
  config.ambient_position = {0.0, 0.0};
  config.receiver_position = {5.0, 0.0};
  for (std::size_t k = 0; k < 12; ++k) {
    NetworkTagConfig tag;
    tag.position = {5.0 + 0.4 * static_cast<double>(k % 4),
                    0.5 + 0.3 * static_cast<double>(k)};
    config.tags.push_back(tag);
  }
  config.backoff_min_slots = 1;
  config.backoff_max_exponent = 0;
  config.seed = 41;
  for (const auto kind :
       {mac::MacKind::kTimeout, mac::MacKind::kCollisionNotify}) {
    SCOPED_TRACE(static_cast<int>(kind));
    config.mac_kind = kind;
    expect_engines_agree(config, 4);
  }
}

/// Immediate notifications force aborts right after frame start: the
/// active engine must cancel the stale verdict wake and reschedule the
/// tag's backoff wake without double-firing either event.
TEST(ActiveSetEngine, NotifyAbortRescheduleMatchesReference) {
  NetworkSimConfig config;
  config.payload_bytes = 32;
  config.slots_per_trial = 96;
  config.ambient_position = {0.0, 0.0};
  config.receiver_position = {5.0, 0.0};
  for (std::size_t k = 0; k < 8; ++k) {
    NetworkTagConfig tag;
    tag.position = {5.5, 0.5 + 0.25 * static_cast<double>(k)};
    config.tags.push_back(tag);
  }
  config.mac_kind = mac::MacKind::kCollisionNotify;
  config.notify_delay_slots = 1;  // abort in the first overlap slot
  config.backoff_min_slots = 2;
  config.seed = 43;
  expect_engines_agree(config, 4);
}

/// Trial-boundary parking: waits that cannot complete before the trial
/// ends park the tag (counter pinned past the horizon) instead of
/// scheduling a wake, and the end-of-trial energy fast-forward must
/// still account every idle slot.
TEST(ActiveSetEngine, EndOfTrialParkingMatchesReference) {
  NetworkSimConfig config;
  config.payload_bytes = 64;  // long frames vs a short horizon
  config.slots_per_trial = 24;
  config.ambient_position = {0.0, 0.0};
  config.receiver_position = {5.0, 0.0};
  for (std::size_t k = 0; k < 6; ++k) {
    NetworkTagConfig tag;
    tag.position = {6.0, 0.5 + 0.5 * static_cast<double>(k)};
    config.tags.push_back(tag);
  }
  config.backoff_min_slots = 8;
  config.backoff_max_exponent = 3;
  config.seed = 47;
  expect_engines_agree(config, 4);
}

}  // namespace
}  // namespace fdb::sim
