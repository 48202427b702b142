// The waveform-synthesis engine's two contracts:
//
//  1. Equivalence — refactoring both simulators onto the shared
//     WaveformSynthesizer changed no results. The golden constants
//     below were captured from the pre-refactor simulators (hexfloat,
//     so the comparison is bit-exact, not approximate) and every trial
//     and runner-merged summary must still reproduce them, at --jobs 1
//     and --jobs 8 alike.
//
//  2. Zero steady-state allocation — the SynthArena only grows during
//     warm-up; once warm, its capacity is stable across trials, so the
//     synthesis hot path never touches the heap.
#include "sim/synthesis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "sim/link_sim.hpp"
#include "sim/network_sim.hpp"
#include "sim/runner.hpp"
#include "sim/scenarios.hpp"

// The hexfloat golden pins below were captured on the portable build.
// Under -march=native the compiler contracts the simulators' double
// accumulation chains into FMAs, legitimately shifting a few of them by
// an ULP; the portable build stays the bit-exactness oracle, and the
// native build skips only those pins (everything behavioral still runs).
#if defined(FDB_NATIVE_BUILD)
#define FDB_SKIP_GOLDEN_ON_NATIVE()                                    \
  GTEST_SKIP() << "hexfloat golden pin is portable-build only "        \
                  "(-march=native FMA contraction shifts the "         \
                  "accumulator by an ULP)"
#else
#define FDB_SKIP_GOLDEN_ON_NATIVE() (void)0
#endif

namespace fdb::sim {
namespace {

// ---------------------------------------------------------------------
// SynthArena unit behaviour
// ---------------------------------------------------------------------

TEST(SynthArena, SpansAreCacheLineAligned) {
  SynthArena arena;
  const auto a = arena.alloc<float>(3);     // odd size on purpose
  const auto b = arena.alloc<cf32>(5);
  const auto c = arena.alloc<std::uint8_t>(1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % 64, 0u);
}

TEST(SynthArena, AllocZeroedIsZeroEvenOnReusedMemory) {
  SynthArena arena;
  auto dirty = arena.alloc<float>(1024);
  for (auto& x : dirty) x = 1.0f;
  arena.reset();
  const auto clean = arena.alloc_zeroed<float>(1024);
  for (const float x : clean) ASSERT_EQ(x, 0.0f);
}

TEST(SynthArena, SpansSurviveOverflowWithinOneCycle) {
  SynthArena arena;
  // Force several growth chunks in one cycle; earlier spans must stay
  // addressable (the arena never reallocates mid-cycle).
  auto first = arena.alloc<std::uint64_t>(1000);
  first[0] = 42;
  first[999] = 43;
  for (int i = 0; i < 8; ++i) {
    auto more = arena.alloc<std::uint64_t>(100'000);
    more[0] = static_cast<std::uint64_t>(i);
  }
  EXPECT_EQ(first[0], 42u);
  EXPECT_EQ(first[999], 43u);
}

TEST(SynthArena, ResetCoalescesAndThenStaysPut) {
  SynthArena arena;
  for (int i = 0; i < 6; ++i) (void)arena.alloc<float>(50'000);
  arena.reset();  // coalesce
  const std::size_t warm = arena.capacity_bytes();
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 6; ++i) (void)arena.alloc<float>(50'000);
    arena.reset();
    EXPECT_EQ(arena.capacity_bytes(), warm) << "cycle " << cycle;
  }
  EXPECT_EQ(arena.used_bytes(), 0u);
}

// ---------------------------------------------------------------------
// Golden equivalence: LinkSimulator (pre-refactor captures, bit-exact)
// ---------------------------------------------------------------------

struct LinkTrialGold {
  bool sync_ok;
  bool sync_correct;
  std::size_t sync_sample;
  double sync_corr;
  std::size_t data_bits;
  std::size_t data_bit_errors;
  std::size_t feedback_bits;
  std::size_t feedback_bit_errors;
  double harvested_j;
  double incident_power_w;
  std::size_t num_blocks;
};

void expect_trial_matches(const LinkSimulator& sim, std::uint64_t trial,
                          const LinkTrialGold& gold) {
  const TrialResult r = sim.run_trial(trial);
  EXPECT_EQ(r.sync_ok, gold.sync_ok) << "trial " << trial;
  EXPECT_EQ(r.sync_correct, gold.sync_correct) << "trial " << trial;
  EXPECT_EQ(r.sync_sample, gold.sync_sample) << "trial " << trial;
  EXPECT_EQ(static_cast<double>(r.sync_corr), gold.sync_corr)
      << "trial " << trial;
  EXPECT_EQ(r.data_bits, gold.data_bits) << "trial " << trial;
  EXPECT_EQ(r.data_bit_errors, gold.data_bit_errors) << "trial " << trial;
  EXPECT_EQ(r.feedback_bits, gold.feedback_bits) << "trial " << trial;
  EXPECT_EQ(r.feedback_bit_errors, gold.feedback_bit_errors)
      << "trial " << trial;
  EXPECT_EQ(r.harvested_j, gold.harvested_j) << "trial " << trial;
  EXPECT_EQ(r.incident_power_w, gold.incident_power_w) << "trial " << trial;
  EXPECT_EQ(r.block_ok.size(), gold.num_blocks) << "trial " << trial;
}

struct LinkSummaryGold {
  std::uint64_t data_errors, data_bits;
  std::uint64_t aligned_errors, aligned_bits;
  std::uint64_t feedback_errors, feedback_bits;
  std::uint64_t sync_failures, false_syncs;
  double harvest_mean, harvest_variance;
};

void expect_summary_matches(const LinkSimConfig& config,
                            std::size_t payload_bytes, std::size_t trials,
                            const LinkSummaryGold& gold) {
  for (const std::size_t jobs : {1, 8}) {
    const ExperimentRunner runner(jobs);
    const LinkSimSummary s = runner.run(config, trials, payload_bytes);
    EXPECT_EQ(s.trials, trials) << "jobs " << jobs;
    EXPECT_EQ(s.data.errors(), gold.data_errors) << "jobs " << jobs;
    EXPECT_EQ(s.data.trials(), gold.data_bits) << "jobs " << jobs;
    EXPECT_EQ(s.data_aligned.errors(), gold.aligned_errors) << "jobs " << jobs;
    EXPECT_EQ(s.data_aligned.trials(), gold.aligned_bits) << "jobs " << jobs;
    EXPECT_EQ(s.feedback.errors(), gold.feedback_errors) << "jobs " << jobs;
    EXPECT_EQ(s.feedback.trials(), gold.feedback_bits) << "jobs " << jobs;
    EXPECT_EQ(s.sync_failures, gold.sync_failures) << "jobs " << jobs;
    EXPECT_EQ(s.false_syncs, gold.false_syncs) << "jobs " << jobs;
    EXPECT_EQ(s.harvested_per_frame_j.mean(), gold.harvest_mean)
        << "jobs " << jobs;
    EXPECT_EQ(s.harvested_per_frame_j.variance(), gold.harvest_variance)
        << "jobs " << jobs;
  }
}

TEST(LinkSimGolden, DefaultConfigBitIdenticalToPreRefactor) {
  const LinkSimConfig config;  // cw / static / feedback on, seed 1
  LinkSimulator sim(config);
  sim.set_payload_bytes(16);
  expect_trial_matches(sim, 0,
                       {true, true, 684, 0x1.b26a2p-1, 144, 0, 2, 0,
                        0x1.043b9ede20d3ap-26, 0x1.e66434p-16, 2});
  expect_trial_matches(sim, 1,
                       {true, true, 684, 0x1.b27492p-1, 144, 0, 2, 0,
                        0x1.043b9ede20d3ap-26, 0x1.e66434p-16, 2});
  expect_trial_matches(sim, 2,
                       {true, true, 684, 0x1.b264fep-1, 144, 0, 2, 0,
                        0x1.043b9ede20d3ap-26, 0x1.e66434p-16, 2});
  expect_summary_matches(config, 16, 5,
                         {0, 720, 0, 720, 0, 10, 0, 0,
                          0x1.043b9ede20d3ap-26, 0x0p+0});
}

TEST(LinkSimGolden, ImpairedConfigBitIdenticalToPreRefactor) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  // Every optional impairment at once: OFDM carrier, Rayleigh fading,
  // CFO, multipath, co-channel interferer — the widest synthesis path.
  LinkSimConfig config;
  config.carrier = "ofdm_tv";
  config.fading = "rayleigh";
  config.cfo_hz = 200.0;
  config.multipath = true;
  config.interferer_distance_m = 1.5;
  config.seed = 7;
  LinkSimulator sim(config);
  sim.set_payload_bytes(16);
  expect_trial_matches(sim, 0,
                       {false, false, 0, 0x0p+0, 144, 144, 2, 1,
                        0x1.990709c275557p-43, 0x1.5d7ccc8b88142p-21, 0});
  expect_trial_matches(sim, 1,
                       {false, false, 0, 0x0p+0, 144, 144, 2, 0,
                        0x1.960f4617b2f48p-26, 0x1.1e93f8c31fc2ep-15, 0});
  expect_trial_matches(sim, 2,
                       {false, false, 0, 0x0p+0, 144, 144, 2, 0,
                        0x1.8929f230dd223p-29, 0x1.28c72cd4d81e1p-17, 0});
  expect_summary_matches(config, 16, 5,
                         {720, 720, 0, 0, 3, 10, 5, 0,
                          0x1.4769aa196bb81p-27, 0x1.153f91a197802p-53});
}

TEST(LinkSimGolden, HalfDuplexConfigBitIdenticalToPreRefactor) {
  LinkSimConfig config;
  config.feedback_active = false;
  config.seed = 11;
  expect_summary_matches(config, 8, 5,
                         {0, 360, 0, 360, 0, 0, 0, 0,
                          0x1.e4019ee8f1509p-27, 0x0p+0});
}

// ---------------------------------------------------------------------
// Golden equivalence: NetworkSimulator (single-gateway = historical)
// ---------------------------------------------------------------------

struct NetTagGold {
  std::uint64_t attempted, delivered, collided, aborted, bits, outages;
  double harvested_j, spent_j;
};

struct NetSummaryGold {
  std::uint64_t slots, busy, useful, wasted, collisions, sync_failures;
  std::uint64_t latency_count;
  double latency_mean, latency_variance;
  std::vector<NetTagGold> tags;
};

NetworkSimConfig small4_config() {
  // Mirrors network_sim_test.cpp's small_config(4).
  NetworkSimConfig config;
  config.payload_bytes = 32;
  config.slots_per_trial = 96;
  config.ambient_position = {0.0, 0.0};
  config.receiver_position = {5.0, 0.0};
  for (std::size_t k = 0; k < 4; ++k) {
    NetworkTagConfig tag;
    tag.position = {5.0 + 1.0 * static_cast<double>(k % 3),
                    1.0 + 0.5 * static_cast<double>(k)};
    config.tags.push_back(tag);
  }
  config.seed = 5;
  return config;
}

void expect_network_matches(const NetworkSimConfig& config,
                            std::size_t trials, const NetSummaryGold& gold) {
  const NetworkSimulator sim(config);
  for (const std::size_t jobs : {1, 8}) {
    const ExperimentRunner runner(jobs);
    const auto s = runner.run_chunked<NetworkSimSummary>(
        trials, [&sim](NetworkSimSummary& acc, std::size_t t) {
          acc.add(sim.run_trial(t));
        });
    EXPECT_EQ(s.slots, gold.slots) << "jobs " << jobs;
    EXPECT_EQ(s.busy_slots, gold.busy) << "jobs " << jobs;
    EXPECT_EQ(s.useful_slots, gold.useful) << "jobs " << jobs;
    EXPECT_EQ(s.wasted_slots, gold.wasted) << "jobs " << jobs;
    EXPECT_EQ(s.collisions, gold.collisions) << "jobs " << jobs;
    EXPECT_EQ(s.sync_failures, gold.sync_failures) << "jobs " << jobs;
    EXPECT_EQ(s.detect_latency_slots.count(), gold.latency_count)
        << "jobs " << jobs;
    if (gold.latency_count > 0) {
      EXPECT_EQ(s.detect_latency_slots.mean(), gold.latency_mean)
          << "jobs " << jobs;
    }
    if (gold.latency_count > 1) {
      EXPECT_EQ(s.detect_latency_slots.variance(), gold.latency_variance)
          << "jobs " << jobs;
    }
    ASSERT_EQ(s.tags.size(), gold.tags.size());
    for (std::size_t k = 0; k < gold.tags.size(); ++k) {
      const auto& t = s.tags[k];
      const auto& g = gold.tags[k];
      EXPECT_EQ(t.frames_attempted, g.attempted) << "tag " << k;
      EXPECT_EQ(t.frames_delivered, g.delivered) << "tag " << k;
      EXPECT_EQ(t.frames_collided, g.collided) << "tag " << k;
      EXPECT_EQ(t.frames_aborted, g.aborted) << "tag " << k;
      EXPECT_EQ(t.payload_bits_delivered, g.bits) << "tag " << k;
      EXPECT_EQ(t.energy_outages, g.outages) << "tag " << k;
      EXPECT_EQ(t.harvested_j, g.harvested_j) << "tag " << k;
      EXPECT_EQ(t.spent_j, g.spent_j) << "tag " << k;
    }
  }
}

TEST(NetworkSimGolden, Small4BitIdenticalToPreRefactor) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  expect_network_matches(
      small4_config(), 3,
      {288, 162, 75, 98, 61, 0, 61, 0x1p+1, 0x0p+0,
       {{22, 7, 15, 15, 1792, 0, 0x1.a5297a291844dp-20, 0x0p+0},
        {14, 0, 14, 14, 0, 0, 0x1.c0dfe3040096p-21, 0x0p+0},
        {19, 4, 15, 15, 1024, 0, 0x1.ce0cc95d96d9ap-22, 0x0p+0},
        {21, 4, 17, 17, 1024, 0, 0x1.3935915ce18b6p-20, 0x0p+0}}});
}

TEST(NetworkSimGolden, FadingScenarioBitIdenticalToPreRefactor) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  auto scenario = make_scenario("fading-sweep", 6, 13);
  scenario.config.slots_per_trial = 96;
  expect_network_matches(
      scenario.config, 3,
      {288, 166, 36, 135, 88, 1, 88, 0x1p+1, 0x0p+0,
       {{14, 0, 14, 14, 0, 0, 0x1.57dd8a87166f5p-21, 0x0p+0},
        {15, 0, 14, 14, 0, 0, 0x1.ee1001ea7b5d2p-21, 0x0p+0},
        {15, 0, 15, 15, 0, 0, 0x1.61c9ebc341258p-18, 0x0p+0},
        {20, 3, 17, 17, 1536, 0, 0x1.16875a78f830dp-17, 0x0p+0},
        {15, 0, 15, 15, 0, 0, 0x1.1e4653865324ap-21, 0x0p+0},
        {14, 1, 13, 13, 512, 0, 0x0p+0, 0x0p+0}}});
}

TEST(NetworkSimGolden, EnergyStarvedTimeoutBitIdenticalToPreRefactor) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  auto scenario = make_scenario("energy-starved", 4, 9);
  scenario.config.slots_per_trial = 96;
  scenario.config.mac_kind = mac::MacKind::kTimeout;
  expect_network_matches(
      scenario.config, 2,
      {192, 110, 54, 125, 12, 0, 12, 0x1.c555555555556p+3,
       0x1.89b26c9b26c9cp+2,
       {{0, 0, 0, 0, 0, 64, 0x1.b88611611fd1bp-24, 0x1.643de477e1c33p-23},
        {4, 0, 4, 0, 0, 35, 0x1.85cce355608e5p-23, 0x1.85a3b1e31eedcp-23},
        {10, 6, 4, 0, 3072, 2, 0x1.6eabb215ac94ep-22, 0x1.b7bc6603faad2p-23},
        {4, 0, 4, 0, 0, 34, 0x1.85cce355608e5p-23,
         0x1.85a3b1e31eedcp-23}}});
}

// energy-starved with tags 1 and 4 moved 12 m further from the
// illuminator, out of rectifier range: they harvest exactly 0 while the
// others harvest more. Ungated, only the harvest sums move and spent_j
// stays +0; gated, every tag runs the storage and ledger recurrence.
NetworkSimConfig energy_starved_zero_harvest(bool gating) {
  auto config = make_scenario("energy-starved", 6, 9).config;
  config.slots_per_trial = 96;
  config.energy_gating = gating;
  for (std::size_t k = 1; k < 6; k += 3) config.tags[k].position.x += 12.0;
  return config;
}

TEST(NetworkSimGolden, EnergyStarvedUngatedZeroHarvestTags) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  expect_network_matches(
      energy_starved_zero_harvest(false), 3,
      {288, 173, 36, 140, 85, 0, 85, 0x1p+1, 0x0p+0,
       {{14, 0, 14, 14, 0, 0, 0x1.373b4e25fc613p-23, 0x0p+0},
        {13, 0, 13, 12, 0, 0, 0x0p+0, 0x0p+0},
        {15, 2, 13, 12, 1024, 0, 0x1.9a8fc8fc32e66p-22, 0x0p+0},
        {14, 0, 14, 14, 0, 0, 0x1.36d8effcb6401p-21, 0x0p+0},
        {15, 0, 15, 15, 0, 0, 0x0p+0, 0x0p+0},
        {18, 2, 16, 16, 1024, 0, 0x1.a1667ded07d9p-23, 0x0p+0}}});
}

TEST(NetworkSimGolden, EnergyStarvedGatedZeroHarvestTags) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  expect_network_matches(
      energy_starved_zero_harvest(true), 3,
      {288, 158, 99, 69, 24, 0, 24, 0x1p+1, 0x0p+0,
       {{0, 0, 0, 0, 0, 108, 0x1.4a648d08d7dd4p-23, 0x1.0b2e6b59e9526p-22},
        {0, 0, 0, 0, 0, 95, 0x0p+0, 0x1.0b2e6b59e9526p-22},
        {12, 0, 12, 12, 0, 9, 0x1.a80884a60dcf2p-22, 0x1.1dbc4f4027bf6p-22},
        {23, 11, 12, 12, 5632, 2, 0x1.105570b3c0e83p-21,
         0x1.4d0c879813bb5p-22},
        {0, 0, 0, 0, 0, 97, 0x0p+0, 0x1.0b2e6b59e9526p-22},
        {0, 0, 0, 0, 0, 100, 0x1.c6bc8dfa5cf8ep-23, 0x1.0b2e6b59e9526p-22}}});
}

// The ofdm_tv carrier is not constant, so it keeps the trial-length
// carrier buffer that zero-drift CW no longer uses. These pins were
// captured while every carrier still used that buffer. The waveform arm
// never syncs an OFDM frame in this scene (the leakage's envelope
// fluctuation swamps the tags' modulation), so its pin holds the
// verdict split and energy tallies, not sample values; the hybrid arm
// also runs one escalated window through the carrier buffer.
NetworkSimConfig ofdm_tv_config(FidelityMode fidelity) {
  NetworkSimConfig config = small4_config();
  config.carrier = "ofdm_tv";
  config.fleet.fidelity = fidelity;
  return config;
}

TEST(NetworkSimGolden, OfdmTvWaveformBitIdenticalToPreRefactor) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  expect_network_matches(
      ofdm_tv_config(FidelityMode::kWaveform), 3,
      {288, 144, 0, 156, 44, 15, 44, 0x1p+1, 0x0p+0,
       {{15, 0, 12, 11, 0, 0, 0x1.b0431d66e8616p-20, 0x0p+0},
        {15, 0, 10, 10, 0, 0, 0x1.ba302d41b7728p-21, 0x0p+0},
        {16, 0, 13, 12, 0, 0, 0x1.d38deef02b893p-22, 0x0p+0},
        {13, 0, 9, 8, 0, 0, 0x1.3f86320123e74p-20, 0x0p+0}}});
}

TEST(NetworkSimGolden, OfdmTvHybridBitIdenticalToPreRefactor) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  const NetworkSimConfig config = ofdm_tv_config(FidelityMode::kHybrid);
  expect_network_matches(
      config, 3,
      {288, 149, 55, 103, 63, 0, 63, 0x1p+1, 0x0p+0,
       {{20, 3, 17, 16, 768, 0, 0x1.aab64bc800532p-20, 0x0p+0},
        {14, 0, 14, 14, 0, 0, 0x1.c0dfe3040096p-21, 0x0p+0},
        {19, 4, 15, 15, 1024, 0, 0x1.ce0cc95d96d9ap-22, 0x0p+0},
        {21, 4, 17, 17, 1024, 0, 0x1.3935915ce18b6p-20, 0x0p+0}}});
  const NetworkSimSummary s = NetworkSimulator(config).run(3);
  EXPECT_EQ(s.frames_escalated, 1u);
  EXPECT_EQ(s.gateway_slots_synthesized, 6u);
}

// The verdict pins above cannot see a sample that moves without
// flipping a decode. These hash every envelope sample each gateway
// produced (NetworkTrialResult::envelope_digest, FNV-1a over the float
// bits): the full-trial history in kWaveform, the escalated decode
// windows in kHybrid (only trial 1 escalates here; a trial with no
// escalation keeps the FNV offset basis). Two gateways, so each one's
// chain is pinned. Captured before fill_cn's log/dispatch rewrite.
NetworkSimConfig digest_config(const char* carrier, FidelityMode fidelity) {
  NetworkSimConfig config = small4_config();
  config.extra_gateways = {{9.0, 3.0}};
  config.carrier = carrier;
  config.fleet.fidelity = fidelity;
  config.fleet.record_frames = true;
  return config;
}

std::string hex_digests(const std::vector<std::uint64_t>& digests) {
  std::string text;
  for (const std::uint64_t d : digests) {
    char word[24];
    std::snprintf(word, sizeof word, "0x%016llx ",
                  static_cast<unsigned long long>(d));
    text += word;
  }
  return text;
}

void expect_envelope_digests(
    const NetworkSimConfig& config,
    const std::vector<std::vector<std::uint64_t>>& gold) {
  const NetworkSimulator sim(config);
  std::uint64_t escalated = 0;
  for (std::size_t t = 0; t < gold.size(); ++t) {
    const NetworkTrialResult r = sim.run_trial(t);
    escalated += r.frames_escalated;
    EXPECT_EQ(hex_digests(r.envelope_digest), hex_digests(gold[t]))
        << "trial " << t;
  }
  if (config.fleet.fidelity == FidelityMode::kHybrid) {
    EXPECT_GT(escalated, 0u) << "no escalated window: nothing pinned";
  }
}

TEST(NetworkSimGolden, CwWaveformEnvelopeDigest) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  expect_envelope_digests(
      digest_config("cw", FidelityMode::kWaveform),
      {{0xec36e84ce71ba9c2, 0x94cc4f795611f5be},
       {0x46ca0bdd7cd3a306, 0xf335eeb73672b6a9},
       {0x0995dd7cf6323bbd, 0xa506f2dffd3d30e3}});
}

TEST(NetworkSimGolden, CwHybridEnvelopeDigest) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  expect_envelope_digests(
      digest_config("cw", FidelityMode::kHybrid),
      {{0xcbf29ce484222325, 0xcbf29ce484222325},
       {0x01cd7c44df5eb262, 0xa657982c0ce440e5},
       {0xcbf29ce484222325, 0xcbf29ce484222325}});
}

TEST(NetworkSimGolden, OfdmTvWaveformEnvelopeDigest) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  expect_envelope_digests(
      digest_config("ofdm_tv", FidelityMode::kWaveform),
      {{0x95e386ea2e232be1, 0x0ea27da0d91c0173},
       {0x62d9750a854bb8c8, 0x9ed552ce016c82d2},
       {0x4414eaffb3be7f73, 0xd5c7268983d4aed5}});
}

TEST(NetworkSimGolden, OfdmTvHybridEnvelopeDigest) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  expect_envelope_digests(
      digest_config("ofdm_tv", FidelityMode::kHybrid),
      {{0xcbf29ce484222325, 0xcbf29ce484222325},
       {0x3eec5e7ea80032a7, 0xdd382abc960a6eac},
       {0xcbf29ce484222325, 0xcbf29ce484222325}});
}

// A 500-tag warehouse scene whose trial 1 escalates frames that started
// in the same slot: at gateways 1 and 3 the later frames reuse the
// memoized decode of the shared window, so each window folds into the
// digest once. A second fold on a memo hit would move those two words.
TEST(NetworkSimGolden, HybridSharedWindowEnvelopeDigest) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  auto config = make_scenario("warehouse-10k", 500, 29).config;
  config.slots_per_trial = 48;
  config.fleet.fidelity = FidelityMode::kHybrid;
  config.fleet.record_frames = true;
  expect_envelope_digests(
      config, {{0x1a426467abad3b45, 0xfa00a3c40ac5739a, 0x00f4bf73a4bdfae2,
                0x1285a434c83edcd7},
               {0x5cec8256016ee9cc, 0x6bb0f161832861b6, 0xf329068a37fbb8ed,
                0xa18314c8cce7139a}});
}

// Per-gateway decode outcomes of the two-gateway waveform scene, trial
// by trial: gateway_decodes and each frame record's verdict ('+'
// delivered). Each gateway decodes every frame from its own envelope
// history; in trial 2 gateway 1 misses a frame gateway 0 decodes, so a
// decode handed from one gateway to the other moves a tally.
TEST(NetworkSimGolden, TwoGatewayWaveformDecodeTallies) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  const NetworkSimulator sim(digest_config("cw", FidelityMode::kWaveform));
  const struct {
    std::vector<std::uint64_t> gateway_decodes;
    std::string delivered;
  } gold[] = {{{6, 6}, "++++++"}, {{5, 5}, "-+++++"}, {{8, 7}, "++++++++"}};
  for (std::size_t t = 0; t < std::size(gold); ++t) {
    const NetworkTrialResult r = sim.run_trial(t);
    EXPECT_EQ(r.gateway_decodes, gold[t].gateway_decodes) << "trial " << t;
    std::string delivered;
    for (const FrameRecord& f : r.frames) delivered += f.delivered ? '+' : '-';
    EXPECT_EQ(delivered, gold[t].delivered) << "trial " << t;
  }
}

// Relaying under kWaveform: frames reach the gateways through the
// sample-level chain, but every tag-to-tag hop is judged by the fleet
// resolver's analytic margin, which the simulator therefore builds
// whenever relaying is on.
TEST(NetworkSimGolden, WarehouseMeshWaveformRelay) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  auto config = make_scenario("warehouse-mesh", 24, 7).config;
  config.slots_per_trial = 160;
  config.fleet.fidelity = FidelityMode::kWaveform;
  const NetworkSimSummary s = NetworkSimulator(config).run(2);
  EXPECT_EQ(s.relay_tx_frames, 8u);
  EXPECT_EQ(s.relay_rx_frames, 16u);
  EXPECT_EQ(s.relayed_delivered, 4u);
  EXPECT_EQ(s.relay_drops, 8u);
  EXPECT_EQ(s.relay_hops.count(), 4u);
  EXPECT_EQ(s.relay_hops.mean(), 0x1p+1);
  EXPECT_EQ(s.relay_hops.variance(), 0x0p+0);
  const std::vector<std::uint64_t> gold_delivered = {
      4, 4, 4, 2, 2, 0, 0, 0, 0, 0, 4, 4, 4, 2, 2, 0, 0, 0, 0, 0, 4, 4, 4, 4};
  std::vector<std::uint64_t> delivered;
  for (const auto& t : s.tags) delivered.push_back(t.frames_delivered);
  EXPECT_EQ(delivered, gold_delivered);
}

// ---------------------------------------------------------------------
// Zero steady-state allocation
// ---------------------------------------------------------------------

TEST(SynthesisNoAlloc, LinkTrialArenaCapacityStableAfterWarmup) {
  LinkSimConfig config;
  config.multipath = true;  // widest scratch footprint
  config.cfo_hz = 100.0;
  config.interferer_distance_m = 1.0;
  const LinkSimulator sim(config);
  SynthArena arena;
  // Warm-up: first trial grows chunks, next reset coalesces them.
  (void)sim.run_trial(0, arena);
  (void)sim.run_trial(1, arena);
  const std::size_t warm = arena.capacity_bytes();
  EXPECT_GT(warm, 0u);
  for (std::uint64_t t = 2; t < 8; ++t) {
    (void)sim.run_trial(t, arena);
    EXPECT_EQ(arena.capacity_bytes(), warm) << "trial " << t;
  }
}

TEST(SynthesisNoAlloc, NetworkTrialArenaCapacityStableAfterWarmup) {
  auto scenario = make_scenario("multi-gateway-dense", 4, 3);
  scenario.config.slots_per_trial = 64;
  const NetworkSimulator sim(scenario.config);
  SynthArena arena;
  (void)sim.run_trial(0, arena);
  (void)sim.run_trial(1, arena);
  const std::size_t warm = arena.capacity_bytes();
  EXPECT_GT(warm, 0u);
  for (std::uint64_t t = 2; t < 6; ++t) {
    (void)sim.run_trial(t, arena);
    EXPECT_EQ(arena.capacity_bytes(), warm) << "trial " << t;
  }
}

TEST(SynthesisNoAlloc, HybridTrialArenaCapacityStableAfterWarmup) {
  // The hybrid escalation cache is chunk-lazy: a trial only carves the
  // esc_cache chunks its contested windows actually touch. Capacity
  // must still go flat once the deepest trial has been seen — chunks
  // are arena-backed, so reset() coalesces them like any other scratch.
  auto scenario = make_scenario("warehouse-10k", 200, 29);
  scenario.config.slots_per_trial = 48;
  scenario.config.fleet.fidelity = FidelityMode::kHybrid;
  const NetworkSimulator sim(scenario.config);
  SynthArena arena;
  std::size_t warm = 0;
  for (std::uint64_t t = 0; t < 4; ++t) {
    (void)sim.run_trial(t, arena);
    warm = std::max(warm, arena.capacity_bytes());
  }
  EXPECT_GT(warm, 0u);
  for (std::uint64_t t = 0; t < 4; ++t) {
    (void)sim.run_trial(t, arena);
    EXPECT_EQ(arena.capacity_bytes(), warm) << "replay trial " << t;
  }
}

TEST(SynthesisNoAlloc, ExplicitArenaMatchesThreadLocalPath) {
  const LinkSimulator sim(LinkSimConfig{});
  SynthArena arena;
  const TrialResult a = sim.run_trial(4, arena);
  const TrialResult b = sim.run_trial(4);  // thread-local arena overload
  EXPECT_EQ(a.data_bit_errors, b.data_bit_errors);
  EXPECT_EQ(a.harvested_j, b.harvested_j);
  EXPECT_EQ(static_cast<double>(a.sync_corr),
            static_cast<double>(b.sync_corr));
}

}  // namespace
}  // namespace fdb::sim
