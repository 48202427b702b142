// The trial's named parts alone (sim/trial_parts.hpp), built from their
// explicit inputs without a NetworkSimulator: gateway-slot synthesis,
// the hybrid escalator's slot cache, window gather and demod memo, and
// the frame classifier's margins, bracketing and demotions.
#include "sim/trial_parts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace fdb::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The inputs a trial hands its sample-level parts: a small modem, two
/// gateways and three tags, every tag in range of every gateway.
struct Rig {
  static constexpr std::size_t kTags = 3;
  static constexpr std::size_t kGw = 2;
  static constexpr std::size_t kPayload = 8;

  core::FdModemConfig modem = core::FdModemConfig::make(4, 6);
  core::FdDataTransmitter tx{modem};
  core::FdDataReceiver rx{modem};
  WaveformSynthesizer front_end{modem.data.rates, 4.0};
  TrialGeometry geo;
  std::vector<cf32> h_sr{{1.0e-3f, 0.0f}, {0.0f, 1.0e-3f}};
  std::vector<cf32> coup_on, coup_off;
  std::vector<std::uint8_t> in_range =
      std::vector<std::uint8_t>(kTags * kGw, 1);
  FaultPlan no_faults;
  SynthArena arena;

  Rig() {
    const std::size_t ss = modem.data.rates.samples_per_feedback_bit();
    const std::size_t burst = tx.burst_samples(kPayload);
    geo = {48, ss, (burst + ss - 1) / ss, burst,
           2 * modem.data.rates.samples_per_bit()};
    for (std::size_t i = 0; i < kTags * kGw; ++i) {
      const float a = 1.0e-4f * static_cast<float>(i + 1);
      coup_on.push_back({a, 0.5f * a});
      coup_off.push_back({0.2f * a, -0.1f * a});
    }
  }

  /// A synth over a CW carrier, or over none (kAnalytic).
  GatewaySlotSynth synth(Rng& rng, bool carrier = true) {
    return GatewaySlotSynth(
        geo, carrier ? channel::make_ambient_source("cw", 11) : nullptr, h_sr,
        coup_on, coup_off, 1.0e-10, rng, tx, no_faults, arena);
  }

  HybridEscalator escalator(GatewaySlotSynth& synth,
                            std::span<std::uint64_t> digests = {}) {
    return HybridEscalator(geo, kTags, in_range, synth, front_end, rx,
                           kPayload, digests, arena);
  }

  /// Logs tag k's frame at each (tag, start) and indexes every slot.
  void run_frames(HybridEscalator& esc,
                  const std::vector<std::pair<std::size_t, std::uint64_t>>&
                      starts) const {
    const std::vector<std::uint8_t> bytes(kPayload, 0xa5);
    for (std::uint64_t s = 0; s < geo.slots; ++s) {
      std::vector<std::size_t> on_air;
      for (const auto& [k, start] : starts) {
        if (start == s) esc.log_frame(k, s, bytes);
        if (start <= s && s < start + geo.frame_slots) on_air.push_back(k);
      }
      esc.index_slot(s, on_air);
    }
  }

  /// Slots the window of frames started in `start` gathers: one warm-up
  /// slot ahead of the burst through the sync tail.
  std::size_t window_slots(std::uint64_t start) const {
    const TrialGeometry::Window w = geo.decode_window(start);
    const std::size_t hi_slot =
        std::min(geo.slots, (w.hi + geo.slot_samples - 1) / geo.slot_samples);
    return hi_slot - (w.lo / geo.slot_samples - 1);
  }
};

TEST(GatewaySlotSynth, ForksTheNoiseStreamsInEveryMode) {
  Rig rig;
  Rng analytic(3);
  Rng hybrid(3);
  (void)rig.synth(analytic, /*carrier=*/false);
  (void)rig.synth(hybrid);
  EXPECT_EQ(analytic(), hybrid());  // the opening waits see one stream
}

TEST(HybridEscalator, SlotSharedByOverlappingWindowsIsBuiltOnce) {
  Rig rig;
  Rng rng(5);
  GatewaySlotSynth synth = rig.synth(rng);
  HybridEscalator esc = rig.escalator(synth);
  rig.run_frames(esc, {{0, 4}, {1, 6}});

  const TrialGeometry::Window a = rig.geo.decode_window(4);
  const TrialGeometry::Window b = rig.geo.decode_window(6);
  (void)esc.window(0, a.lo, a.hi);
  EXPECT_EQ(synth.gateway_slots(), rig.window_slots(4));
  // b's window starts at slot 5, inside a's: only its tail is new.
  (void)esc.window(0, b.lo, b.hi);
  EXPECT_EQ(synth.gateway_slots(), rig.window_slots(4) + 2);
}

TEST(HybridEscalator, GatewaySlotsCountBuildsPerGateway) {
  Rig rig;
  Rng rng(5);
  GatewaySlotSynth synth = rig.synth(rng);
  HybridEscalator esc = rig.escalator(synth);
  rig.run_frames(esc, {{2, 9}});
  const TrialGeometry::Window w = rig.geo.decode_window(9);
  (void)esc.window(0, w.lo, w.hi);
  (void)esc.window(1, w.lo, w.hi);
  (void)esc.window(0, w.lo, w.hi);  // cached: nothing new to build
  EXPECT_EQ(synth.gateway_slots(), 2 * rig.window_slots(9));
}

TEST(HybridEscalator, WindowStraddlingACacheChunkEqualsTheContiguousWindow) {
  Rig rig;
  Rng rng(5);
  GatewaySlotSynth synth = rig.synth(rng);
  HybridEscalator esc = rig.escalator(synth);
  // Slot 3 (the warm-up) ends chunk 0; the burst starts chunk 1.
  static_assert(HybridEscalator::kChunkSlots == 4);
  rig.run_frames(esc, {{1, 4}});
  const TrialGeometry::Window w = rig.geo.decode_window(4);
  const auto got = esc.window(0, w.lo, w.hi);

  // The same slots synthesized in order into one contiguous buffer, from
  // the same noise forks.
  Rng rng2(5);
  GatewaySlotSynth ref = rig.synth(rng2);
  const std::size_t ss = rig.geo.slot_samples;
  const std::size_t w0_slot = w.lo / ss - 1;
  const std::size_t n_slots = rig.window_slots(4);
  ref.ensure_carrier((w0_slot + n_slots) * ss);
  const std::vector<std::uint8_t> bytes(Rig::kPayload, 0xa5);
  const std::vector<std::uint8_t> states = ref.frame_states(1, 4, bytes);
  std::vector<cf32> rx(n_slots * ss);
  for (std::size_t i = 0; i < n_slots; ++i) {
    const std::size_t s = w0_slot + i;
    const bool on_air = s >= 4 && s < 4 + rig.geo.frame_slots;
    if (on_air) ref.stage(0, 1, 0, states.data() + (s - 4) * ss);
    ref.synthesize(0, s, on_air ? 1 : 0,
                   std::span<cf32>(rx).subspan(i * ss, ss));
  }
  std::vector<float> env(rx.size());
  rig.front_end.make_envelope().process(rx, env);
  const std::vector<float> want(env.begin() + (w.lo - w0_slot * ss),
                                env.begin() + (w.hi - w0_slot * ss));
  EXPECT_EQ(std::vector<float>(got.begin(), got.end()), want);
}

TEST(HybridEscalator, MemoHitSynthesizesNothingAndFoldsNoSecondDigest) {
  Rig rig;
  Rng rng(5);
  GatewaySlotSynth synth = rig.synth(rng);
  std::vector<std::uint64_t> digests(Rig::kGw, detail::kDigestBasis);
  HybridEscalator esc = rig.escalator(synth, digests);
  rig.run_frames(esc, {{0, 4}, {2, 4}});  // a collision: one window

  const std::vector<LinkVerdict> verdict{LinkVerdict::kContested,
                                         LinkVerdict::kClearFail};
  const std::vector<double> margin{0.0, -kInf};
  std::vector<const core::FdRxResult*> seen;
  const auto accept = [&](std::size_t g, const core::FdRxResult& r) {
    EXPECT_EQ(g, 0u);
    seen.push_back(&r);
    return false;
  };
  EXPECT_FALSE(esc.escalate(4, verdict, margin, accept));
  const std::uint64_t built = synth.gateway_slots();
  const std::vector<std::uint64_t> folded = digests;
  EXPECT_EQ(built, rig.window_slots(4));
  EXPECT_NE(folded[0], detail::kDigestBasis);
  EXPECT_EQ(folded[1], detail::kDigestBasis);

  EXPECT_FALSE(esc.escalate(4, verdict, margin, accept));  // tag 2's turn
  EXPECT_EQ(synth.gateway_slots(), built);
  EXPECT_EQ(digests, folded);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], seen[1]);  // the memoized receiver output
}

TEST(HybridEscalator, TriesContestedGatewaysBestMarginFirst) {
  Rig rig;
  Rng rng(5);
  GatewaySlotSynth synth = rig.synth(rng);
  HybridEscalator esc = rig.escalator(synth);
  rig.run_frames(esc, {{0, 4}, {1, 12}});
  const std::vector<LinkVerdict> contested(Rig::kGw, LinkVerdict::kContested);
  std::vector<std::size_t> order;
  const auto reject = [&](std::size_t g, const core::FdRxResult&) {
    order.push_back(g);
    return false;
  };
  EXPECT_FALSE(esc.escalate(4, contested, std::vector<double>{1.0, 2.0},
                            reject));
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0}));
  order.clear();
  EXPECT_FALSE(esc.escalate(12, contested, std::vector<double>{2.0, 2.0},
                            reject));
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));  // ties: lowest first

  // The first accepted decode stops the loop before g = 0's window.
  const std::uint64_t built = synth.gateway_slots();
  EXPECT_TRUE(esc.escalate(
      20, contested, std::vector<double>{1.0, 2.0},
      [](std::size_t, const core::FdRxResult&) { return true; }));
  EXPECT_EQ(synth.gateway_slots(), built + rig.window_slots(20));
}

// --- FrameClassifier -------------------------------------------------------

constexpr std::size_t kFrameSlots = 6;
constexpr std::size_t kSlots = 256;

/// A resolver and the swing that puts a clean frame's margin at `db`.
struct Band {
  FleetResolver resolver{FleetConfig{}, 1.0, 12};

  double swing_for(double db) const {
    double lo = 1e-9;
    double hi = 1e9;
    for (int i = 0; i < 200; ++i) {
      const double mid = std::sqrt(lo * hi);
      (resolver.margin_db(mid, 0.0) < db ? lo : hi) = mid;
    }
    return hi;
  }
};

/// The trial's fault plan for scripted `events` over three tags.
FaultPlan plan_with(std::vector<FaultEvent> events, std::size_t n_gw) {
  FaultConfig config;
  config.events = std::move(events);
  return FaultInjector(config, 1, n_gw, 3, kSlots, 480, 6, 1.0).plan(0);
}

NetworkSimConfig combining(GatewayCombining c) {
  NetworkSimConfig config;
  config.combining = c;
  return config;
}

TEST(FrameClassifier, FaultScalesBracketTheTwoArms) {
  const Band band;
  // Tag 0's frame over slots [10, 16) sees a sag to 0.1 in slots 12-13.
  const FaultPlan faults =
      plan_with({{FaultClass::kCarrierSag, 12, 2, 0, 0.1}}, 1);
  ASSERT_FLOAT_EQ(faults.min_signal_scale(0, 10, 16), 0.1f);
  ASSERT_FLOAT_EQ(faults.max_signal_scale(0, 10, 16), 1.0f);
  const double d = band.swing_for(0.0);  // mid-band when clean
  const std::vector<float> delta{static_cast<float>(d), 0.0f, 0.0f};
  const std::vector<std::size_t> serving{0, 0, 0};
  const std::vector<cf32> links(3, cf32{1.0f, 0.0f});
  const auto config = combining(GatewayCombining::kAnyGateway);
  const GatewayFailover fo(config, 0, serving, links);
  SynthArena arena;
  FrameClassifier fc(band.resolver, delta, 1, kFrameSlots, faults, arena);

  const FrameClass c = fc.classify(0, 10, false, fo, [](std::size_t) {
    return 0.0;
  });
  const double dd = delta[0];
  // Pessimistic arm at the window minimum, optimistic at the maximum: a
  // min-scaled optimistic arm would call this frame clear-fail.
  EXPECT_EQ(fc.margins()[0], band.resolver.margin_db(dd * 0.1f, 0.0));
  EXPECT_EQ(fc.verdicts()[0], band.resolver.classify(dd * 0.1f, dd, 0.0));
  EXPECT_EQ(band.resolver.classify(dd * 0.1f, dd * 0.1f, 0.0),
            LinkVerdict::kClearFail);
  EXPECT_EQ(c.combined, LinkVerdict::kContested);
  EXPECT_EQ(c.best_margin, fc.margins()[0]);
}

TEST(FrameClassifier, StuckOrDriftedFramesAreContested) {
  const Band band;
  const double d = band.swing_for(30.0);  // clear-deliver when healthy
  const std::vector<float> delta(3, static_cast<float>(d));
  const std::vector<std::size_t> serving{0, 0, 0};
  const std::vector<cf32> links(3, cf32{1.0f, 0.0f});
  const auto config = combining(GatewayCombining::kAnyGateway);
  const GatewayFailover fo(config, 0, serving, links);
  const auto none = [](std::size_t) { return 0.0; };
  // Tag 1 stuck over slots [20, 30); tag 2 drifting since slot 0.
  const FaultPlan faults = plan_with(
      {{FaultClass::kTagStuck, 20, 10, 1, 1.0},
       {FaultClass::kTagDrift, 0, kSlots, 2, 1000.0}},
      1);
  SynthArena arena;
  FrameClassifier fc(band.resolver, delta, 1, kFrameSlots, faults, arena);

  EXPECT_EQ(fc.classify(0, 40, false, fo, none).combined,
            LinkVerdict::kClearDeliver);
  const FrameClass stuck = fc.classify(1, 18, false, fo, none);
  EXPECT_TRUE(stuck.own_stuck);
  EXPECT_EQ(stuck.combined, LinkVerdict::kContested);
  EXPECT_EQ(fc.classify(1, 40, false, fo, none).combined,
            LinkVerdict::kClearDeliver);  // the fault is over
  const FrameClass drifted = fc.classify(2, 40, false, fo, none);
  EXPECT_GT(drifted.own_shift, 0u);
  EXPECT_EQ(drifted.combined, LinkVerdict::kContested);
}

TEST(FrameClassifier, ForwardedClearDeliverIsContested) {
  const Band band;
  const std::vector<float> delta(3, static_cast<float>(band.swing_for(30.0)));
  const std::vector<std::size_t> serving{0, 0, 0};
  const std::vector<cf32> links(3, cf32{1.0f, 0.0f});
  const auto config = combining(GatewayCombining::kAnyGateway);
  const GatewayFailover fo(config, 0, serving, links);
  const FaultPlan no_faults;
  SynthArena arena;
  FrameClassifier fc(band.resolver, delta, 1, kFrameSlots, no_faults, arena);
  const auto none = [](std::size_t) { return 0.0; };
  EXPECT_EQ(fc.classify(0, 10, false, fo, none).combined,
            LinkVerdict::kClearDeliver);
  EXPECT_EQ(fc.classify(0, 10, true, fo, none).combined,
            LinkVerdict::kContested);
}

TEST(FrameClassifier, UnheardGatewaysReadClearFail) {
  const Band band;
  // Two gateways; tag 0 is served by gateway 1 under best-gateway
  // combining, so gateway 0's strong link is not listened to.
  const double strong = band.swing_for(30.0);
  const double weak = band.swing_for(-30.0);
  const std::vector<float> delta{static_cast<float>(strong),
                                 static_cast<float>(weak), 0.0f, 0.0f, 0.0f,
                                 0.0f};
  const std::vector<std::size_t> serving{1, 0, 0};
  const std::vector<cf32> links(6, cf32{1.0f, 0.0f});
  const auto config = combining(GatewayCombining::kBestGateway);
  const GatewayFailover fo(config, 0, serving, links);
  const FaultPlan no_faults;
  SynthArena arena;
  FrameClassifier fc(band.resolver, delta, 2, kFrameSlots, no_faults, arena);
  const FrameClass c =
      fc.classify(0, 10, false, fo, [](std::size_t) { return 0.0; });
  EXPECT_EQ(fc.verdicts()[0], LinkVerdict::kClearFail);
  EXPECT_EQ(fc.margins()[0], -kInf);
  EXPECT_EQ(fc.verdicts()[1], LinkVerdict::kClearFail);
  EXPECT_EQ(c.combined, LinkVerdict::kClearFail);
  EXPECT_EQ(c.best_g, 1u);
  EXPECT_EQ(c.best_margin, fc.margins()[1]);
}

TEST(FrameClassifier, BestGatewayTiesGoToTheLowestIndex) {
  const Band band;
  const float d = static_cast<float>(band.swing_for(3.0));
  const std::vector<float> delta{d, d, d, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const std::vector<std::size_t> serving{2, 0, 0};  // not the tie winner
  const std::vector<cf32> links(9, cf32{1.0f, 0.0f});
  const auto config = combining(GatewayCombining::kAnyGateway);
  const GatewayFailover fo(config, 0, serving, links);
  const FaultPlan no_faults;
  SynthArena arena;
  FrameClassifier fc(band.resolver, delta, 3, kFrameSlots, no_faults, arena);
  // Gateway 0 hears more interference; 1 and 2 tie.
  const std::vector<double> interf{0.5, 0.0, 0.0};
  const FrameClass c =
      fc.classify(0, 10, false, fo, [&](std::size_t g) { return interf[g]; });
  EXPECT_EQ(fc.margins()[1], fc.margins()[2]);
  EXPECT_LT(fc.margins()[0], fc.margins()[1]);
  EXPECT_EQ(c.best_g, 1u);
}

TEST(FrameClassifier, CombinedVerdictRanksDeliverOverContestedOverFail) {
  const Band band;
  const auto f = [&](double db) { return static_cast<float>(band.swing_for(db)); };
  const float fail = f(-30.0);
  const float contested = f(0.0);
  const float deliver = f(30.0);
  // Tags 0-2 over three gateways: fail/contested/deliver,
  // fail/contested/fail and fail/fail/fail.
  const std::vector<float> delta{fail, contested, deliver,  //
                                 fail, contested, fail,     //
                                 fail, fail,      fail};
  const std::vector<std::size_t> serving{0, 0, 0};
  const std::vector<cf32> links(9, cf32{1.0f, 0.0f});
  const auto config = combining(GatewayCombining::kAnyGateway);
  const GatewayFailover fo(config, 0, serving, links);
  const FaultPlan no_faults;
  SynthArena arena;
  FrameClassifier fc(band.resolver, delta, 3, kFrameSlots, no_faults, arena);
  const auto none = [](std::size_t) { return 0.0; };

  EXPECT_EQ(fc.classify(0, 10, false, fo, none).combined,
            LinkVerdict::kClearDeliver);
  EXPECT_EQ(fc.verdicts()[0], LinkVerdict::kClearFail);
  EXPECT_EQ(fc.verdicts()[1], LinkVerdict::kContested);
  EXPECT_EQ(fc.verdicts()[2], LinkVerdict::kClearDeliver);
  EXPECT_EQ(fc.classify(1, 10, false, fo, none).combined,
            LinkVerdict::kContested);
  EXPECT_EQ(fc.classify(2, 10, false, fo, none).combined,
            LinkVerdict::kClearFail);
}

}  // namespace
}  // namespace fdb::sim
