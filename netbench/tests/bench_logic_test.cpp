// Tests of the benchmark's own logic: the percentile rule, span self-time
// arithmetic, and the output checker's rejection of doctored results.
#include <gtest/gtest.h>

#include <vector>

#include "check.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace netbench {
namespace {

TEST(PercentileRule, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(highest_reportable_percentile(9), 0.0);
  EXPECT_EQ(highest_reportable_percentile(20), 50.0);
  EXPECT_EQ(highest_reportable_percentile(99), 50.0);
  EXPECT_EQ(highest_reportable_percentile(100), 90.0);
  EXPECT_EQ(highest_reportable_percentile(999), 90.0);
  EXPECT_EQ(highest_reportable_percentile(1000), 99.0);
  EXPECT_EQ(highest_reportable_percentile(10000), 99.9);
  EXPECT_EQ(highest_reportable_percentile(50, 5), 90.0);
}

TEST(PercentileRule, MinimumSamplesForP90IsOneHundred) {
  EXPECT_EQ(min_samples_for_percentile(90.0), 100u);
  EXPECT_EQ(min_samples_for_percentile(99.0), 1000u);
  EXPECT_EQ(min_samples_for_percentile(50.0), 20u);
}

TEST(PercentileRule, QuantileInterpolatesLinearly) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_DOUBLE_EQ(median(v), 50.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9), 90.1);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 100.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(SpanSelfTime, ChildrenAreSubtractedOnce) {
  // root [0,100) with children [10,30) and [20,50) (overlapping: union
  // 40) and a grandchild [12,18) that only the child loses.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, -1, false},
      {"a", 10, 30, 0, 1, false},
      {"b", 20, 50, 0, 1, false},
      {"a.inner", 12, 18, 1, 1, false},
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 14);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
}

TEST(SpanSelfTime, ChildrenAreClippedToTheParent) {
  std::vector<Span> spans = {
      {"child-first", 90, 130, 2, -1, false},  // parent listed after it
      {"other", 0, 5, 2, -1, false},
      {"parent", 50, 100, -1, -1, false},
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[2], 40);  // only [90,100) is covered; [0,5) is outside
  EXPECT_EQ(self[0], 40);
}

TEST(SpanSelfTime, TotalsGroupByName) {
  std::vector<Span> spans = {
      {"trial", 0, 10, -1, 0, false},
      {"stage", 0, 4, 0, 0, true},
      {"trial", 20, 30, -1, 1, false},
      {"stage", 20, 26, 2, 1, true},
  };
  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("trial").count, 2u);
  EXPECT_EQ(totals.at("trial").total_ns, 20);
  EXPECT_EQ(totals.at("trial").self_ns, 10);
  EXPECT_EQ(totals.at("stage").self_ns, 10);
}

fdb::sim::NetworkSimSummary small_summary() {
  fdb::sim::NetworkSimSummary s;
  s.trials = 2;
  s.slots = 200;
  s.busy_slots = 120;
  s.wasted_slots = 40;
  s.gateway_decodes = {5, 3};
  s.gateway_slots_synthesized = 400;
  s.tags.resize(3);
  for (std::size_t k = 0; k < 3; ++k) {
    s.tags[k].frames_attempted = 4 + k;
    s.tags[k].frames_delivered = 2 + k;
    s.tags[k].harvested_j = 1e-6 * static_cast<double>(k + 1);
  }
  s.detect_latency_slots.add(3.0);
  s.detect_latency_slots.add(5.0);
  return s;
}

constexpr ResultShape kShape{100, 2, true};

TEST(OutputCheck, ConsistentSummaryPasses) {
  const auto s = small_summary();
  EXPECT_TRUE(violations(s, kShape, 2).empty());
  const Pin pin{counter_digest(s), moments(s)};
  EXPECT_TRUE(pin_mismatches(s, pin).empty());
}

TEST(OutputCheck, RejectsDeliveredAboveAttempted) {
  auto s = small_summary();
  s.tags[1].frames_delivered = s.tags[1].frames_attempted + 1;
  EXPECT_FALSE(violations(s, kShape, 2).empty());
}

TEST(OutputCheck, RejectsWastedAboveSlots) {
  auto s = small_summary();
  s.wasted_slots = s.slots + 1;
  EXPECT_FALSE(violations(s, kShape, 2).empty());
}

TEST(OutputCheck, RejectsPartialSynthesisInWaveformMode) {
  auto s = small_summary();
  s.gateway_slots_synthesized -= 1;
  EXPECT_FALSE(violations(s, kShape, 2).empty());
  EXPECT_TRUE(violations(s, ResultShape{100, 2, false}, 2).empty());
}

TEST(OutputCheck, RejectsBrokenRelayConservation) {
  auto s = small_summary();
  s.relay_tx_frames = 4;
  s.relay_rx_frames = 5;
  s.relayed_delivered = 3;
  s.relay_drops = 1;
  EXPECT_TRUE(violations(s, kShape, 2).empty());
  s.relayed_delivered = 5;  // more relayed deliveries than forwards
  EXPECT_FALSE(violations(s, kShape, 2).empty());
  s.relayed_delivered = 3;
  s.relay_drops = 0;  // a received hop neither forwarded nor dropped
  EXPECT_FALSE(violations(s, kShape, 2).empty());
}

TEST(OutputCheck, OneFlippedCounterChangesTheDigest) {
  const auto s = small_summary();
  const Pin pin{counter_digest(s), moments(s)};
  auto doctored = s;
  doctored.tags[2].frames_collided ^= 1;  // a counter no invariant reads
  EXPECT_TRUE(violations(doctored, kShape, 2).empty());
  EXPECT_FALSE(pin_mismatches(doctored, pin).empty());
  doctored = s;
  doctored.gateway_decodes[1] += 1;
  EXPECT_FALSE(pin_mismatches(doctored, pin).empty());
}

TEST(OutputCheck, MomentsToleranceIgnoresMergeOrderNoise) {
  const auto s = small_summary();
  const Pin pin{counter_digest(s), moments(s)};
  auto nudged = s;
  nudged.tags[0].harvested_j *= 1.0 + 1e-12;
  EXPECT_TRUE(pin_mismatches(nudged, pin).empty());
  nudged.tags[0].harvested_j *= 1.0 + 1e-6;
  EXPECT_FALSE(pin_mismatches(nudged, pin).empty());
}

}  // namespace
}  // namespace netbench
