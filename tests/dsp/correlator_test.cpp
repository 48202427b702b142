#include "dsp/correlator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "phy/preamble.hpp"
#include "util/rng.hpp"

namespace fdb::dsp {
namespace {

std::vector<float> stretch(const std::vector<float>& pattern,
                           std::size_t spc, float high, float low) {
  std::vector<float> out;
  for (const float chip : pattern) {
    for (std::size_t s = 0; s < spc; ++s) {
      out.push_back(chip > 0 ? high : low);
    }
  }
  return out;
}

TEST(SlidingCorrelator, PeaksAtAlignedPattern) {
  const auto pattern = phy::chips_to_pattern(phy::barker13_chips());
  const std::size_t spc = 4;
  SlidingCorrelator corr(pattern, spc);

  // Noise-free: pattern embedded after some offset.
  std::vector<float> signal(40, 0.5f);
  const auto burst = stretch(pattern, spc, 1.0f, 0.0f);
  signal.insert(signal.end(), burst.begin(), burst.end());
  signal.insert(signal.end(), 40, 0.5f);

  float best = -2.0f;
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < signal.size(); ++i) {
    const float c = corr.process(signal[i]);
    if (c > best) {
      best = c;
      best_idx = i;
    }
  }
  EXPECT_GT(best, 0.99f);
  // Peak at the last sample of the embedded pattern.
  EXPECT_EQ(best_idx, 40 + burst.size() - 1);
}

TEST(SlidingCorrelator, InvariantToDcOffset) {
  const auto pattern = phy::chips_to_pattern(phy::barker11_chips());
  SlidingCorrelator corr_lo(pattern, 2), corr_hi(pattern, 2);
  const auto burst_lo = stretch(pattern, 2, 1.0f, 0.0f);
  const auto burst_hi = stretch(pattern, 2, 101.0f, 100.0f);
  float peak_lo = -2.0f, peak_hi = -2.0f;
  for (std::size_t i = 0; i < burst_lo.size(); ++i) {
    peak_lo = std::max(peak_lo, corr_lo.process(burst_lo[i]));
    peak_hi = std::max(peak_hi, corr_hi.process(burst_hi[i]));
  }
  EXPECT_NEAR(peak_lo, peak_hi, 1e-4f);
}

TEST(SlidingCorrelator, LowOnRandomNoise) {
  const auto pattern = phy::chips_to_pattern(phy::barker13_chips());
  SlidingCorrelator corr(pattern, 4);
  Rng rng(5);
  float peak = -2.0f;
  for (int i = 0; i < 5000; ++i) {
    peak = std::max(peak, corr.process(static_cast<float>(rng.uniform())));
  }
  EXPECT_LT(peak, 0.6f);
}

TEST(SlidingCorrelator, NotWarmedUpReturnsZero) {
  SlidingCorrelator corr({1.0f, -1.0f}, 4);
  EXPECT_FLOAT_EQ(corr.process(1.0f), 0.0f);
  EXPECT_FALSE(corr.warmed_up());
}

TEST(SlidingCorrelator, ExactFillSampleProducesCorrelation) {
  // The sample that completes the window must yield a real correlation,
  // not a second warm-up zero: with pattern {+1,-1} at 2 samples/chip
  // (window 4), the aligned input {1,1,0,0} correlates to exactly 1.0
  // on the fourth sample.
  SlidingCorrelator corr({1.0f, -1.0f}, 2);
  EXPECT_FLOAT_EQ(corr.process(1.0f), 0.0f);
  EXPECT_FLOAT_EQ(corr.process(1.0f), 0.0f);
  EXPECT_FLOAT_EQ(corr.process(0.0f), 0.0f);
  EXPECT_FALSE(corr.warmed_up());
  EXPECT_NEAR(corr.process(0.0f), 1.0f, 1e-6f);
  EXPECT_TRUE(corr.warmed_up());
}

TEST(SlidingCorrelator, BatchMatchesScalarAcrossSeams) {
  // The batch kernel must be seamless across calls: correlate a signal
  // split at awkward boundaries and compare to one whole-capture call.
  const auto pattern = phy::chips_to_pattern(phy::barker13_chips());
  SlidingCorrelator whole(pattern, 3), split(pattern, 3);
  Rng rng(17);
  std::vector<float> signal(2000);
  for (auto& s : signal) s = static_cast<float>(rng.uniform());
  std::vector<float> ref(signal.size()), out(signal.size());
  whole.process(signal, ref);
  const std::size_t cuts[] = {1, 38, 39, 500, 1};
  std::size_t pos = 0, c = 0;
  while (pos < signal.size()) {
    const std::size_t n = std::min(cuts[c % 5], signal.size() - pos);
    split.process(std::span<const float>(signal.data() + pos, n),
                  std::span<float>(out.data() + pos, n));
    pos += n;
    ++c;
  }
  for (std::size_t i = 0; i < signal.size(); ++i) {
    ASSERT_EQ(ref[i], out[i]) << "seam divergence at " << i;
  }
}

TEST(SlidingCorrelator, ResetRestartsWarmup) {
  const auto pattern = phy::chips_to_pattern(phy::barker11_chips());
  SlidingCorrelator corr(pattern, 2);
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    corr.process(static_cast<float>(rng.uniform()));
  }
  EXPECT_TRUE(corr.warmed_up());
  corr.reset();
  EXPECT_FALSE(corr.warmed_up());
  EXPECT_FLOAT_EQ(corr.process(0.7f), 0.0f);
}

TEST(SlidingCorrelator, RejectsBadConstruction) {
  // Rejected in every build: an empty pattern or a zero stretch would
  // leave a zero-length window (window_len_ - 1 wraps), and a chip other
  // than ±1 breaks the chip-box kernel's two-tap pattern.
  EXPECT_THROW(SlidingCorrelator({}, 4), std::invalid_argument);
  EXPECT_THROW(SlidingCorrelator({1.0f, -1.0f}, 0), std::invalid_argument);
  EXPECT_THROW(SlidingCorrelator({1.0f, 0.5f}, 4), std::invalid_argument);
  EXPECT_THROW(SlidingCorrelator({1.0f, std::nanf("")}, 4),
               std::invalid_argument);
  EXPECT_THROW(SlidingCorrelator({1.0f, -1.0f}, std::size_t{1} << 28),
               std::invalid_argument);
  EXPECT_NO_THROW(SlidingCorrelator({1.0f}, 1));
}

TEST(SlidingCorrelator, RejectsMismatchedSpans) {
  SlidingCorrelator corr(phy::chips_to_pattern(phy::barker13_chips()), 4);
  std::vector<float> in(100, 1.0f), out(99);
  EXPECT_THROW(corr.process(in, out), std::invalid_argument);
  EXPECT_THROW(corr.process_scalar(in, out), std::invalid_argument);
  EXPECT_THROW(detail::correlator_process_exact_only(corr, in, out),
               std::invalid_argument);
  out.resize(101);
  EXPECT_THROW(corr.process(in, out), std::invalid_argument);
  // Nothing was consumed by the rejected calls.
  EXPECT_EQ(out, std::vector<float>(101, 0.0f));
  EXPECT_FALSE(corr.warmed_up());
}

TEST(SlidingCorrelator, CountsExactRecomputes) {
  // The exact-only hook recomputes every live output and counts each;
  // the scalar reference never does.
  const auto pattern = phy::chips_to_pattern(phy::barker13_chips());
  SlidingCorrelator corr(pattern, 4);
  Rng rng(3);
  std::vector<float> in(1000), out(in.size());
  for (auto& x : in) x = static_cast<float>(rng.uniform());
  corr.process_scalar(in, out);
  EXPECT_EQ(corr.exact_recomputes(), 0u);
  detail::correlator_process_exact_only(corr, in, out);
  if (correlator_kernel_target() != SimdTarget::kScalar) {
    EXPECT_EQ(corr.exact_recomputes(), in.size());
  }
}

TEST(PeakDetector, ReportsPeakAfterLockout) {
  PeakDetector det(0.5f, 3);
  EXPECT_FALSE(det.process(0.2f).has_value());
  EXPECT_FALSE(det.process(0.7f).has_value());  // starts tracking at idx 1
  EXPECT_FALSE(det.process(0.9f).has_value());  // new best at idx 2
  EXPECT_FALSE(det.process(0.6f).has_value());
  EXPECT_FALSE(det.process(0.4f).has_value());
  const auto peak = det.process(0.3f);  // 3 samples past best -> report
  ASSERT_TRUE(peak.has_value());
  EXPECT_EQ(*peak, 2u);
}

TEST(PeakDetector, IgnoresSubThreshold) {
  PeakDetector det(0.8f, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(det.process(0.5f).has_value());
  }
}

TEST(PeakDetector, ResetsForNextPeak) {
  PeakDetector det(0.5f, 2);
  det.process(0.9f);
  det.process(0.1f);
  auto first = det.process(0.1f);
  ASSERT_TRUE(first.has_value());
  // A later, separate peak is also found.
  det.process(0.95f);
  det.process(0.1f);
  const auto second = det.process(0.1f);
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(*second, *first);
}

}  // namespace
}  // namespace fdb::dsp
