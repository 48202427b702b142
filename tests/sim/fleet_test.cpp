#include "sim/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "channel/scene.hpp"
#include "core/theory.hpp"
#include "sim/network_sim.hpp"
#include "util/rng.hpp"

namespace fdb::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// -------------------------------------------------------------------
// FleetConfig::validate — every rejection the header promises.
// -------------------------------------------------------------------

FleetConfig hybrid_config() {
  FleetConfig config;
  config.fidelity = FidelityMode::kHybrid;
  return config;
}

TEST(FleetConfigValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(FleetConfig{}.validate());
  EXPECT_NO_THROW(hybrid_config().validate());
}

TEST(FleetConfigValidate, RejectsNegativeOrNonFiniteMargins) {
  for (const double bad : {-1.0, -1e-9, kInf,
                           std::numeric_limits<double>::quiet_NaN()}) {
    auto config = hybrid_config();
    config.deliver_margin_db = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument)
        << "deliver_margin_db=" << bad;

    config = hybrid_config();
    config.fail_margin_db = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument)
        << "fail_margin_db=" << bad;
  }
  // Zero-width band edges are legal (everything non-negative is
  // deliverable, everything non-positive failable).
  auto config = hybrid_config();
  config.deliver_margin_db = 0.0;
  config.fail_margin_db = 0.0;
  EXPECT_NO_THROW(config.validate());
}

TEST(FleetConfigValidate, RejectsNonPositiveCullRadius) {
  for (const double bad : {0.0, -5.0}) {
    auto config = hybrid_config();
    config.cull_radius_m = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument)
        << "cull_radius_m=" << bad;
  }
  // Infinity is the documented "culling off" value, not an error.
  auto config = hybrid_config();
  config.cull_radius_m = kInf;
  EXPECT_NO_THROW(config.validate());
}

TEST(FleetConfigValidate, RejectsNonPositiveGridCell) {
  for (const double bad : {0.0, -1.0}) {
    auto config = hybrid_config();
    config.grid_cell_m = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument)
        << "grid_cell_m=" << bad;
  }
}

TEST(FleetConfigValidate, RejectsInconsistentAnalyticTargetBer) {
  // A target BER of 0.6 has no required SINR (Q never exceeds 0.5), so
  // the clear-fail threshold would sit above clear-deliver — the
  // classifier's one-sided-safety contract is unsatisfiable. Rejected
  // whenever the analytic path actually runs.
  for (const auto mode : {FidelityMode::kHybrid, FidelityMode::kAnalytic}) {
    auto config = hybrid_config();
    config.fidelity = mode;
    config.analytic_target_ber = 0.6;
    EXPECT_THROW(config.validate(), std::invalid_argument)
        << fidelity_name(mode);
    config.analytic_target_ber = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument)
        << fidelity_name(mode);
  }
  // Pure waveform mode never evaluates the threshold...
  FleetConfig config;
  config.fidelity = FidelityMode::kWaveform;
  config.analytic_target_ber = 0.6;
  EXPECT_NO_THROW(config.validate());
  // ...unless frame recording runs the classifier alongside it.
  config.record_frames = true;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(FleetConfigValidate, NetworkSimConfigRunsFleetValidation) {
  // The rejection must reach NetworkSimulator construction, not just
  // direct FleetConfig users.
  NetworkSimConfig config;
  config.tags.push_back({{2.0, 0.0}, 0.4});
  config.fleet.fidelity = FidelityMode::kHybrid;
  config.fleet.cull_radius_m = 0.0;
  EXPECT_THROW(NetworkSimulator{config}, std::invalid_argument);
}

// -------------------------------------------------------------------
// FleetResolver — band classification at hand-computed margins
// (sigma = 0.05, n_avg = 4, target BER 1e-3, default (6, 5) band).
// -------------------------------------------------------------------

FleetResolver default_resolver() {
  return FleetResolver(FleetConfig{}, 0.05, 4);
}

TEST(FleetResolver, RequiredSinrMatchesTarget) {
  EXPECT_NEAR(default_resolver().required_sinr(), 9.54954, 1e-3);
}

TEST(FleetResolver, StrongLinkIsClearDeliver) {
  // delta 0.5 -> SINR 100 -> +10.2 dB, above the +6 dB edge.
  const auto resolver = default_resolver();
  EXPECT_NEAR(resolver.margin_db(0.5, 0.0), 10.2000, 2e-3);
  EXPECT_EQ(resolver.classify(0.5, 0.0), LinkVerdict::kClearDeliver);
}

TEST(FleetResolver, MarginalLinkIsContested) {
  // delta 0.2 -> +2.24 dB: inside (-5, +6) with or without the equal
  // interferer that drags the pessimistic margin to -10 dB.
  const auto resolver = default_resolver();
  EXPECT_NEAR(resolver.margin_db(0.2, 0.0), 2.2416, 2e-3);
  EXPECT_EQ(resolver.classify(0.2, 0.0), LinkVerdict::kContested);
  EXPECT_NEAR(resolver.margin_db(0.2, 0.2), -10.063, 5e-3);
  EXPECT_EQ(resolver.classify(0.2, 0.2), LinkVerdict::kContested);
}

TEST(FleetResolver, InterferenceAloneNeverMakesClearFail) {
  // Clear-fail uses the *optimistic* margin: a strong link buried in
  // interference is contested (synthesis decides capture), never
  // written off analytically.
  const auto resolver = default_resolver();
  EXPECT_LT(resolver.margin_db(0.5, 2.0), -5.0);
  EXPECT_EQ(resolver.classify(0.5, 2.0), LinkVerdict::kContested);
}

TEST(FleetResolver, DeepFadeIsClearFail) {
  // delta 0.01 -> SINR 0.04 -> -23.8 dB, below the -5 dB edge.
  const auto resolver = default_resolver();
  EXPECT_NEAR(resolver.margin_db(0.01, 0.0), -23.78, 2e-2);
  EXPECT_EQ(resolver.classify(0.01, 0.0), LinkVerdict::kClearFail);
  // Zero swing is -inf margin.
  EXPECT_EQ(resolver.classify(0.0, 0.0), LinkVerdict::kClearFail);
}

// The classifier as it was written before the linear clear-fail band:
// three log10 calls, the pessimistic margin, the optimistic margin, and
// the pessimistic margin again for ranking. FleetResolver must agree
// with it on every input.
struct Log10Reference {
  FleetConfig config;
  double sigma;
  std::size_t n_avg;
  double required;

  double margin(double delta, double interf) const {
    if (!(delta > 0.0)) return -kInf;
    return 10.0 * std::log10(
                      core::envelope_sinr(delta, interf, sigma, n_avg) /
                      required);
  }
  LinkVerdict classify(double pess, double opt, double interf) const {
    if (margin(pess, interf) >= config.deliver_margin_db) {
      return LinkVerdict::kClearDeliver;
    }
    if (margin(opt, 0.0) <= -config.fail_margin_db) {
      return LinkVerdict::kClearFail;
    }
    return LinkVerdict::kContested;
  }
};

// Swing whose zero-interference SINR ratio to the target is `ratio`,
// and whose SINR against `interf` is `ratio` for the pessimistic arm.
double swing_for_ratio(const Log10Reference& ref, double ratio,
                       double interf) {
  const double half_i = interf / 2.0;
  const double denom =
      half_i * half_i + ref.sigma * ref.sigma / static_cast<double>(ref.n_avg);
  return 2.0 * std::sqrt(ratio * ref.required * denom);
}

::testing::AssertionResult agrees(const FleetResolver& resolver,
                                  const Log10Reference& ref, double pess,
                                  double opt, double interf) {
  const LinkVerdict want = ref.classify(pess, opt, interf);
  const LinkVerdict got = resolver.classify(pess, opt, interf);
  const double m = resolver.margin_db(pess, interf);
  const LinkVerdict got_m = resolver.classify_margin(m, opt);
  const double want_m = ref.margin(pess, interf);
  const bool same_margin =
      std::isnan(m) ? std::isnan(want_m)
                    : std::bit_cast<std::uint64_t>(m) ==
                          std::bit_cast<std::uint64_t>(want_m);
  if (got == want && got_m == want && same_margin) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "fail " << ref.config.fail_margin_db
         << " deliver " << ref.config.deliver_margin_db << " sigma "
         << ref.sigma << " pess " << pess << " opt " << opt << " interf "
         << interf << ": verdict " << static_cast<int>(got) << "/"
         << static_cast<int>(got_m) << " vs " << static_cast<int>(want);
}

TEST(FleetResolver, ClassifyMatchesLog10Reference) {
  Rng rng(0x10910);
  const auto log_uniform = [&](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.uniform());
  };
  // Margin bands from the defaults to the extremes: F = 0 puts the
  // clear-fail ratio at 1, F = 3000 near the smallest normal threshold
  // the band serves, F = 3200 past it (log10 decides every ratio).
  std::vector<std::pair<double, double>> bands = {
      {5.0, 6.0}, {0.0, 0.0}, {0.5, 3.0}, {7.3, 0.25}, {3000.0, 40.0},
      {3200.0, 6.0}};
  for (int i = 0; i < 24; ++i) {
    bands.push_back({rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)});
  }
  const double sigmas[] = {0.05, 0.013, 0.0};
  std::vector<std::pair<FleetResolver, Log10Reference>> cases;
  for (const auto& [fail, deliver] : bands) {
    for (const double sigma : sigmas) {
      FleetConfig config;
      config.fail_margin_db = fail;
      config.deliver_margin_db = deliver;
      const std::size_t n_avg = 1 + rng.uniform_int(8);
      const FleetResolver resolver(config, sigma, n_avg);
      cases.push_back(
          {resolver, {config, sigma, n_avg, resolver.required_sinr()}});
    }
  }

  // Random (pessimistic swing, optimistic swing, interference) triples
  // at the default band, swings log-uniform across both thresholds.
  {
    const auto& [resolver, ref] = cases.front();
    for (int i = 0; i < 10000000; ++i) {
      const double pess = log_uniform(1e-4, 10.0);
      const double opt = pess * log_uniform(1.0, 4.0);
      const double interf = rng.uniform() < 0.25 ? 0.0 : log_uniform(1e-4, 4.0);
      ASSERT_TRUE(agrees(resolver, ref, pess, opt, interf));
    }
  }

  // Swings within +-4 ulp of each threshold's ratio, every band.
  for (const auto& [resolver, ref] : cases) {
    const double fail_ratio = std::pow(10.0, -ref.config.fail_margin_db / 10.0);
    const double deliver_ratio =
        std::pow(10.0, ref.config.deliver_margin_db / 10.0);
    for (const double interf : {0.0, 0.01, 0.3}) {
      const double opt0 = swing_for_ratio(ref, fail_ratio, 0.0);
      const double pess0 = swing_for_ratio(ref, deliver_ratio, interf);
      double opt = opt0;
      for (int u = 0; u < 4; ++u) opt = std::nextafter(opt, 0.0);
      for (int a = -4; a <= 4; ++a, opt = std::nextafter(opt, kInf)) {
        double pess = pess0;
        for (int u = 0; u < 4; ++u) pess = std::nextafter(pess, 0.0);
        for (int b = -4; b <= 4; ++b, pess = std::nextafter(pess, kInf)) {
          ASSERT_TRUE(agrees(resolver, ref, pess, opt, interf));
          ASSERT_TRUE(agrees(resolver, ref, std::min(pess, opt), opt, interf));
        }
      }
    }
  }

  // Zero, negative, NaN and infinite swings, and infinite interference.
  const double specials[] = {0.0,
                             -0.0,
                             -1.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             kInf,
                             -kInf,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             0.05};
  for (const auto& [resolver, ref] : cases) {
    for (const double pess : specials) {
      for (const double opt : specials) {
        for (const double interf : {0.0, 0.2, kInf}) {
          ASSERT_TRUE(agrees(resolver, ref, pess, opt, interf));
        }
      }
    }
  }
}

// -------------------------------------------------------------------
// CullingGrid — exact agreement with brute force on random point sets.
// -------------------------------------------------------------------

std::vector<std::uint32_t> brute_force_within(
    const std::vector<channel::Vec2>& points, channel::Vec2 center,
    double radius) {
  std::vector<std::uint32_t> hits;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (channel::distance_m(points[i], center) <= radius) {
      hits.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return hits;  // ascending by construction
}

TEST(CullingGrid, MatchesBruteForceOnRandomClouds) {
  Rng rng(0xc0ffee);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.uniform_int(400);
    const double cell = rng.uniform(0.5, 20.0);
    std::vector<channel::Vec2> points(n);
    for (auto& p : points) {
      p = {rng.uniform(-60.0, 60.0), rng.uniform(-40.0, 40.0)};
    }
    const CullingGrid grid(points, cell);
    ASSERT_EQ(grid.num_points(), n);
    for (int q = 0; q < 10; ++q) {
      const channel::Vec2 center{rng.uniform(-80.0, 80.0),
                                 rng.uniform(-60.0, 60.0)};
      const double radius = rng.uniform(0.1, 70.0);
      EXPECT_EQ(grid.within(center, radius),
                brute_force_within(points, center, radius))
          << "round=" << round << " q=" << q << " cell=" << cell
          << " radius=" << radius;
    }
  }
}

TEST(CullingGrid, InfiniteRadiusReturnsEveryPointInOrder) {
  const std::vector<channel::Vec2> points{
      {3.0, 4.0}, {-10.0, 2.0}, {0.0, 0.0}, {55.0, -8.0}};
  const CullingGrid grid(points, 5.0);
  const auto all = grid.within({1000.0, -1000.0}, kInf);
  EXPECT_EQ(all, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(CullingGrid, BoundaryIsInclusive) {
  const std::vector<channel::Vec2> points{{3.0, 4.0}};
  const CullingGrid grid(points, 2.0);
  EXPECT_EQ(grid.within({0.0, 0.0}, 5.0).size(), 1u);
  EXPECT_TRUE(grid.within({0.0, 0.0}, 4.999).empty());
}

TEST(CullingGrid, EmptyPointSet) {
  const CullingGrid grid({}, 4.0);
  EXPECT_EQ(grid.num_points(), 0u);
  EXPECT_TRUE(grid.within({0.0, 0.0}, 100.0).empty());
  EXPECT_TRUE(grid.within({0.0, 0.0}, kInf).empty());
}

TEST(CullingGrid, WithinIntoMatchesWithinAndReusesBuffer) {
  Rng rng(0xfeed);
  std::vector<channel::Vec2> points(250);
  for (auto& p : points) {
    p = {rng.uniform(-60.0, 60.0), rng.uniform(-40.0, 40.0)};
  }
  const CullingGrid grid(points, 4.0);
  // One buffer across queries of wildly different sizes: within_into
  // must clear stale contents and produce exactly within()'s result,
  // including the infinite-radius and no-hit special cases.
  std::vector<std::uint32_t> buf{999, 999, 999};
  for (const double radius : {0.1, 5.0, 30.0, 200.0, kInf}) {
    for (int q = 0; q < 5; ++q) {
      const channel::Vec2 center{rng.uniform(-80.0, 80.0),
                                 rng.uniform(-60.0, 60.0)};
      grid.within_into(center, radius, buf);
      EXPECT_EQ(buf, grid.within(center, radius))
          << "radius=" << radius << " q=" << q;
    }
  }
  grid.within_into({1000.0, 1000.0}, 0.5, buf);
  EXPECT_TRUE(buf.empty());
  const CullingGrid empty_grid({}, 4.0);
  buf.assign(4, 7);
  empty_grid.within_into({0.0, 0.0}, kInf, buf);
  EXPECT_TRUE(buf.empty());
}

TEST(CullingGrid, ResultsIndependentOfCellSize) {
  // The cell size is a tiling knob only: any legal value yields the
  // same hit set.
  Rng rng(7);
  std::vector<channel::Vec2> points(120);
  for (auto& p : points) {
    p = {rng.uniform(0.0, 120.0), rng.uniform(0.0, 50.0)};
  }
  const channel::Vec2 center{40.0, 25.0};
  const auto reference = CullingGrid(points, 6.0).within(center, 30.0);
  EXPECT_FALSE(reference.empty());
  for (const double cell : {0.7, 3.0, 11.0, 200.0}) {
    EXPECT_EQ(CullingGrid(points, cell).within(center, 30.0), reference)
        << "cell=" << cell;
  }
}

}  // namespace
}  // namespace fdb::sim
