// GatewayFailover alone: the dead-gateway failover of one trial, driven
// by hand-fed frame outcomes over a fixed three-gateway link table.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "sim/network_sim.hpp"

namespace fdb::sim {
namespace {

NetworkSimConfig failover_config() {
  NetworkSimConfig config;
  config.combining = GatewayCombining::kBestGateway;
  config.failover_streak_frames = 2;
  config.failover_holdoff_slots = 64;
  config.failover_max_exponent = 4;
  return config;
}

// One tag whose links to gateways 0, 1, 2 have magnitudes 3 > 2 > 1.
const std::vector<std::size_t> kServing{0};
const std::vector<cf32> kLinks{{3.0f, 0.0f}, {0.0f, 2.0f}, {1.0f, 0.0f}};

TEST(GatewayFailover, BlacklistsThenReselectsTheBestFreeGateway) {
  const NetworkSimConfig config = failover_config();
  GatewayFailover fo(config, 0, kServing, kLinks);
  NetworkCounters res;
  EXPECT_TRUE(fo.listens(0, 0));
  EXPECT_FALSE(fo.listens(0, 1));

  fo.note(0, false, 5, 10, res);
  EXPECT_EQ(fo.serving(0), 0u);  // one failure is below the streak
  fo.note(0, false, 11, 20, res);
  EXPECT_EQ(fo.serving(0), 1u);
  EXPECT_TRUE(fo.listens(0, 1));
  EXPECT_EQ(res.failovers, 1u);
  EXPECT_EQ(res.time_to_failover_slots.mean(), 16.0);  // slots 5..20
  // First switch: holdoff of base 64 plus jitter in [0, 64).
  const std::uint64_t g0_free = fo.blacklisted_until(0, 0);
  EXPECT_GE(g0_free, 21u + 64u);
  EXPECT_LT(g0_free, 21u + 128u);

  // Gateway 1 fails too while 0 is still held off: only 2 is free.
  fo.note(0, false, 25, 30, res);
  fo.note(0, false, 35, 40, res);
  EXPECT_EQ(fo.serving(0), 2u);
  EXPECT_GE(fo.blacklisted_until(0, 1), 41u + 128u);  // second switch

  // Once gateway 0's holdoff has run out it is the strongest free link.
  fo.note(0, false, g0_free - 4, g0_free - 1, res);
  fo.note(0, false, g0_free, g0_free, res);
  EXPECT_EQ(fo.serving(0), 0u);
  EXPECT_EQ(res.failovers, 3u);
}

TEST(GatewayFailover, DeliveryResetsTheStreakAndTheSwitchCount) {
  const NetworkSimConfig config = failover_config();
  GatewayFailover fo(config, 3, kServing, kLinks);
  NetworkCounters res;

  fo.note(0, false, 5, 10, res);
  fo.note(0, true, 11, 12, res);
  fo.note(0, false, 13, 14, res);
  EXPECT_EQ(fo.serving(0), 0u);  // the delivery broke the streak
  EXPECT_EQ(res.failovers, 0u);

  fo.note(0, false, 15, 16, res);  // streak of two: 0 -> 1
  fo.note(0, false, 17, 18, res);
  fo.note(0, false, 19, 20, res);  // 1 -> 2
  ASSERT_EQ(fo.serving(0), 2u);
  ASSERT_EQ(res.failovers, 2u);

  // After a delivery the next holdoff starts from the base again: two
  // prior switches would have pushed it to at least 4 x 64 slots.
  fo.note(0, true, 21, 22, res);
  fo.note(0, false, 23, 24, res);
  fo.note(0, false, 25, 26, res);
  EXPECT_LT(fo.blacklisted_until(0, 2), 27u + 128u);
  EXPECT_GE(fo.blacklisted_until(0, 2), 27u + 64u);
}

TEST(GatewayFailover, AnyGatewayCombiningListensEverywhereAndNeverSwitches) {
  NetworkSimConfig config = failover_config();
  config.combining = GatewayCombining::kAnyGateway;
  config.failover_streak_frames = 0;
  GatewayFailover fo(config, 0, kServing, kLinks);
  NetworkCounters res;
  for (std::uint64_t s = 0; s < 8; ++s) fo.note(0, false, s, s, res);
  EXPECT_EQ(fo.serving(0), 0u);
  EXPECT_EQ(res.failovers, 0u);
  for (std::size_t g = 0; g < 3; ++g) EXPECT_TRUE(fo.listens(0, g));
}

}  // namespace
}  // namespace fdb::sim
