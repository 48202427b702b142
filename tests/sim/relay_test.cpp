// Tag-to-tag relaying (sim/relay.hpp + the network engine hooks): the
// BFS hop topology, the config coupling that pins relaying to the
// scheduled MAC, out-of-range delivery through the fabric, per-tag
// stats invariants under forwarding, job-count bit-identity, and
// ETX-driven re-parenting under a scripted gateway outage.
#include "sim/relay.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/faults.hpp"
#include "sim/network_sim.hpp"
#include "sim/runner.hpp"
#include "sim/scenarios.hpp"

namespace fdb::sim {
namespace {

NetworkSimSummary run_with_runner(const NetworkSimulator& sim,
                                  std::size_t trials, std::size_t jobs) {
  const ExperimentRunner runner(jobs);
  return runner.run_chunked<NetworkSimSummary>(
      trials, [&sim](NetworkSimSummary& acc, std::size_t trial) {
        acc.add(sim.run_trial(trial));
      });
}

TEST(RelayConfigValidation, RejectsDegenerateKnobs) {
  RelayConfig config;
  config.enabled = true;
  config.validate();  // defaults are sane

  auto bad = config;
  bad.range_m = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = config;
  bad.range_m = std::numeric_limits<double>::infinity();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = config;
  bad.max_hops = 1;  // one hop is just the direct gateway link
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = config;
  bad.queue_capacity = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = config;
  bad.reparent_fail_streak = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = config;
  bad.min_margin_db = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  // Disabled relaying never rejects: the knobs are inert.
  bad.enabled = false;
  bad.validate();
}

TEST(RelayConfigValidation, RelayingRequiresScheduledMacAndFiniteCull) {
  auto config = make_scenario("corridor-multihop").config;
  (void)NetworkSimulator(config);  // the scenario itself is valid

  auto contention = config;
  contention.mac_kind = mac::MacKind::kCollisionNotify;
  EXPECT_THROW(NetworkSimulator{contention}, std::invalid_argument);

  auto uncullable = config;
  uncullable.fleet.cull_radius_m = std::numeric_limits<double>::infinity();
  EXPECT_THROW(NetworkSimulator{uncullable}, std::invalid_argument);
}

TEST(RelayTopology, CorridorLevelsAndCandidatesAreDeterministic) {
  // corridor-multihop (8 tags): line x = 5, 11, ..., 47 with the cull
  // radius at 30 m and a 14 m hop range — tags 0-4 in range, 5-6 one
  // hop out, 7 two hops out.
  const auto scenario = make_scenario("corridor-multihop", 8, 7);
  const NetworkSimulator sim(scenario.config);
  const RelayTopology& topo = sim.relay_topology();

  for (std::size_t k = 0; k <= 4; ++k) {
    EXPECT_EQ(topo.level(k), 0u) << k;
    EXPECT_TRUE(topo.candidates(k).empty()) << k;
  }
  EXPECT_EQ(topo.level(5), 1u);
  EXPECT_EQ(topo.level(6), 1u);
  EXPECT_EQ(topo.level(7), 2u);

  // Candidates are the previous level's neighbours, nearest first.
  ASSERT_EQ(topo.candidates(5).size(), 2u);
  EXPECT_EQ(topo.candidates(5)[0], 4u);  // 6 m beats 12 m
  EXPECT_EQ(topo.candidates(5)[1], 3u);
  ASSERT_EQ(topo.candidates(6).size(), 1u);
  EXPECT_EQ(topo.candidates(6)[0], 4u);
  ASSERT_EQ(topo.candidates(7).size(), 2u);
  EXPECT_EQ(topo.candidates(7)[0], 6u);  // level-1 neighbours of tag 7
  EXPECT_EQ(topo.candidates(7)[1], 5u);

  // relay_children: exactly the leveled culled tags, ascending.
  ASSERT_EQ(topo.relay_children().size(), 3u);
  EXPECT_EQ(topo.relay_children()[0], 5u);
  EXPECT_EQ(topo.relay_children()[2], 7u);
  EXPECT_EQ(topo.num_links(), 5u);

  // Identical construction twice — the topology is a pure function of
  // the deployment.
  const NetworkSimulator again(scenario.config);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(again.relay_topology().level(k), topo.level(k));
  }
}

TEST(RelayTopology, MaxHopsBoundsTheBfs) {
  auto config = make_scenario("corridor-multihop", 8, 7).config;
  config.relay.max_hops = 2;  // only one relay hop allowed
  const NetworkSimulator sim(config);
  EXPECT_EQ(sim.relay_topology().level(5), 1u);
  EXPECT_FALSE(sim.relay_topology().reachable(7));  // needed level 2
}

TEST(NetworkSimRelay, OutOfRangeTagsDeliverOnlyThroughTheFabric) {
  const auto scenario = make_scenario("corridor-multihop", 8, 7);

  auto off = scenario.config;
  off.relay.enabled = false;
  const NetworkSimulator sim_off(off);
  const auto s_off = sim_off.run(4);
  for (std::size_t k = 0; k < 8; ++k) {
    if (!sim_off.tag_culled(k)) continue;
    EXPECT_GT(s_off.tags[k].frames_attempted, 0u) << k;
    EXPECT_EQ(s_off.tags[k].frames_delivered, 0u) << k;
  }
  EXPECT_EQ(s_off.relayed_delivered, 0u);

  const NetworkSimulator sim_on(scenario.config);
  const auto s_on = sim_on.run(4);
  std::uint64_t culled_delivered = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    if (sim_on.tag_culled(k)) culled_delivered += s_on.tags[k].frames_delivered;
  }
  EXPECT_GT(culled_delivered, 0u);
  EXPECT_GT(s_on.relayed_delivered, 0u);
  EXPECT_GT(s_on.relay_tx_frames, 0u);
  // Every delivered relayed frame took at least 2 and at most
  // max_hops hops.
  ASSERT_GT(s_on.relay_hops.count(), 0u);
  EXPECT_GE(s_on.relay_hops.min(), 2.0);
  EXPECT_LE(s_on.relay_hops.max(),
            static_cast<double>(scenario.config.relay.max_hops));
}

TEST(NetworkSimRelay, StatsStayInternallyConsistentUnderForwarding) {
  const NetworkSimulator sim(make_scenario("corridor-multihop", 8, 7).config);
  const auto s = sim.run(4);
  for (std::size_t k = 0; k < s.tags.size(); ++k) {
    EXPECT_LE(s.tags[k].frames_delivered + s.tags[k].frames_collided,
              s.tags[k].frames_attempted)
        << k;
  }
  // Every forward was popped from a queue, every queue entry came from
  // one received hop, and every relayed delivery rode one forward.
  EXPECT_LE(s.relay_tx_frames, s.relay_rx_frames);
  EXPECT_LE(s.relayed_delivered, s.relay_tx_frames);
  // rx counts per-hop enqueues (a 3-hop frame enqueues twice), and
  // every enqueued entry is eventually forwarded or left in a queue at
  // trial end (a subset of the drop counter).
  EXPECT_LE(s.relayed_delivered, s.relay_rx_frames);
  EXPECT_LE(s.relay_rx_frames, s.relay_tx_frames + s.relay_drops);
}

TEST(NetworkSimRelay, BitIdenticalAcrossJobCounts) {
  const NetworkSimulator sim(make_scenario("corridor-multihop", 8, 7).config);
  const auto j1 = run_with_runner(sim, 6, 1);
  const auto j8 = run_with_runner(sim, 6, 8);
  EXPECT_EQ(j1, j8);
}

TEST(NetworkSimRelay, GatewayOutageDrivesReparenting) {
  // Kill the corridor's only gateway for whole trials: every forward
  // dies at the final hop, the implicit end-to-end NACKs degrade each
  // child's current link ETX, and the streak machinery re-parents —
  // measured by the same failover/time-to-failover stats the gateway
  // machine feeds.
  auto config = make_scenario("corridor-multihop", 8, 7).config;
  config.faults.events.push_back(
      {FaultClass::kGatewayOutage, 0,
       static_cast<std::int64_t>(config.slots_per_trial), 0, 0.0});
  const NetworkSimulator sim(config);
  const auto s = sim.run(4);
  EXPECT_EQ(s.relayed_delivered, 0u);  // the fabric has nowhere to land
  EXPECT_GT(s.failovers, 0u);
  EXPECT_GT(s.time_to_failover_slots.count(), 0u);
  EXPECT_GE(s.time_to_failover_slots.min(), 1.0);
}

TEST(NetworkSimRelay, WarehouseMeshDrainsTheDeadHalf) {
  const auto scenario = make_scenario("warehouse-mesh", 24, 7);
  const NetworkSimulator sim(scenario.config);
  const RelayTopology& topo = sim.relay_topology();
  std::size_t leveled = 0;
  for (std::size_t k = 0; k < 24; ++k) {
    if (topo.reachable(k) && topo.level(k) >= 1) ++leveled;
  }
  EXPECT_GT(leveled, 0u);
  const auto s = sim.run(3);
  EXPECT_GT(s.relayed_delivered, 0u);
  EXPECT_GE(s.relay_hops.min(), 2.0);
}

// ----- RelayFabric alone ---------------------------------------------

RelayConfig fabric_config() {
  RelayConfig config;
  config.enabled = true;
  config.range_m = 12.0;
  config.max_hops = 3;
  config.reparent_fail_streak = 2;
  config.min_margin_db = 3.0;
  return config;
}

QueuedFrame fresh(std::uint32_t k) { return {k, 1, {0xab}}; }

TEST(RelayFabric, ReparentsOntoTheEtxBestCandidateAtTheStreak) {
  // Three in-range parents and one culled child: candidates nearest
  // first are tags 0 (5.10 m), 1 (5.39 m) and 2 (5.83 m).
  const std::vector<channel::Vec2> pos{{0, 0}, {3, 0}, {-2, 0}, {1, 5}};
  const std::vector<std::uint8_t> culled{0, 0, 0, 1};
  const RelayConfig config = fabric_config();
  const RelayTopology topo(pos, culled, config, 4.0);
  ASSERT_EQ(topo.candidates(3).size(), 3u);
  RelayFabric fabric(topo, config, 6);
  NetworkCounters res;
  ASSERT_TRUE(fabric.routes(3));
  ASSERT_EQ(fabric.parent(3), 0u);

  // A collided hop, then one under the margin floor: the second failure
  // reaches the streak and moves the child off tag 0 (ETX 3) onto the
  // first of the untried candidates (ETX 1, ties to the nearer).
  EXPECT_FALSE(fabric.resolve_hop(3, /*clean=*/false, 10.0, fresh(3), 10, res));
  EXPECT_EQ(fabric.parent(3), 0u);
  EXPECT_EQ(res.failovers, 0u);
  EXPECT_FALSE(fabric.resolve_hop(3, /*clean=*/true, 2.0, fresh(3), 14, res));
  EXPECT_EQ(fabric.parent(3), 1u);
  EXPECT_EQ(res.failovers, 1u);
  EXPECT_EQ(res.time_to_failover_slots.mean(), 5.0);  // slots 10..14

  // Tag 1 delivers once and then fails twice: ETX 2 there, 3 on tag 0,
  // 1 on the untried tag 2 — the re-parent picks tag 2, not the next.
  EXPECT_TRUE(fabric.resolve_hop(3, true, 10.0, fresh(3), 20, res));
  EXPECT_EQ(res.relay_rx_frames, 1u);
  EXPECT_EQ(res.useful_slots, 6u);
  EXPECT_FALSE(fabric.resolve_hop(3, false, 10.0, fresh(3), 24, res));
  EXPECT_EQ(fabric.parent(3), 1u);
  EXPECT_FALSE(fabric.resolve_hop(3, false, 10.0, fresh(3), 30, res));
  EXPECT_DOUBLE_EQ(fabric.etx(topo.link_offset(3) + 0), 3.0);
  EXPECT_DOUBLE_EQ(fabric.etx(topo.link_offset(3) + 1), 2.0);
  EXPECT_EQ(fabric.parent(3), 2u);
  EXPECT_EQ(res.failovers, 2u);
  EXPECT_EQ(res.relay_drops, 0u);  // hop failures are not fabric drops
}

TEST(RelayFabric, FullQueueDropsAndChargesTheOriginatorsLink) {
  // A chain gateway-side 0 <- 1 <- 2: tag 1 relays tag 2's frames.
  const std::vector<channel::Vec2> pos{{0, 0}, {0, 10}, {0, 20}};
  const std::vector<std::uint8_t> culled{0, 1, 1};
  RelayConfig config = fabric_config();
  config.queue_capacity = 1;
  const RelayTopology topo(pos, culled, config, 4.0);
  ASSERT_EQ(topo.level(2), 2u);
  RelayFabric fabric(topo, config, 6);
  NetworkCounters res;

  // Tag 1's own frame fills tag 0's queue.
  EXPECT_TRUE(fabric.resolve_hop(1, true, 10.0, fresh(1), 10, res));
  EXPECT_EQ(res.relay_rx_frames, 1u);
  // Tag 1 forwards tag 2's frame: the hop succeeds but the queue is
  // full, so the frame is a fabric drop charged to tag 2's link (2 -> 1)
  // while tag 1's own link keeps a clean record.
  EXPECT_TRUE(fabric.resolve_hop(1, true, 10.0, {2, 2, {0xcd}}, 12, res));
  EXPECT_EQ(res.relay_rx_frames, 1u);
  EXPECT_EQ(res.relay_drops, 1u);
  EXPECT_DOUBLE_EQ(fabric.etx(fabric.link(2)), 2.0);  // 1 charge, 0 ok
  EXPECT_DOUBLE_EQ(fabric.etx(fabric.link(1)), 1.0);  // 2 hops, 2 ok

  // The queued frame pops in order and counts as a relay transmission.
  const auto f = fabric.pop(0, res);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->originator, 1u);
  EXPECT_EQ(res.relay_tx_frames, 1u);
  EXPECT_FALSE(fabric.pop(0, res).has_value());
  EXPECT_EQ(fabric.backlog(), 0u);
}

}  // namespace
}  // namespace fdb::sim
