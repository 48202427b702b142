// The benchmark's named network workloads. Each is a public scenario
// from sim/scenarios.hpp with a few fields set, built from the run's
// seed (which keys make_scenario and therefore config.seed: all trial
// randomness). Geometry is closed-form, so the seed changes only the
// draws, never the deployment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "check.hpp"
#include "sim/network_sim.hpp"

namespace netbench {

struct Workload {
  const char* name;  ///< why each workload exists: BENCHMARK.json
  std::uint64_t default_seed;
  /// Trials per round: a fixed set, a multiple of the runner's 16-trial
  /// chunk so the round splits into whole chunks.
  std::size_t trials_per_round;
  fdb::sim::NetworkSimConfig (*make_config)(std::uint64_t seed);
  /// Counter digest and moments of round 0 (trials [0, trials_per_round))
  /// at default_seed.
  Pin pin;
};

const std::vector<Workload>& workloads();

/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

}  // namespace netbench
