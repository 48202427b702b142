#include "workloads.hpp"

#include "sim/scenarios.hpp"

namespace netbench {

using fdb::sim::FidelityMode;
using fdb::sim::NetworkSimConfig;

namespace {

NetworkSimConfig phy_waveform_2gw(std::uint64_t seed) {
  auto config = fdb::sim::make_scenario("multi-gateway-dense", 8, seed).config;
  config.mac_kind = fdb::mac::MacKind::kTimeout;
  config.fleet.fidelity = FidelityMode::kWaveform;
  config.slots_per_trial = 256;
  return config;
}

NetworkSimConfig fleet_hybrid_1k(std::uint64_t seed) {
  auto config = fdb::sim::make_scenario("warehouse-10k", 1000, seed).config;
  config.fleet.fidelity = FidelityMode::kHybrid;
  config.slots_per_trial = 192;
  return config;
}

NetworkSimConfig fleet_analytic_10k(std::uint64_t seed) {
  auto config = fdb::sim::make_scenario("warehouse-10k", 10000, seed).config;
  config.fleet.fidelity = FidelityMode::kAnalytic;
  config.slots_per_trial = 4096;
  // Wide enough that the 10k-tag hall delivers about a third of its
  // frames instead of timing a collision storm.
  config.backoff_min_slots = 32768;
  return config;
}

NetworkSimConfig mesh_relay_faults(std::uint64_t seed) {
  auto config = fdb::sim::make_scenario("warehouse-mesh", 96, seed).config;
  config.faults.intensity = 0.1;
  return config;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"phy-waveform-2gw", 1, 64, &phy_waveform_2gw,
       {0xdd967cceceef5c14ULL,
        {0, 0, 16.6499818643453, 1.4394892957522556, 0, 0, 0, 0, 0, 0}}},
      {"fleet-hybrid-1k", 1, 64, &fleet_hybrid_1k,
       {0x5c40d4a0cbdf3109ULL,
        {0, 0, 3.3223379629629628, 0.47913014165004608, 0.51279115458887103,
         0.0064951550719534647, 0, 0, 0, 0}}},
      {"fleet-analytic-10k", 1, 256, &fleet_analytic_10k,
       {0x4b98eac3e1d434e3ULL,
        {0, 0, 3.3361884915162467, 0.46265412212329388, 0, 0, 0, 0, 0, 0}}},
      {"mesh-relay-faults", 1, 64, &mesh_relay_faults,
       {0xe946671ba25278efULL,
        {0, 0, 3.9959982214317473, 0.0048772170786858223, 0.36446790221332481,
         7.1781708886329312e-05, 0, 0, 2, 0}}},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace netbench
