// Output checks for the simulated results.
//
//  * A digest of every integer counter of a NetworkSimSummary (per-tag
//    and per-gateway counters included). At a workload's default seed
//    the first round's digest is pinned; counters are sums, so the
//    digest does not depend on the job count or the merge order.
//  * The floating moments (energy sums, RunningStats mean and variance)
//    compared within a relative tolerance, so a merge-order change that
//    moves the last bits is not flagged.
//  * Invariants that hold at any seed: delivered <= attempted,
//    wasted <= slots, the relay conservation bounds, and a synthesized
//    fraction of exactly 1 in kWaveform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/network_sim.hpp"

namespace netbench {

/// What a result must be consistent with.
struct ResultShape {
  std::size_t slots_per_trial = 0;
  std::size_t num_gateways = 0;
  bool waveform = false;  ///< kWaveform: every gateway-slot synthesized
};

ResultShape shape_of(const fdb::sim::NetworkSimulator& sim);

/// FNV-1a over every integer counter, in a fixed field order.
std::uint64_t counter_digest(const fdb::sim::NetworkSimSummary& s);
std::uint64_t counter_digest(const fdb::sim::NetworkTrialResult& r);

/// Floating moments in a fixed order (see moment_names()).
std::vector<double> moments(const fdb::sim::NetworkSimSummary& s);
const std::vector<const char*>& moment_names();

/// Names of the moments that differ by more than `rel_tol` relative.
std::vector<std::string> moment_mismatches(const std::vector<double>& got,
                                           const std::vector<double>& want,
                                           double rel_tol = 1e-9);

/// Invariant violations of a merged summary of `trials` trials; empty
/// when consistent.
std::vector<std::string> violations(const fdb::sim::NetworkSimSummary& s,
                                    const ResultShape& shape,
                                    std::uint64_t trials);

/// Invariant violations of one trial.
std::vector<std::string> violations(const fdb::sim::NetworkTrialResult& r,
                                    const ResultShape& shape);

/// A pinned reference: counter digest plus moments of one trial set.
struct Pin {
  std::uint64_t digest = 0;
  std::vector<double> moments;
};

/// Mismatches of a summary against its pin (digest first, then moments).
std::vector<std::string> pin_mismatches(const fdb::sim::NetworkSimSummary& s,
                                        const Pin& pin);

}  // namespace netbench
