// Layer replay: drives each PHY layer's public function on inputs shaped
// like one workload and times it alone. A unit cost times the workload's
// own count of that unit estimates the layer's share of a trial; the
// driver sets the estimates beside the measured TrialStageTimes split
// and reports what they leave unexplained.
//
// Shapes taken from the workload: slot_samples() per gateway-slot, the
// gateway count, the mean number of reflecting tags per busy slot, and
// the decode window of burst plus sync tail (payload_bytes included).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/network_sim.hpp"
#include "trace.hpp"

namespace netbench {

struct ReplayShape {
  std::size_t slot_samples = 0;
  std::size_t gateways = 0;
  double mean_reflecting = 1.0;  ///< tags on air per busy slot
  std::size_t window_samples = 0;  ///< burst + tail: one decode window
  /// Samples an escalated decode synthesizes: whole slots from one
  /// warm-up slot before the burst to the end of the tail.
  std::size_t escalation_samples = 0;
};

ReplayShape replay_shape(const fdb::sim::NetworkSimulator& sim,
                         double mean_reflecting);

struct UnitCosts {
  double ambient_ns_per_sample = 0.0;    ///< channel/ambient_source
  double synthesis_ns_per_sample = 0.0;  ///< sim/synthesis slot kernel
  double awgn_ns_per_sample = 0.0;       ///< channel/impairments, rng incl.
  double rng_ns_per_cn = 0.0;            ///< util/rng complex normal
  double envelope_ns_per_sample = 0.0;   ///< dsp/envelope RC front end
  double correlator_ns_per_sample = 0.0; ///< dsp/correlator, per window sample
  double modem_frame_us = 0.0;     ///< BackscatterRx::demodulate_frame
  double modem_frame_at_us = 0.0;  ///< BackscatterRx::demodulate_frame_at
  double fd_modem_us = 0.0;        ///< FdDataReceiver::demodulate
  bool modem_decoded = false;      ///< the replayed frames decode
  bool fd_decoded = false;

  double sync_us() const { return modem_frame_us - modem_frame_at_us; }
};

/// Times every layer on `shape`. Appends one "replay.<layer>" span per
/// layer under a "replay" root span to `spans`.
UnitCosts replay_layers(const fdb::sim::NetworkSimConfig& config,
                        const ReplayShape& shape, std::vector<Span>& spans);

}  // namespace netbench
