// Sample-level Monte-Carlo simulator of one full-duplex backscatter
// link. This is the substitute for the paper's SDR testbed: every PHY
// mechanism under study (envelope detection, adaptive slicing, FM0
// balance, self-interference normalisation, rate-separated feedback)
// runs on the same sample streams it would see from hardware.
//
// Signal model (first-order reflections; higher-order terms are ~60 dB
// down at these geometries and are deliberately truncated):
//
//   inc_A[n] = h_SA * s[n]                      ambient field at A
//   inc_B[n] = h_SB * s[n]
//   y_A[n] = inc_A[n] + h_AB * Γ_B[n] * inc_B[n]
//                     + c_self * Γ_A[n] * inc_A[n] + w_A[n]
//   y_B[n] = inc_B[n] + h_AB * Γ_A[n] * inc_A[n]
//                     + c_self * Γ_B[n] * inc_B[n] + w_B[n]
//
// A is the data transmitter (drives Γ_A with the frame), B the data
// receiver that concurrently drives Γ_B with feedback. Both devices
// envelope-detect their antenna signal and run the core decoders.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "channel/backscatter.hpp"
#include "channel/impairments.hpp"
#include "channel/multipath.hpp"
#include "channel/pathloss.hpp"
#include "core/fd_modem.hpp"
#include "energy/harvester.hpp"
#include "sim/synthesis.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fdb::sim {

struct LinkSimConfig {
  core::FdModemConfig modem = core::FdModemConfig::make();

  // Geometry (metres) and power.
  double ambient_to_a_m = 5.0;
  double ambient_to_b_m = 5.0;
  double a_to_b_m = 1.0;
  double tx_power_w = 1.0;  // ambient transmitter EIRP
  channel::LogDistanceModel pathloss{.reference_distance_m = 1.0,
                                     .reference_loss_db = 30.0,
                                     .exponent = 2.2,
                                     .shadowing_sigma_db = 0.0};

  // Impairments.
  double noise_figure_db = 6.0;
  double noise_power_override_w = -1.0;  // >=0 replaces thermal estimate
  double cfo_hz = 0.0;
  double self_coupling = 0.3;  // own reflection into own receiver (field)

  /// Frequency-selective ambient path: when enabled, independent
  /// tapped-delay-line channels (redrawn per frame) carry the carrier to
  /// each device instead of a flat gain.
  bool multipath = false;
  channel::MultipathProfile multipath_profile{};

  /// Optional co-channel interferer: a third backscatter device at this
  /// distance from both A and B, toggling its reflector randomly.
  /// 0 disables it. Its reflections of the same ambient carrier land in
  /// both receivers — the regenerated-interference problem unique to
  /// backscatter networks.
  double interferer_distance_m = 0.0;
  std::size_t interferer_dwell_samples = 64;  // mean toggle interval

  // Arms.
  std::string carrier = "cw";        // "cw" | "ofdm_tv"
  std::string fading = "static";     // "static" | "rayleigh" | "rician"
  double reflection_rho = 0.4;       // fraction of power reflected
  bool feedback_active = true;       // B transmits while receiving
  double envelope_cutoff_mult = 4.0;  // RC cutoff as multiple of chip rate

  std::uint64_t seed = 1;

  double noise_power_w() const;
};

/// Outcome of one frame-sized Monte-Carlo trial.
struct TrialResult {
  bool sync_ok = false;
  std::size_t data_bits = 0;
  std::size_t data_bit_errors = 0;
  std::size_t feedback_bits = 0;
  std::size_t feedback_bit_errors = 0;
  std::vector<bool> block_ok;       // per-block CRC verdicts at B
  double harvested_j = 0.0;         // energy harvested at B this frame
  double incident_power_w = 0.0;    // mean RF power at B (diagnostics)
  std::size_t sync_sample = 0;      // where B locked (diagnostics)
  float sync_corr = 0.0f;
  /// Ground truth only a simulator can know: whether the lock landed at
  /// the true frame timing (within one chip). False syncs are counted
  /// separately so acquisition failures and bit decisions can be
  /// reported as the distinct phenomena they are.
  bool sync_correct = false;
};

/// Aggregate over many trials. Mergeable so a parallel runner can
/// combine per-worker partial summaries (see sim/runner.hpp).
struct LinkSimSummary {
  ErrorRateCounter data;
  /// Bit errors conditioned on correct acquisition — the quantity the
  /// closed-form BER models predict.
  ErrorRateCounter data_aligned;
  ErrorRateCounter feedback;
  std::uint64_t sync_failures = 0;
  std::uint64_t false_syncs = 0;
  std::uint64_t trials = 0;
  RunningStats harvested_per_frame_j;

  /// Folds one trial outcome into the aggregate.
  void add(const TrialResult& trial);

  /// Combines with another summary. Counters add exactly; the Welford
  /// moments merge stably, and the result is independent of how trials
  /// were grouped as long as the merge order is fixed.
  void merge(const LinkSimSummary& other);
  bool operator==(const LinkSimSummary&) const = default;

  double data_ber() const { return data.rate(); }
  double aligned_data_ber() const { return data_aligned.rate(); }
  double feedback_ber() const { return feedback.rate(); }
  double sync_failure_rate() const {
    return trials ? static_cast<double>(sync_failures) /
                        static_cast<double>(trials)
                  : 0.0;
  }
};

class LinkSimulator {
 public:
  /// Throws std::invalid_argument when !config.modem.consistent().
  explicit LinkSimulator(LinkSimConfig config);

  /// Runs one frame exchange with a random payload and random feedback
  /// bits; sync failures count all data bits as errored (the frame is
  /// lost) so BER is honest about acquisition.
  ///
  /// Pure with respect to the simulator: all randomness (payload,
  /// feedback bits, channel draws, noise) derives from
  /// Rng::substream(config.seed, trial_index) inside the call, and no
  /// member state is touched. Trial i therefore produces the same result
  /// no matter which thread runs it or in what order — the contract the
  /// parallel ExperimentRunner (sim/runner.hpp) is built on. Safe to
  /// call concurrently from many threads on one simulator.
  ///
  /// This overload reuses a per-thread SynthArena for the synthesis
  /// scratch, so steady-state trials perform no heap allocation in the
  /// sample-domain hot path.
  TrialResult run_trial(std::uint64_t trial_index) const;

  /// As above with caller-provided synthesis scratch: the arena is
  /// reset on entry and only grows during warm-up. One arena per
  /// concurrent caller — the arena itself is not thread-safe.
  TrialResult run_trial(std::uint64_t trial_index, SynthArena& arena) const;

  /// Runs trials [0, n) serially and aggregates. Equivalent trial-set
  /// to ExperimentRunner::run at any job count.
  LinkSimSummary run(std::size_t n) const;

  /// Per-trial payload size (bytes) — smaller is faster for BER sweeps.
  void set_payload_bytes(std::size_t n) { payload_bytes_ = n; }
  std::size_t payload_bytes() const { return payload_bytes_; }

  const LinkSimConfig& config() const { return config_; }

 private:
  LinkSimConfig config_;
  std::size_t payload_bytes_ = 16;
  core::FdDataTransmitter tx_;
  core::FdDataReceiver rx_;
  core::FdFeedbackReceiver fb_rx_;
  core::FeedbackEncoder fb_tx_;
  channel::BackscatterModulator modulator_;
  energy::Harvester harvester_;
  WaveformSynthesizer synth_;
};

}  // namespace fdb::sim
