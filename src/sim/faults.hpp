// Deterministic fault injection for the network/fleet engine: the
// breakage half of the "simulate a day of a million-tag deployment and
// tell me where it breaks" north star. Real ambient-backscatter
// deployments run on scavenged infrastructure — gateways lose power,
// the ambient illuminator sags, licensed users key up in-band, and tag
// hardware glitches — so degradation must be a first-class,
// reproducible input, not an afterthought.
//
// The design splits policy from realisation:
//
//   FaultConfig   — the experiment-level dial: a master `intensity` in
//                   [0, 1] scaling generated fault load, per-class
//                   shape knobs (rates at intensity 1, mean durations,
//                   magnitudes), plus an explicit scripted event list
//                   applied to every trial.
//   FaultInjector — construction-time compilation of the config
//                   against one deployment (gateway/tag counts, slot
//                   grid, noise floor).
//   FaultPlan     — the per-trial realisation: dense slot-domain
//                   tables (per-gateway receive attenuation, ambient
//                   carrier scale, burst-interferer envelope) plus
//                   sparse per-tag hardware faults, built by
//                   FaultInjector::plan(trial).
//
// Determinism contract: every generated event derives from
// Rng::substream(sim_seed ^ seed_salt, trial) — a side substream, so
// enabling faults never perturbs the main trial randomness (channel
// draws, noise, MAC backoffs stay bit-identical to a fault-free run),
// and plan(trial) is pure: the same (config, deployment, trial) yields
// the same schedule on any thread at any --jobs.
//
// Intensity coupling: the generator always draws the full
// intensity-1.0 event set and then *thins* it — event e survives iff
// its private uniform draw is below `intensity`. Fault sets are
// therefore nested across intensities (every fault present at 0.1 is
// still present at 0.4 on the same trial), which is what makes
// delivery degrade monotonically with intensity under common random
// numbers instead of bouncing between unrelated fault realisations.
//
// Everything is expressed in the slot domain so the waveform
// synthesizer and the analytic FleetResolver consume the *same*
// schedule: the synthesis path scales/augments sample streams, the
// analytic path scales envelope swings and interference sums by the
// identical per-slot factors, and cross-fidelity agreement survives
// fault injection (tests/sim/cross_fidelity_test.cpp pins it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace fdb::sim {

/// Taxonomy of injectable faults. Slot-granular windows throughout.
enum class FaultClass : std::uint8_t {
  kGatewayOutage,    ///< a gateway's receive stream dies or attenuates
  kCarrierSag,       ///< the ambient illuminator's amplitude droops
  kBurstInterferer,  ///< an in-band tone burst lands at one gateway
  kTagStuck,         ///< a tag's reflection switch jams in one state
  kTagDrift,         ///< a tag's oscillator drifts off nominal (ppm)
};
constexpr std::size_t kNumFaultClasses = 5;

/// One scripted fault event, applied to every trial. `magnitude` is
/// class-specific:
///   kGatewayOutage   residual amplitude gain in [0, 1] (0 = dead)
///   kCarrierSag      residual carrier amplitude scale in [0, 1)
///   kBurstInterferer tone envelope amplitude in units of the receive
///                    noise sigma (>= 0)
///   kTagStuck        stuck switch position: 0 = absorb, 1 = reflect
///   kTagDrift        oscillator offset in ppm (|ppm| <= 1e5)
struct FaultEvent {
  FaultClass kind = FaultClass::kGatewayOutage;
  std::int64_t start_slot = 0;
  std::int64_t duration_slots = 1;
  /// Gateway index (outage / interferer) or tag index (tag faults);
  /// ignored for carrier sag (the illuminator is global).
  std::uint32_t target = 0;
  double magnitude = 0.0;
};

/// Fault-injection policy, carried inside NetworkSimConfig. The
/// defaults describe a plausible unreliable deployment at intensity
/// 1.0; `intensity = 0` with no scripted events disables injection
/// entirely (and is bit-identical to a build without this subsystem).
struct FaultConfig {
  /// Master dial in [0, 1]: the survival probability of each generated
  /// intensity-1.0 event (see the thinning note in the file header).
  double intensity = 0.0;
  /// Salt XORed into the simulation seed for the fault substream, so
  /// fault randomness never collides with trial randomness.
  std::uint64_t seed_salt = 0xfa0175eedULL;

  // --- generated gateway outages (per gateway) -----------------------
  double gateway_outages_per_kslot = 6.0;  ///< events per 1000 slots
  double gateway_outage_mean_slots = 24.0;  ///< exponential mean length
  double gateway_outage_atten = 0.0;  ///< residual amplitude gain [0,1]

  // --- generated ambient-carrier sags (global) -----------------------
  double carrier_sags_per_kslot = 8.0;
  double carrier_sag_mean_slots = 12.0;
  /// Sag scale is drawn uniformly in [floor, 1).
  double carrier_sag_floor = 0.3;

  // --- generated burst interferers (per gateway) ---------------------
  double interferer_bursts_per_kslot = 10.0;
  double interferer_burst_mean_slots = 6.0;
  /// Burst tone envelope amplitude, in units of the per-dimension
  /// receive noise sigma (so the knob is scenario-independent).
  double interferer_env_sigma = 40.0;

  // --- generated per-tag hardware faults (at most one per tag/trial) -
  /// Fraction of tags faulted per trial at intensity 1.0.
  double tag_fault_fraction = 0.15;
  /// Of the faulted tags, this share jams stuck; the rest drift.
  double tag_stuck_share = 0.5;
  /// Drift magnitude is drawn uniformly in (0, max]; sign alternates.
  double tag_drift_max_ppm = 400.0;

  /// Scripted events, applied verbatim to every trial on top of the
  /// generated load (they do not thin with intensity). Overlapping
  /// windows are legal — the plan normalizes them (outage/sag windows
  /// combine by worst-case scale, interferer bursts superpose, the
  /// earliest tag fault wins per tag).
  std::vector<FaultEvent> events;

  /// True when any injection can happen (intensity > 0 or scripted
  /// events exist). The simulator skips every fault code path — and
  /// stays bit-identical to the pre-fault engine — when false.
  bool enabled() const { return intensity > 0.0 || !events.empty(); }

  /// Rejects out-of-range knobs and malformed scripted events
  /// (negative/zero durations, negative start slots, magnitudes outside
  /// the class range, intensity outside [0, 1]). Mirrors
  /// NetworkSimConfig::validate(): throws std::invalid_argument naming
  /// the offending field.
  void validate() const;
};

/// One tag's hardware fault this trial (at most one per tag).
struct TagFault {
  std::uint32_t tag = 0;
  std::int64_t start_slot = 0;
  std::int64_t end_slot = 0;  ///< exclusive
  bool stuck = false;         ///< false = oscillator drift
  std::uint8_t stuck_state = 0;
  double drift_ppm = 0.0;
};

/// The per-trial fault realisation in the slot domain. Dense tables
/// are only materialised when at least one event of that class
/// survived thinning, so a fault-free trial costs three empty vectors.
class FaultPlan {
 public:
  /// True when this trial carries at least one fault of any class.
  bool any() const { return any_; }

  // --- per-slot scale queries (1.0 = healthy) ------------------------
  /// Amplitude gain of gateway g's receive stream in `slot`.
  float gateway_atten(std::size_t g, std::size_t slot) const {
    return gw_atten_.empty() ? 1.0f : gw_atten_[g * slots_ + slot];
  }
  /// Whether gateway g can receive (and notify) at all in `slot`.
  bool gateway_alive(std::size_t g, std::size_t slot) const {
    return gateway_atten(g, slot) > 0.0f;
  }
  /// Ambient carrier amplitude scale in `slot`.
  float carrier_scale(std::size_t slot) const {
    return carrier_scale_.empty() ? 1.0f : carrier_scale_[slot];
  }
  /// Combined backscatter-signal amplitude scale at gateway g: the
  /// carrier sag and the gateway attenuation both multiply every
  /// ambient-derived component of the receive stream.
  float signal_scale(std::size_t g, std::size_t slot) const {
    return gateway_atten(g, slot) * carrier_scale(slot);
  }
  /// Worst-case envelope perturbation of the active burst interferers
  /// at gateway g in `slot` (sum of tone amplitudes, pre-attenuation).
  float interferer_env(std::size_t g, std::size_t slot) const {
    return interf_env_.empty() ? 0.0f : interf_env_[g * slots_ + slot];
  }

  // --- per-frame window reductions (slots [lo, hi)) ------------------
  float min_signal_scale(std::size_t g, std::size_t lo, std::size_t hi) const;
  float max_signal_scale(std::size_t g, std::size_t lo, std::size_t hi) const;
  /// Max of interferer_env over the window (pre-attenuation).
  float max_interferer_env(std::size_t g, std::size_t lo,
                           std::size_t hi) const;
  bool window_has_outage(std::size_t g, std::size_t lo, std::size_t hi) const;
  bool window_has_sag(std::size_t lo, std::size_t hi) const;
  bool window_has_interference(std::size_t g, std::size_t lo,
                               std::size_t hi) const;

  // --- waveform-path injection ---------------------------------------
  /// Adds every burst-interferer tone active at (g, slot) into `acc`
  /// (slot_samples samples whose first sample has absolute in-trial
  /// index slot * slot_samples). Tone phase is keyed to the absolute
  /// sample index, so any chunking/escalation order reproduces the
  /// same samples.
  void add_interferers(std::size_t g, std::size_t slot,
                       std::span<cf32> acc) const;

  // --- per-tag hardware faults ---------------------------------------
  /// The tag's fault this trial, or nullptr. Pointer valid while the
  /// plan lives.
  const TagFault* tag_fault(std::uint32_t tag) const;
  /// Whether `tag` is stuck during any slot of [lo, hi).
  bool stuck_in_window(std::uint32_t tag, std::int64_t lo,
                       std::int64_t hi) const;
  /// Accumulated clock-skew of a drifting tag at `frame_start_slot`,
  /// in samples (0 when healthy or stuck): |ppm| * 1e-6 * elapsed
  /// samples since the fault began, the constant start-phase error the
  /// receiver's sync search absorbs until the frame overruns its
  /// decode window. Sign is folded into the magnitude (a late or an
  /// early clock both shift the burst inside its slot window).
  std::size_t drift_shift_samples(std::uint32_t tag,
                                  std::int64_t frame_start_slot) const;

  std::size_t slots() const { return slots_; }

 private:
  friend class FaultInjector;

  struct Tone {
    std::uint32_t gateway = 0;
    std::int64_t start_slot = 0;
    std::int64_t end_slot = 0;
    double amp = 0.0;    ///< envelope amplitude (absolute units)
    double omega = 0.0;  ///< angular frequency, rad/sample
    double phase = 0.0;
  };

  bool any_ = false;
  std::size_t slots_ = 0;
  std::size_t slot_samples_ = 0;
  std::vector<float> gw_atten_;       ///< [g * slots + slot], empty = 1
  std::vector<float> carrier_scale_;  ///< [slot], empty = 1
  std::vector<float> interf_env_;     ///< [g * slots + slot], empty = 0
  std::vector<Tone> tones_;
  std::vector<TagFault> tag_faults_;  ///< sorted by tag, at most one each
};

/// Compiles a FaultConfig against one deployment and realises per-trial
/// FaultPlans. Immutable after construction; plan() is const and
/// thread-safe (the trial-purity contract of NetworkSimulator extends
/// through it).
class FaultInjector {
 public:
  /// Disabled injector: enabled() is false, plan() returns empty plans.
  FaultInjector() = default;

  /// `noise_sigma` is the per-dimension receive noise standard
  /// deviation (converts interferer_env_sigma to absolute amplitude);
  /// `samples_per_chip` anchors burst-tone frequencies inside the
  /// envelope band the slicer actually sees.
  FaultInjector(const FaultConfig& config, std::uint64_t sim_seed,
                std::size_t n_gateways, std::size_t n_tags,
                std::size_t slots_per_trial, std::size_t slot_samples,
                std::size_t samples_per_chip, double noise_sigma);

  bool enabled() const { return enabled_; }

  /// Builds the trial's fault realisation. Pure in (this, trial).
  FaultPlan plan(std::uint64_t trial) const;

 private:
  FaultConfig config_;
  std::uint64_t sim_seed_ = 0;
  std::size_t n_gateways_ = 0;
  std::size_t n_tags_ = 0;
  std::size_t slots_ = 0;
  std::size_t slot_samples_ = 0;
  std::size_t samples_per_chip_ = 1;
  double noise_sigma_ = 0.0;
  bool enabled_ = false;
};

}  // namespace fdb::sim
