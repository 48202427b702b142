// Network-scale scenario engine: N backscatter tags contending for one
// or more receive gateways under one ambient illuminator, with the MAC
// driving *which tags reflect when* and the sample-level PHY deciding
// *what actually decodes*. This is the layer that turns the repo from a
// link reproduction into a network simulator:
//
//  * geometry comes from channel::Scene (positions -> per-link gains,
//    with reciprocal pair-keyed shadowing redrawn per trial),
//  * contention timing follows the slotted MAC of mac/collision.hpp
//    (TimeoutMac vs CollisionNotifyMac, binary-exponential backoff),
//    but delivery verdicts are NOT the abstract !collided flag: every
//    completed frame is synthesized as antenna states reflecting the
//    shared ambient carrier, summed at each gateway with the other
//    tags' reflections, envelope-detected through the RC front end and
//    decoded by the batched FdDataReceiver. Collisions therefore
//    corrupt real sample streams, and capture (a strong tag decoding
//    through a weak interferer) emerges instead of being assumed,
//  * receive diversity: `extra_gateways` adds receivers beyond the
//    primary one. Every gateway hears the same per-slot tag
//    reflections through its own Scene link gains, runs its own AWGN +
//    RC + FdDataReceiver chain, and a combining policy decides frame
//    delivery — kAnyGateway (macro-diversity: any decode counts) or
//    kBestGateway (the strongest tag->gateway link this trial is the
//    serving gateway and alone decides). Collision notifications are
//    per-gateway too: each gateway notifies after `notify_delay_slots`
//    plus a distance-scaled term, and a colliding tag aborts on the
//    earliest — i.e. the closest gateway's — notification,
//  * each tag carries a Harvester + Storage + EnergyLedger; when energy
//    gating is enabled a tag may only start a frame it can afford, and
//    browns out mid-frame if harvest cannot cover the switch drive.
//
// The sample-domain physics (carrier -> reflection -> link gain -> AWGN
// -> RC envelope) lives in the shared sim/synthesis.hpp engine; this
// file is the slot-domain orchestration shell over it. All per-trial
// synthesis scratch comes from a SynthArena, so steady-state trials do
// not touch the heap in the synthesis hot path.
//
// One slot = one protocol block-time (= one feedback slot of the rate
// asymmetry). A frame occupies ceil(burst_samples / slot_samples)
// slots. The CollisionNotify MAC aborts a collided tag on notification
// and spends one drain slot per frame waiting for the final block
// verdict; the Timeout MAC always transmits the whole frame and then
// idles through an ACK timeout.
//
// run_trial(i) is pure: all randomness derives from
// Rng::substream(seed, i), so the parallel ExperimentRunner merges
// bit-identical results at any --jobs (same contract as LinkSimulator).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "channel/backscatter.hpp"
#include "channel/fading.hpp"
#include "channel/pathloss.hpp"
#include "channel/scene.hpp"
#include "core/fd_modem.hpp"
#include "energy/harvester.hpp"
#include "energy/ledger.hpp"
#include "energy/storage.hpp"
#include "mac/collision.hpp"
#include "mac/policy.hpp"
#include "sim/faults.hpp"
#include "sim/fleet.hpp"
#include "sim/relay.hpp"
#include "sim/synthesis.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fdb::sim {

/// One tag of the deployment.
struct NetworkTagConfig {
  channel::Vec2 position;
  double reflection_rho = 0.4;  // fraction of incident power reflected
};

/// How multiple gateways turn per-gateway decodes into one delivery
/// verdict.
enum class GatewayCombining {
  kAnyGateway,   ///< macro-diversity: delivered if any gateway decodes
  kBestGateway,  ///< selection: the strongest-link gateway alone decides
};

struct NetworkSimConfig {
  core::FdModemConfig modem = core::FdModemConfig::make();
  std::size_t payload_bytes = 64;  // per-frame payload (8 blocks default)

  // Geometry and power.
  channel::Vec2 ambient_position{0.0, 0.0};
  /// Primary gateway (gateway 0). Kept as a scalar so single-receiver
  /// configs read exactly as before.
  channel::Vec2 receiver_position{5.0, 0.0};
  /// Additional receive gateways (gateway 1..N). Empty = the classic
  /// single-receiver deployment.
  std::vector<channel::Vec2> extra_gateways;
  GatewayCombining combining = GatewayCombining::kAnyGateway;
  std::vector<NetworkTagConfig> tags;
  double tx_power_w = 1.0;  // ambient transmitter EIRP
  channel::LogDistanceModel pathloss{.reference_distance_m = 1.0,
                                     .reference_loss_db = 30.0,
                                     .exponent = 2.2,
                                     .shadowing_sigma_db = 0.0};
  std::uint64_t shadowing_seed = 0x5ce7e5eedULL;

  // Impairments.
  std::string carrier = "cw";     // "cw" | "ofdm_tv"
  std::string fading = "static";  // "static" | "rayleigh" | "rician"
  double noise_figure_db = 6.0;
  double noise_power_override_w = -1.0;  // >=0 replaces thermal estimate
  double envelope_cutoff_mult = 4.0;

  // MAC (slot-domain; slots are block-times). The kind selects a
  // mac::MacPolicy implementation — contention with BEB (kTimeout /
  // kCollisionNotify) or the TSCH-style scheduled slotframe
  // (kScheduled, mac/schedule.hpp).
  mac::MacKind mac_kind = mac::MacKind::kCollisionNotify;
  std::size_t notify_delay_slots = 2;
  /// Distance term of the per-gateway notification latency: gateway g
  /// notifies tag k `notify_delay_slots + round(dist(k, g) * this)`
  /// slots after the overlap begins, and the tag aborts on the earliest
  /// notification. 0 keeps the legacy distance-independent latency.
  double notify_slots_per_m = 0.0;
  std::size_t timeout_slots = 8;
  std::size_t backoff_min_slots = 4;
  std::size_t backoff_max_exponent = 6;
  /// Scheduled MAC only: dedicated cells of the slotframe (0 = one per
  /// tag, the contention-free default) and Orchestra-style shared retry
  /// cells (0 = retries reuse the dedicated cell).
  std::size_t sched_dedicated_cells = 0;
  std::size_t sched_shared_cells = 2;
  std::size_t slots_per_trial = 256;

  // Energy. Gating makes storage a hard constraint: frames need an
  // affordable energy budget up front and abort on mid-frame brownout.
  bool energy_gating = false;
  energy::HarvesterParams harvester{};
  energy::StorageParams storage{};
  energy::PowerProfile power{};

  // Hybrid-fidelity fleet engine: fidelity mode, verdict margin band,
  // spatial culling (sim/fleet.hpp). The default — kWaveform, no
  // culling — reproduces the historical simulator bit-for-bit.
  FleetConfig fleet{};

  // Fault injection (sim/faults.hpp): gateway outages, carrier sags,
  // burst interferers, tag hardware faults — deterministic per trial
  // from a salted side substream. The default (disabled) keeps every
  // trial bit-identical to the fault-free engine.
  FaultConfig faults{};

  // Tag-to-tag relaying (sim/relay.hpp): culled tags reach a gateway in
  // 2-3 hops through scheduled relays. Requires mac_kind == kScheduled
  // and a finite fleet.cull_radius_m (the culled set *is* the
  // out-of-range set relaying exists for). Disabled by default.
  RelayConfig relay{};

  // Dead-gateway failover (kBestGateway only): after this many
  // consecutive failed frames the tag blacklists its serving gateway
  // for a jittered, capped-exponential holdoff
  // (mac::failover_holdoff_slots) and re-selects the best remaining
  // link. 0 (the default) disables failover entirely.
  std::size_t failover_streak_frames = 0;
  std::size_t failover_holdoff_slots = 64;  ///< blacklist holdoff base
  std::size_t failover_max_exponent = 4;    ///< holdoff growth cap

  std::uint64_t seed = 1;

  double noise_power_w() const;
  /// Gateways including the primary: 1 + extra_gateways.size().
  std::size_t num_gateways() const { return 1 + extra_gateways.size(); }

  /// Rejects configurations that used to fail silently (an inconsistent
  /// modem, empty tag set, non-positive transmit power, carrier/fading strings the factories
  /// would quietly map to a default arm, a non-finite or non-positive
  /// envelope_cutoff_mult, a non-finite or negative power.*_w or
  /// storage.* field). Throws std::invalid_argument
  /// with a message naming the offending field.
  void validate() const;
};

/// Per-tag counters; exact integer merges plus double accumulators, so
/// sharded trial runners combine partial summaries deterministically.
struct NetworkTagStats {
  std::uint64_t frames_attempted = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_collided = 0;  // failed & overlapped (incl. aborts)
  std::uint64_t frames_aborted = 0;   // notify-MAC aborts + brownouts
  std::uint64_t payload_bits_delivered = 0;
  std::uint64_t energy_outages = 0;   // gated starts + mid-frame brownouts
  double harvested_j = 0.0;
  double spent_j = 0.0;

  void merge(const NetworkTagStats& other);
  bool operator==(const NetworkTagStats&) const = default;
};

/// One resolved frame attempt, logged when FleetConfig::record_frames
/// is set. In kWaveform mode `delivered` is the fully synthesized
/// verdict while `analytic`/`margin_db` come from the classifier run
/// alongside on identical trial state — the raw material of the
/// cross-fidelity property tests.
struct FrameRecord {
  std::uint32_t tag = 0;
  std::uint64_t start_slot = 0;
  bool overlapped = false;            ///< shared a slot with another tag
  LinkVerdict analytic = LinkVerdict::kContested;  ///< combined verdict
  /// Best per-gateway pessimistic margin over the relevant gateway set.
  double margin_db = 0.0;
  bool delivered = false;
  bool escalated = false;  ///< resolved by escalated synthesis (kHybrid)

  bool operator==(const FrameRecord&) const = default;
};

/// The counters one trial produces and a summary accumulates, declared
/// once: NetworkTrialResult and NetworkSimSummary both inherit them, and
/// merge() is the single place a new counter must be folded in.
struct NetworkCounters {
  std::vector<NetworkTagStats> tags;
  /// Per-gateway decode successes of resolved frames (a frame several
  /// gateways decode counts once per gateway) — the receive-diversity
  /// picture behind the combined delivery numbers.
  std::vector<std::uint64_t> gateway_decodes;
  std::uint64_t slots = 0;
  std::uint64_t busy_slots = 0;    // >=1 tag reflecting
  std::uint64_t useful_slots = 0;  // airtime of delivered frames
  /// Channel-centric waste: busy airtime that never became a delivered
  /// frame plus dead-air slots spent running out ACK timers / verdict
  /// drains. Always <= slots.
  std::uint64_t wasted_slots = 0;
  std::uint64_t collisions = 0;      // failed-and-overlapped frame attempts
  std::uint64_t sync_failures = 0;   // clean frames the PHY still lost
  /// Slots from the first overlapped slot of a losing frame to the slot
  /// its transmitter learned about the loss.
  RunningStats detect_latency_slots;

  // Fleet-engine accounting (zero in pure kWaveform runs without frame
  // recording). frames_resolved_analytic counts verdicts the margin
  // band settled; frames_escalated counts contested frames kHybrid
  // re-synthesized; frames_culled are resolved frames of tags outside
  // every gateway's interference range.
  std::uint64_t frames_resolved_analytic = 0;
  std::uint64_t frames_escalated = 0;
  std::uint64_t frames_culled = 0;
  /// Gateway-slots actually run through the sample-level synthesizer:
  /// n_gateways per slot in kWaveform, only escalated windows in
  /// kHybrid — the cost model behind the slots/s speedup.
  std::uint64_t gateway_slots_synthesized = 0;

  // Resilience accounting (all zero without fault injection). A frame
  // is "faulted" when its on-air window was exposed to any fault at a
  // relevant gateway (serving under kBestGateway, any otherwise); the
  // per-class loss counters tally failed frames by which fault classes
  // their window was exposed to — exposure, not causal attribution, so
  // a frame lost under both an outage and a sag counts in both.
  std::uint64_t faulted_frames_attempted = 0;
  std::uint64_t faulted_frames_delivered = 0;
  std::uint64_t frames_lost_outage = 0;
  std::uint64_t frames_lost_sag = 0;
  std::uint64_t frames_lost_interference = 0;
  std::uint64_t frames_lost_tag_fault = 0;
  /// Successful serving-gateway switches of the failover machine, plus
  /// relay re-parents (a child abandoning its current relay link).
  std::uint64_t failovers = 0;
  /// Slots from the first frame start of a failure streak to the slot
  /// the tag switched gateways (or relay parents).
  RunningStats time_to_failover_slots;

  // Relaying accounting (all zero with relaying disabled).
  std::uint64_t relay_tx_frames = 0;   ///< forward transmissions started
  std::uint64_t relay_rx_frames = 0;   ///< hops received and enqueued
  std::uint64_t relayed_delivered = 0; ///< forwarded frames delivered
  /// Frames lost inside the relay fabric: failed hops, full queues,
  /// aborted/browned-out forwards, and frames still queued at trial end.
  std::uint64_t relay_drops = 0;
  /// Hop count (originator to gateway) of relay-delivered frames.
  RunningStats relay_hops;

  /// Adds `other` field by field; an empty `tags`/`gateway_decodes`
  /// adopts the other side's size. Integer counters add exactly, so
  /// merging in a fixed order is bit-identical at any job count.
  void merge(const NetworkCounters& other);
  bool operator==(const NetworkCounters&) const = default;
};

/// Dead-gateway failover of one trial: each tag's current serving
/// gateway (the link-quality choice until a switch), failure streak,
/// switch count and per-gateway blacklist. It acts under kBestGateway
/// with failover_streak_frames > 0 and several gateways. Its holdoff
/// jitter comes from its own side substream, so enabling failover never
/// disturbs the main trial draws.
class GatewayFailover {
 public:
  /// `serving` is the link-quality choice per tag, `h_tr` the tag-major
  /// [tag * n_gw + gw] link gains of this trial.
  GatewayFailover(const NetworkSimConfig& config, std::uint64_t trial_index,
                  std::span<const std::size_t> serving,
                  std::span<const cf32> h_tr);

  std::size_t serving(std::size_t k) const { return serving_[k]; }
  /// Whether the combining rule listens to gateway g for tag k: every
  /// gateway under kAnyGateway, else the serving one.
  bool listens(std::size_t k, std::size_t g) const {
    return any_gateway_ || g == serving_[k];
  }
  /// Tag k's frame started at `start_slot` resolved at `learn_slot`. A
  /// delivery clears the streak and the switch count. A failure extends
  /// the streak; at the threshold the serving gateway is blacklisted
  /// for mac::failover_holdoff_slots and the strongest non-blacklisted
  /// link takes over, counted in res.failovers and
  /// res.time_to_failover_slots.
  void note(std::size_t k, bool delivered, std::uint64_t start_slot,
            std::uint64_t learn_slot, NetworkCounters& res);
  /// First slot at which gateway g may serve tag k again.
  std::uint64_t blacklisted_until(std::size_t k, std::size_t g) const {
    return blacklist_until_[k * n_gw_ + g];
  }

 private:
  bool on_ = false;
  bool any_gateway_ = true;
  std::size_t n_gw_ = 1;
  const NetworkSimConfig* config_ = nullptr;
  std::span<const cf32> h_tr_;
  Rng rng_;
  std::vector<std::size_t> serving_, streak_, switches_;
  std::vector<std::uint64_t> streak_start_, blacklist_until_;
};

/// Outcome of one trial (slots_per_trial block-times of network time).
struct NetworkTrialResult : NetworkCounters {
  /// Per-frame log; filled only when FleetConfig::record_frames.
  std::vector<FrameRecord> frames;
  /// Per-gateway digest (FNV-1a over the float bit patterns) of every
  /// envelope sample the trial produced: the full-trial history in
  /// kWaveform, each escalated decode window in escalation order in
  /// kHybrid. Filled only when FleetConfig::record_frames, so goldens
  /// can pin sample values without the hot path paying for it.
  std::vector<std::uint64_t> envelope_digest;

  bool operator==(const NetworkTrialResult&) const = default;
};

/// Aggregate over many trials; mergeable in chunk order (see
/// ExperimentRunner::run_chunked) with bit-identical results at any job
/// count. Beyond the shared counters it keeps what only exists across
/// trials: the trial count and the per-trial escalation-rate samples.
struct NetworkSimSummary : NetworkCounters {
  std::uint64_t trials = 0;
  /// Per-trial escalated fraction (frames_escalated / resolved frames),
  /// one sample per trial that resolved at least one frame — the
  /// escalation-rate distribution of a hybrid run.
  RunningStats escalation_rate_trials;

  void add(const NetworkTrialResult& trial);
  void merge(const NetworkSimSummary& other);
  bool operator==(const NetworkSimSummary&) const = default;

  std::uint64_t frames_attempted() const;
  std::uint64_t frames_delivered() const;
  std::uint64_t bits_delivered() const;
  std::uint64_t energy_outages() const;

  /// Delivered / attempted (0 when nothing was attempted) — the
  /// headline receive-diversity metric of e12.
  double delivery_ratio() const;

  double wasted_airtime_fraction() const {
    return slots ? static_cast<double>(wasted_slots) /
                       static_cast<double>(slots)
                 : 0.0;
  }
  double goodput_slots_fraction() const {
    return slots ? static_cast<double>(useful_slots) /
                       static_cast<double>(slots)
                 : 0.0;
  }
  double mean_detect_latency_slots() const {
    return detect_latency_slots.mean();
  }
  /// Fraction of transmission intents blocked or killed by energy
  /// (outages / (outages + attempts)).
  double energy_outage_fraction() const;

  /// Escalated fraction of analytically screened frames across the
  /// whole run (0 when the fleet engine never ran).
  double escalation_rate() const {
    const std::uint64_t resolved = frames_resolved_analytic + frames_escalated;
    return resolved ? static_cast<double>(frames_escalated) /
                          static_cast<double>(resolved)
                    : 0.0;
  }
  /// Delivery ratio of fault-exposed frames (the headline graceful-
  /// degradation metric of e14; 0 when no frame saw a fault).
  double outage_delivery_ratio() const {
    return faulted_frames_attempted
               ? static_cast<double>(faulted_frames_delivered) /
                     static_cast<double>(faulted_frames_attempted)
               : 0.0;
  }
  /// Mean slots from a failure streak's first frame to the gateway
  /// switch (0 when failover never fired).
  double mean_time_to_failover_slots() const {
    return time_to_failover_slots.mean();
  }

  /// Synthesized gateway-slots / total gateway-slots — the fraction of
  /// the waveform cost a run actually paid (1.0 in kWaveform).
  double synthesized_slot_fraction() const {
    const std::uint64_t denom =
        slots * std::max<std::size_t>(std::size_t{1}, gateway_decodes.size());
    return denom ? static_cast<double>(gateway_slots_synthesized) /
                       static_cast<double>(denom)
                 : 0.0;
  }
};

/// Wall-clock decomposition of trial time, accumulated only when a
/// caller passes one to run_trial (e13's stage-breakdown section).
/// Pure measurement: results are bit-identical with or without it.
struct TrialStageTimes {
  double setup_s = 0.0;      ///< per-trial channel/MAC/arena table builds
  double slot_loop_s = 0.0;  ///< slot engine excl. verdicts/escalation
  double verdict_s = 0.0;    ///< frame resolution excl. escalation
  double escalate_s = 0.0;   ///< escalated synthesis + decode (kHybrid)

  void merge(const TrialStageTimes& other) {
    setup_s += other.setup_s;
    slot_loop_s += other.slot_loop_s;
    verdict_s += other.verdict_s;
    escalate_s += other.escalate_s;
  }
  double total_s() const {
    return setup_s + slot_loop_s + verdict_s + escalate_s;
  }
};

class NetworkSimulator {
 public:
  /// Throws std::invalid_argument when config.validate() does.
  explicit NetworkSimulator(NetworkSimConfig config);

  /// Runs one network trial on the active-set slot engine. Pure with
  /// respect to the simulator: all randomness (backoffs, payloads,
  /// channel draws, noise) derives from Rng::substream(config.seed,
  /// trial_index) inside the call and no member state is touched, so
  /// disjoint trials are safe to run concurrently on one simulator and
  /// results are independent of thread assignment. Synthesis scratch
  /// comes from a per-thread SynthArena, so steady-state trials do not
  /// allocate in the sample-domain hot path.
  NetworkTrialResult run_trial(std::uint64_t trial_index) const;

  /// As above with caller-provided synthesis scratch: the arena is
  /// reset on entry and only grows during warm-up. One arena per
  /// concurrent caller — the arena itself is not thread-safe. When
  /// `stages` is non-null the trial's wall-clock stage breakdown is
  /// accumulated into it (results are unaffected).
  NetworkTrialResult run_trial(std::uint64_t trial_index, SynthArena& arena,
                               TrialStageTimes* stages = nullptr) const;

  /// The retained per-slot reference engine: every slot scans all tags
  /// (MAC countdown decrements, full energy sweep, interference-sum
  /// rows) exactly as the pre-active-set simulator did. Same purity and
  /// determinism contracts as run_trial, and bit-identical results —
  /// tests/sim/active_set_test.cpp pins the two engines EXPECT_EQ,
  /// summaries and per-trial frame records, across its config matrix.
  NetworkTrialResult run_trial_reference(std::uint64_t trial_index) const;

  /// Runs trials [0, n) serially and aggregates. Equivalent trial-set
  /// to ExperimentRunner::run_chunked at any job count.
  NetworkSimSummary run(std::size_t n) const;

  const NetworkSimConfig& config() const { return config_; }
  const channel::Scene& scene() const { return scene_; }
  /// The MAC policy the slot loop delegates to (mac/policy.hpp).
  const mac::MacPolicy& policy() const { return *policy_; }

  std::size_t num_tags() const { return config_.tags.size(); }
  std::size_t num_gateways() const { return gateway_device_.size(); }
  /// One slot = one block-time = one feedback slot of the asymmetry.
  std::size_t slot_samples() const { return slot_samples_; }
  std::size_t frame_slots() const { return frame_slots_; }
  double slot_seconds() const;
  /// Up-front energy budget a gated tag needs before starting a frame.
  double frame_cost_j() const { return frame_cost_j_; }
  /// Scene device index of tag k (for gain queries in reports/tests).
  std::size_t tag_device(std::size_t k) const { return tag_device_.at(k); }
  std::size_t ambient_device() const { return ambient_device_; }
  /// Scene device index of gateway g; gateway 0 is receiver_position.
  std::size_t gateway_device(std::size_t g) const {
    return gateway_device_.at(g);
  }
  std::size_t receiver_device() const { return gateway_device_[0]; }
  /// Geometrically nearest gateway to tag k (reports; the in-trial
  /// serving gateway additionally reflects fading/shadowing draws).
  std::size_t nearest_gateway(std::size_t k) const;
  /// Slots from overlap start until tag k hears the earliest gateway's
  /// collision notification.
  std::size_t notify_latency_slots(std::size_t k) const {
    return notify_slots_.at(k);
  }
  /// Slots from overlap start until gateway g's notification reaches
  /// tag k (the per-gateway latencies behind the minimum above; the
  /// fault engine consults them when an outage silences a gateway).
  std::size_t notify_latency_slots(std::size_t k, std::size_t g) const {
    return notify_pg_.at(k * gateway_device_.size() + g);
  }
  /// Whether tag k is outside interference range of *every* gateway.
  bool tag_culled(std::size_t k) const { return culled_.at(k) != 0; }
  /// Number of culled tags in the deployment.
  std::size_t num_culled() const { return num_culled_; }
  /// The static hop topology (empty levels when relaying is disabled).
  const RelayTopology& relay_topology() const { return relay_topo_; }

 private:
  /// One trial's state, named parts and frame transitions.
  template <bool ActiveSet>
  struct Trial;

  /// The slot engine. `ActiveSet` only selects which tags a slot visits
  /// — wake buckets (true, run_trial) or scans of every tag (false,
  /// run_trial_reference) — and the matching storage: wake buckets or
  /// countdowns, interference maxima or sum rows, lazy or per-slot idle
  /// energy. What a visit does to a tag is the same Trial code in both.
  template <bool ActiveSet>
  NetworkTrialResult run_trial_impl(std::uint64_t trial_index,
                                    SynthArena& arena,
                                    TrialStageTimes* stages) const;

  /// One realisation of the per-link channel: the tables every trial
  /// stage reads, as views into storage the builder carved from an
  /// arena. Tag-major [tag * n_gw + gw] where indexed per link.
  struct ChannelTables {
    std::span<const cf32> h_sr;      ///< ambient -> gateway leakage
    std::span<const cf32> h_tr;      ///< tag -> gateway
    /// Composed ambient -> tag -> gateway coupling of each switch
    /// position (h_tag->gw * Gamma * h_ambient->tag, left to right).
    std::span<const cf32> coup_on;
    std::span<const cf32> coup_off;
    /// Per-link envelope swing and its in-range-masked half (SoA);
    /// empty unless the margin classifier runs.
    std::span<const float> delta;
    std::span<const float> half;
    std::span<const float> delta_tt;       ///< tag-tag relay hop swings
    std::span<const std::size_t> serving;  ///< best-link gateway per tag
    std::span<const double> h_idle;  ///< per-slot idle harvest increment
    std::span<const double> h_act;   ///< per-slot reflecting increment
  };

  /// Draws coherence block `block` of the channel from `fading` (which
  /// consumes `rng` in fixed link order: gateways, then per tag the
  /// ambient->tag gain and its gateway gains, then relay hop links) and
  /// derives every table from those gains, carving storage from `arena`.
  ChannelTables build_channel(channel::FadingProcess& fading, Rng& rng,
                              std::uint64_t block, SynthArena& arena) const;

  NetworkSimConfig config_;
  channel::Scene scene_;
  std::size_t ambient_device_ = 0;
  std::vector<std::size_t> gateway_device_;
  std::vector<std::size_t> tag_device_;
  core::FdDataTransmitter tx_;
  core::FdDataReceiver rx_;
  std::vector<channel::BackscatterModulator> modulators_;
  energy::Harvester harvester_;
  WaveformSynthesizer synth_;
  /// Per-slot MAC decisions, extracted behind mac::MacPolicy. Immutable
  /// after construction and shared by concurrent trials (all per-trial
  /// MAC state lives in the trial's mac::TagMacState instances); shared
  /// ownership keeps the simulator copyable.
  std::shared_ptr<const mac::MacPolicy> policy_;
  std::vector<std::size_t> notify_slots_;  ///< per-tag earliest notify
  std::vector<std::size_t> notify_pg_;     ///< [tag * n_gw + gw] latency
  FaultInjector injector_;
  std::size_t slot_samples_ = 0;
  std::size_t burst_samples_ = 0;
  std::size_t frame_slots_ = 0;
  double frame_cost_j_ = 0.0;

  // Fleet engine (sim/fleet.hpp): the margin classifier and the
  // culling-grid results, both fixed at construction.
  FleetResolver resolver_;
  std::vector<std::uint8_t> in_range_;  ///< [tag * n_gw + gw] within radius
  std::vector<std::uint8_t> culled_;    ///< [tag] out of range everywhere
  std::size_t num_culled_ = 0;

  // Relaying (sim/relay.hpp): hop levels + parent candidates, built
  // from the culling result at construction.
  RelayTopology relay_topo_;

  // Harvest fractions of each tag's modulator (idle = absorb state,
  // active = mean of the two switch positions) — trial-invariant in
  // every mode, precomputed so the energy path stops re-asking the
  // modulator per (tag, slot).
  std::vector<double> hf_idle_;
  std::vector<double> hf_act_;

  // Static-channel cache: with static fading and shadowing disabled
  // every channel table is trial-invariant (StaticFading consumes no
  // randomness and Scene::amplitude_gain ignores the coherence block),
  // so the constructor runs build_channel once and trials read the
  // result instead of rebuilding it — bit-identical values and zero RNG
  // draws skipped. Immutable after construction and shared by
  // concurrent trials; shared ownership keeps the simulator copyable.
  struct StaticChannel {
    SynthArena arena;  ///< owns the tables' storage
    ChannelTables tables;
  };
  std::shared_ptr<const StaticChannel> static_channel_;  ///< null = per trial
};

namespace detail {

/// `acc` plus `n` adds of `h`, one at a time and in order: an ungated
/// tag's idle harvest over n slots. The reference for add_repeated.
double add_repeated_steps(double acc, double h, std::uint64_t n);

/// add_repeated_steps(acc, h, n) bit for bit: one add when h is zero,
/// the n steps otherwise. Internal: the simulator's idle-harvest
/// fast-forward, exposed so tests can pin it to add_repeated_steps.
double add_repeated(double acc, double h, std::uint64_t n);

}  // namespace detail

}  // namespace fdb::sim
