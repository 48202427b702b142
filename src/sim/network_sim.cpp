#include "sim/network_sim.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "channel/ambient_source.hpp"
#include "channel/fading.hpp"
#include "channel/impairments.hpp"
#include "dsp/envelope.hpp"
#include "sim/link_budget.hpp"
#include "sim/trial_parts.hpp"

namespace fdb::sim {

namespace detail {

double add_repeated_steps(double acc, double h, std::uint64_t n) {
  for (; n != 0; --n) acc += h;
  return acc;
}

double add_repeated(double acc, double h, std::uint64_t n) {
  if (n == 0) return acc;
  // x + 0 is x, except -0 + +0 = +0; either way one add reaches the
  // value every later add keeps.
  if (h == 0.0) return acc + h;
  return add_repeated_steps(acc, h, n);
}

}  // namespace detail

namespace {

// NetworkTrialResult::envelope_digest (detail::fold_digest). The
// helpers run only with FleetConfig::record_frames. They stay cold and
// out of line so the slot engine gains only a guarded call per site: its
// speed on the analytic workloads is sensitive to its code layout, and
// the same digest written inline cost fleet-analytic-10k about 15%
// slots/s.
[[gnu::cold, gnu::noinline]] void start_digests(
    std::vector<std::uint64_t>& digests, std::size_t n_gw) {
  digests.assign(n_gw, detail::kDigestBasis);
}

/// Folds each gateway's full-trial envelope history (row g of
/// `histories`, `total` samples each) into its digest.
[[gnu::cold, gnu::noinline]] void fold_histories(
    std::vector<std::uint64_t>& digests, std::span<const float> histories,
    std::size_t total) {
  for (std::size_t g = 0; g < digests.size(); ++g) {
    detail::fold_digest(digests[g], histories.subspan(g * total, total));
  }
}

/// Runtime MAC and frame state of one tag inside a trial. The
/// slot-domain machine mirrors mac/collision.cpp, but verdicts come from
/// the PHY (or its analytic stand-in) instead of the abstract collided
/// flag, and starts are gated by the energy store. The current frame's
/// payload, (kWaveform) antenna states and (kHybrid) frame-log entry
/// live in the trial's side stores, so the record is small and
/// trivially destructible: a trial carves all of them from its arena,
/// and every per-tag sweep reads 40 bytes a tag.
struct TagRt {
  enum class St : std::uint8_t { kBackoff, kTx, kWaitVerdict };
  std::size_t counter = 0;  // slots remaining in backoff / verdict wait
  mac::TagMacState mac;     // policy state (failure class / BEB exponent)

  // Current frame attempt. Slot indices fit 32 bits (validate()).
  std::uint32_t progress = 0;  // on-air slots of the current frame
  std::uint32_t start_slot = 0;
  std::uint32_t overlap_start = 0;

  // Relaying: the originator and hops taken of a forward of another
  // tag's traffic (`forwarding`) rather than fresh local data.
  std::uint32_t fwd_originator = 0;
  std::uint32_t fwd_hops = 0;

  St st = St::kBackoff;
  bool wait_entered_now = false;  // countdown scan: skip the entry slot
  bool overlapped = false;
  bool forwarding = false;
};
static_assert(std::is_trivially_destructible_v<TagRt>);
static_assert(sizeof(TagRt) <= 40);

std::uint64_t sum_over_tags(const std::vector<NetworkTagStats>& tags,
                            std::uint64_t NetworkTagStats::*field) {
  std::uint64_t n = 0;
  for (const auto& t : tags) n += t.*field;
  return n;
}

/// The strongest of one tag's gateway links `row` (ties to the lowest
/// index) among those `usable` admits; `fallback` when none is.
template <class Usable>
std::size_t strongest_link(std::span<const cf32> row, std::size_t fallback,
                           Usable usable) {
  std::size_t best = fallback;
  float best_mag = -1.0f;
  for (std::size_t g = 0; g < row.size(); ++g) {
    const float mag = std::abs(row[g]);
    if (usable(g) && mag > best_mag) {
      best_mag = mag;
      best = g;
    }
  }
  return best;
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// How a frame was lost, for the one tally every loss goes through.
enum class Loss {
  kVerdict,   ///< resolved undelivered
  kNotified,  ///< aborted on a collision notification
  kBrownout,  ///< died on air when its storage ran dry
};

/// Per-tag energy of one trial: storage, ledger and the per-slot
/// recurrence. The reference engine steps every tag every slot; the
/// active engine steps on-air tags only and replays idle spans on demand
/// (catch_up) in the identical per-slot sequence, so every clamp, leak,
/// ledger add and draw lands bit-identically. e_next_[k] is tag k's
/// first slot not applied yet.
///
/// Without energy gating only the harvest sums move: storage, ledger and
/// brownout flags are never carved, and spent_j keeps its +0.0, which is
/// what an unspent ledger's total_energy_j() sums to for the finite
/// powers validate() admits.
class EnergyTracker {
 public:
  EnergyTracker(const NetworkSimConfig& config, std::span<const double> h_idle,
                std::span<const double> h_act, double dt,
                std::vector<NetworkTagStats>& stats, SynthArena& arena)
      : config_(config),
        h_idle_(h_idle),
        h_act_(h_act),
        dt_(dt),
        stats_(stats),
        e_next_(arena.alloc_zeroed<std::uint32_t>(h_idle.size())) {
    if (!config.energy_gating) return;
    // Arena carves: as per-trial heap vectors these cost 10k-tag trials
    // fresh pages every trial.
    brownout_ = arena.alloc_zeroed<std::uint8_t>(h_idle.size());
    storage_ = arena.alloc<energy::Storage>(h_idle.size());
    ledger_ = arena.alloc<energy::EnergyLedger>(h_idle.size());
    std::uninitialized_fill(storage_.begin(), storage_.end(),
                            energy::Storage(config.storage));
    std::uninitialized_fill(ledger_.begin(), ledger_.end(),
                            energy::EnergyLedger(config.power));
  }

  double level_j(std::size_t k) const { return storage_[k].level_j(); }

  /// Applies slot `slot` of tag k's recurrence.
  void step(std::size_t k, std::uint64_t slot, bool on_air) {
    apply(k, on_air);
    e_next_[k] = static_cast<std::uint32_t>(slot + 1);
  }
  /// Replays tag k's idle slots up to (excluding) `upto`.
  void catch_up(std::size_t k, std::uint64_t upto) {
    if (config_.energy_gating) {
      for (std::uint64_t s = e_next_[k]; s < upto; ++s) apply(k, false);
    } else if (e_next_[k] < upto) {
      // Only the harvest sum moves: the same adds, fast-forwarded.
      stats_[k].harvested_j = detail::add_repeated(
          stats_[k].harvested_j, h_idle_[k], upto - e_next_[k]);
    }
    e_next_[k] = static_cast<std::uint32_t>(upto);
  }
  /// Whether tag k's storage ran dry on air since the last call.
  bool take_brownout(std::size_t k) {
    if (!config_.energy_gating) return false;
    const bool b = brownout_[k] != 0;
    brownout_[k] = 0;
    return b;
  }
  /// Trial end: settles tag k's outstanding idle span and its spend.
  void settle(std::size_t k, std::uint64_t slots) {
    catch_up(k, slots);
    if (config_.energy_gating) stats_[k].spent_j = ledger_[k].total_energy_j();
  }

 private:
  void apply(std::size_t k, bool on_air) {
    const double h = on_air ? h_act_[k] : h_idle_[k];
    stats_[k].harvested_j += h;
    if (!config_.energy_gating) return;
    const auto state = on_air ? energy::TagState::kBackscattering
                              : energy::TagState::kListening;
    storage_[k].charge(h);
    storage_[k].tick(dt_);
    ledger_[k].spend(state, dt_);
    // A failed draw while merely listening drains the store but is not
    // an outage event — only gated starts and mid-frame brownouts
    // count, per the NetworkTagStats contract.
    if (!storage_[k].draw(config_.power.power(state) * dt_) && on_air) {
      ++stats_[k].energy_outages;
      brownout_[k] = 1;
    }
  }

  const NetworkSimConfig& config_;
  std::span<const double> h_idle_, h_act_;
  double dt_;
  std::vector<NetworkTagStats>& stats_;
  std::span<energy::Storage> storage_;
  std::span<energy::EnergyLedger> ledger_;
  std::span<std::uint8_t> brownout_;
  std::span<std::uint32_t> e_next_;
};

/// Resilience attribution of tag k's resolved or aborted frame on air
/// over slots [lo, hi): exposure is judged at the gateways (of `n_gw`)
/// the combining policy listens to. Failed-and-exposed frames tally into
/// every fault class whose window touched them (exposure, not causal
/// attribution — see NetworkTrialResult).
[[gnu::noinline]] void tally_fault_exposure(
    const FaultPlan& fplan, const GatewayFailover& failover, std::size_t n_gw,
    std::size_t k, std::size_t lo, std::size_t hi, bool delivered,
    NetworkCounters& res) {
  const bool sag = fplan.window_has_sag(lo, hi);
  bool outage = false;
  bool interf = false;
  for (std::size_t g = 0; g < n_gw; ++g) {
    if (!failover.listens(k, g)) continue;
    outage = outage || fplan.window_has_outage(g, lo, hi);
    interf = interf || fplan.window_has_interference(g, lo, hi);
  }
  const TagFault* f = fplan.tag_fault(static_cast<std::uint32_t>(k));
  const bool tagf = f != nullptr &&
                    f->start_slot < static_cast<std::int64_t>(hi) &&
                    f->end_slot > static_cast<std::int64_t>(lo);
  if (!(sag || outage || interf || tagf)) return;
  ++res.faulted_frames_attempted;
  if (delivered) {
    ++res.faulted_frames_delivered;
    return;
  }
  if (outage) ++res.frames_lost_outage;
  if (sag) ++res.frames_lost_sag;
  if (interf) ++res.frames_lost_interference;
  if (tagf) ++res.frames_lost_tag_fault;
}

}  // namespace

double NetworkSimConfig::noise_power_w() const {
  if (noise_power_override_w >= 0.0) return noise_power_override_w;
  return channel::thermal_noise_power(modem.data.rates.sample_rate_hz,
                                      noise_figure_db);
}

void NetworkSimConfig::validate() const {
  if (!modem.consistent()) {
    throw std::invalid_argument(
        "NetworkSimConfig: modem must have valid rates and "
        "rates.asymmetry == block_bits(), got asymmetry " +
        std::to_string(modem.data.rates.asymmetry) + " for " +
        std::to_string(modem.block_bits()) + " block bits");
  }
  if (tags.empty()) {
    throw std::invalid_argument(
        "NetworkSimConfig: tags must be non-empty (a network needs at "
        "least one tag)");
  }
  for (std::size_t k = 0; k < tags.size(); ++k) {
    // ReflectionStates::ook only asserts this, and Release builds drop
    // the assert: rho <= 0 yields a NaN or dead reflector, rho > 1
    // reflects more power than is incident.
    const double rho = tags[k].reflection_rho;
    if (!(rho > 0.0 && rho <= 1.0)) {
      throw std::invalid_argument(
          "NetworkSimConfig: tags[" + std::to_string(k) +
          "].reflection_rho must be in (0, 1], got " + std::to_string(rho));
    }
  }
  if (!(tx_power_w > 0.0)) {
    throw std::invalid_argument(
        "NetworkSimConfig: tx_power_w must be positive, got " +
        std::to_string(tx_power_w));
  }
  if (carrier != "cw" && carrier != "ofdm_tv") {
    throw std::invalid_argument(
        "NetworkSimConfig: unknown carrier \"" + carrier +
        "\" (expected \"cw\" or \"ofdm_tv\")");
  }
  // OnePole::from_cutoff would throw for these too, but only once the
  // simulator builds its synthesizer, and naming the cutoff in Hz; this
  // names the config field (0 would be a dead envelope, a negative or
  // NaN multiplier a meaningless pole).
  if (!(std::isfinite(envelope_cutoff_mult) && envelope_cutoff_mult > 0.0)) {
    throw std::invalid_argument(
        "NetworkSimConfig: envelope_cutoff_mult must be finite and "
        "positive, got " +
        std::to_string(envelope_cutoff_mult));
  }
  if (fading != "static" && fading != "rayleigh" && fading != "rician") {
    throw std::invalid_argument(
        "NetworkSimConfig: unknown fading \"" + fading +
        "\" (expected \"static\", \"rayleigh\" or \"rician\")");
  }
  if (slots_per_trial == 0) {
    throw std::invalid_argument(
        "NetworkSimConfig: slots_per_trial must be positive (a trial "
        "needs at least one slot)");
  }
  // The active engine keeps slot indices in 32-bit fields.
  if (slots_per_trial > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "NetworkSimConfig: slots_per_trial must be at most 2^32 - 1 "
        "(4294967295), got " +
        std::to_string(slots_per_trial));
  }
  // A 0-byte frame carries no bits yet "delivers" whenever its
  // preamble syncs.
  if (payload_bytes == 0) {
    throw std::invalid_argument(
        "NetworkSimConfig: payload_bytes must be positive (a frame needs "
        "at least one payload byte)");
  }
  if (!(notify_slots_per_m >= 0.0)) {
    throw std::invalid_argument(
        "NetworkSimConfig: notify_slots_per_m must be non-negative, got " +
        std::to_string(notify_slots_per_m));
  }
  // Storage and PowerProfile only assert their ranges, and Release
  // builds drop the asserts. Ungated trials also leave spent_j at +0,
  // which is an unspent ledger's sum of 0 * power only for finite
  // powers.
  const auto energy_field = [](const char* name, double v) {
    if (!(std::isfinite(v) && v >= 0.0)) {
      throw std::invalid_argument(std::string("NetworkSimConfig: ") + name +
                                  " must be finite and non-negative, got " +
                                  std::to_string(v));
    }
  };
  energy_field("power.idle_w", power.idle_w);
  energy_field("power.listening_w", power.listening_w);
  energy_field("power.backscattering_w", power.backscattering_w);
  energy_field("power.decoding_w", power.decoding_w);
  energy_field("storage.capacity_j", storage.capacity_j);
  energy_field("storage.initial_j", storage.initial_j);
  energy_field("storage.leakage_w", storage.leakage_w);
  if (!(storage.capacity_j > 0.0 && storage.initial_j <= storage.capacity_j)) {
    throw std::invalid_argument(
        "NetworkSimConfig: storage.capacity_j must be positive and at least "
        "storage.initial_j, got " +
        std::to_string(storage.capacity_j) + " and " +
        std::to_string(storage.initial_j));
  }
  relay.validate();
  if (relay.enabled) {
    if (mac_kind != mac::MacKind::kScheduled) {
      throw std::invalid_argument(
          "NetworkSimConfig: relaying requires the scheduled MAC (a relay "
          "forwards in its own slotframe cell; under a contention MAC the "
          "forwards would collide with the children they serve)");
    }
    if (!std::isfinite(fleet.cull_radius_m)) {
      throw std::invalid_argument(
          "NetworkSimConfig: relaying requires a finite "
          "fleet.cull_radius_m (the culled set is the out-of-range set "
          "relays exist to reach)");
    }
    if (!(fleet.analytic_target_ber > 0.0 && fleet.analytic_target_ber < 0.5)) {
      throw std::invalid_argument(
          "NetworkSimConfig: relaying requires fleet.analytic_target_ber in "
          "(0, 0.5) (every relay hop is judged by its margin over that "
          "target's required SINR), got " +
          std::to_string(fleet.analytic_target_ber));
    }
  }
  if (failover_streak_frames > 0 &&
      combining != GatewayCombining::kBestGateway) {
    throw std::invalid_argument(
        "NetworkSimConfig: failover_streak_frames requires kBestGateway "
        "combining (any-gateway delivery has no serving gateway to fail "
        "over from)");
  }
  fleet.validate();
  faults.validate();
}

void NetworkTagStats::merge(const NetworkTagStats& other) {
  frames_attempted += other.frames_attempted;
  frames_delivered += other.frames_delivered;
  frames_collided += other.frames_collided;
  frames_aborted += other.frames_aborted;
  payload_bits_delivered += other.payload_bits_delivered;
  energy_outages += other.energy_outages;
  harvested_j += other.harvested_j;
  spent_j += other.spent_j;
}

void NetworkCounters::merge(const NetworkCounters& other) {
  if (tags.empty()) tags.resize(other.tags.size());
  assert(tags.size() == other.tags.size());
  for (std::size_t k = 0; k < tags.size(); ++k) tags[k].merge(other.tags[k]);
  if (gateway_decodes.empty()) {
    gateway_decodes.resize(other.gateway_decodes.size());
  }
  assert(gateway_decodes.size() == other.gateway_decodes.size());
  for (std::size_t g = 0; g < gateway_decodes.size(); ++g) {
    gateway_decodes[g] += other.gateway_decodes[g];
  }
  slots += other.slots;
  busy_slots += other.busy_slots;
  useful_slots += other.useful_slots;
  wasted_slots += other.wasted_slots;
  collisions += other.collisions;
  sync_failures += other.sync_failures;
  detect_latency_slots.merge(other.detect_latency_slots);
  frames_resolved_analytic += other.frames_resolved_analytic;
  frames_escalated += other.frames_escalated;
  frames_culled += other.frames_culled;
  gateway_slots_synthesized += other.gateway_slots_synthesized;
  faulted_frames_attempted += other.faulted_frames_attempted;
  faulted_frames_delivered += other.faulted_frames_delivered;
  frames_lost_outage += other.frames_lost_outage;
  frames_lost_sag += other.frames_lost_sag;
  frames_lost_interference += other.frames_lost_interference;
  frames_lost_tag_fault += other.frames_lost_tag_fault;
  failovers += other.failovers;
  time_to_failover_slots.merge(other.time_to_failover_slots);
  relay_tx_frames += other.relay_tx_frames;
  relay_rx_frames += other.relay_rx_frames;
  relayed_delivered += other.relayed_delivered;
  relay_drops += other.relay_drops;
  relay_hops.merge(other.relay_hops);
}

void NetworkSimSummary::add(const NetworkTrialResult& trial) {
  NetworkCounters::merge(trial);
  ++trials;
  const std::uint64_t resolved =
      trial.frames_resolved_analytic + trial.frames_escalated;
  if (resolved) {
    escalation_rate_trials.add(static_cast<double>(trial.frames_escalated) /
                               static_cast<double>(resolved));
  }
}

void NetworkSimSummary::merge(const NetworkSimSummary& other) {
  if (other.trials == 0) return;
  NetworkCounters::merge(other);
  trials += other.trials;
  escalation_rate_trials.merge(other.escalation_rate_trials);
}

std::uint64_t NetworkSimSummary::frames_attempted() const {
  return sum_over_tags(tags, &NetworkTagStats::frames_attempted);
}
std::uint64_t NetworkSimSummary::frames_delivered() const {
  return sum_over_tags(tags, &NetworkTagStats::frames_delivered);
}
std::uint64_t NetworkSimSummary::bits_delivered() const {
  return sum_over_tags(tags, &NetworkTagStats::payload_bits_delivered);
}
std::uint64_t NetworkSimSummary::energy_outages() const {
  return sum_over_tags(tags, &NetworkTagStats::energy_outages);
}

double NetworkSimSummary::delivery_ratio() const {
  const std::uint64_t attempted = frames_attempted();
  return attempted ? static_cast<double>(frames_delivered()) /
                         static_cast<double>(attempted)
                   : 0.0;
}

double NetworkSimSummary::energy_outage_fraction() const {
  const std::uint64_t outages = energy_outages();
  const std::uint64_t denom = outages + frames_attempted();
  return denom ? static_cast<double>(outages) / static_cast<double>(denom)
               : 0.0;
}

NetworkSimulator::NetworkSimulator(NetworkSimConfig config)
    : config_(std::move(config)),
      scene_(config_.pathloss, config_.shadowing_seed),
      tx_(config_.modem),
      rx_(config_.modem),
      harvester_(config_.harvester),
      synth_(config_.modem.data.rates, config_.envelope_cutoff_mult) {
  config_.validate();

  scene_.reserve_devices(2 + config_.tags.size() +
                         config_.extra_gateways.size());
  ambient_device_ = scene_.add_device(
      {"ambient", channel::DeviceKind::kAmbientTx, config_.ambient_position});
  // Device order is part of the determinism contract: the pair-keyed
  // shadowing substream hashes device indices, so extra gateways append
  // AFTER the tags — a single-gateway deployment keeps every historical
  // index (ambient 0, rx 1, tags 2..) and therefore every shadowing
  // draw.
  gateway_device_.push_back(scene_.add_device(
      {"rx", channel::DeviceKind::kReceiver, config_.receiver_position}));
  tag_device_.reserve(config_.tags.size());
  modulators_.reserve(config_.tags.size());
  for (std::size_t k = 0; k < config_.tags.size(); ++k) {
    tag_device_.push_back(scene_.add_device({"tag" + std::to_string(k),
                                             channel::DeviceKind::kTag,
                                             config_.tags[k].position}));
    modulators_.emplace_back(
        channel::ReflectionStates::ook(config_.tags[k].reflection_rho));
  }
  for (std::size_t g = 0; g < config_.extra_gateways.size(); ++g) {
    gateway_device_.push_back(
        scene_.add_device({"gw" + std::to_string(g + 1),
                           channel::DeviceKind::kReceiver,
                           config_.extra_gateways[g]}));
  }

  // Per-tag earliest collision-notification latency: each gateway
  // notifies mac::notify_latency_slots(base, distance, slope) after the
  // overlap begins; the tag aborts on whichever arrives first (the
  // closest gateway's).
  notify_slots_.reserve(config_.tags.size());
  notify_pg_.reserve(config_.tags.size() * gateway_device_.size());
  for (std::size_t k = 0; k < config_.tags.size(); ++k) {
    std::size_t best = SIZE_MAX;
    for (const std::size_t gw : gateway_device_) {
      const double dist = channel::distance_m(
          scene_.device(tag_device_[k]).position, scene_.device(gw).position);
      const std::size_t lat = mac::notify_latency_slots(
          config_.notify_delay_slots, dist, config_.notify_slots_per_m);
      notify_pg_.push_back(lat);
      best = std::min(best, lat);
    }
    notify_slots_.push_back(best);
  }

  const auto& rates = config_.modem.data.rates;
  slot_samples_ = rates.samples_per_feedback_bit();
  burst_samples_ = tx_.burst_samples(config_.payload_bytes);
  frame_slots_ = (burst_samples_ + slot_samples_ - 1) / slot_samples_;
  frame_cost_j_ = static_cast<double>(frame_slots_) * slot_seconds() *
                  config_.power.backscattering_w;

  // MAC policy: every per-slot medium-access decision of the slot loop
  // below is delegated here. The scheduled kind sizes its slotframe
  // cells off frame_slots_, so this must follow the rate derivation.
  policy_ = mac::make_mac_policy(
      config_.mac_kind,
      {.contention = {.timeout_slots = config_.timeout_slots,
                      .backoff_min_slots = config_.backoff_min_slots,
                      .backoff_max_exponent = config_.backoff_max_exponent},
       .num_tags = config_.tags.size(),
       .frame_slots = frame_slots_,
       .dedicated_cells = config_.sched_dedicated_cells,
       .shared_cells = config_.sched_shared_cells});

  // Fault injector: compiled once against this deployment. Per-trial
  // plans come from a salted side substream, so fault randomness never
  // perturbs the main trial draws.
  injector_ = FaultInjector(config_.faults, config_.seed,
                            gateway_device_.size(), config_.tags.size(),
                            config_.slots_per_trial, slot_samples_,
                            rates.samples_per_chip,
                            std::sqrt(config_.noise_power_w() / 2.0));

  // Fleet engine: margin resolver (only built when the classifier or a
  // relay hop uses it — kWaveform without either may carry an unchecked
  // target BER) and the spatial-culling index. Each gateway queries its
  // interference disk out of the tag-position grid; the union defines
  // the per-(tag, gateway) in-range mask and the culled set.
  if (config_.fleet.classifier_runs() || config_.relay.enabled) {
    resolver_ = FleetResolver(config_.fleet,
                              std::sqrt(config_.noise_power_w() / 2.0),
                              rates.samples_per_chip);
  }
  const std::size_t n_gw = gateway_device_.size();
  in_range_.assign(config_.tags.size() * n_gw, 0);
  culled_.assign(config_.tags.size(), 1);
  {
    std::vector<channel::Vec2> positions(config_.tags.size());
    for (std::size_t k = 0; k < positions.size(); ++k) {
      positions[k] = config_.tags[k].position;
    }
    const CullingGrid grid(positions, config_.fleet.grid_cell_m);
    std::vector<std::uint32_t> hits;
    for (std::size_t g = 0; g < n_gw; ++g) {
      grid.within_into(scene_.device(gateway_device_[g]).position,
                       config_.fleet.cull_radius_m, hits);
      for (const std::uint32_t k : hits) {
        in_range_[k * n_gw + g] = 1;
        culled_[k] = 0;
      }
    }
    // Relay topology: BFS hop levels out of the in-range set just
    // computed, plus each culled tag's parent-candidate list.
    relay_topo_ = RelayTopology(positions, culled_, config_.relay,
                                config_.fleet.grid_cell_m);
  }
  num_culled_ = static_cast<std::size_t>(
      std::count(culled_.begin(), culled_.end(), std::uint8_t{1}));

  // Harvest fractions are pure functions of the modulator's reflection
  // states, hence trial-invariant in every mode.
  hf_idle_.resize(config_.tags.size());
  hf_act_.resize(config_.tags.size());
  for (std::size_t k = 0; k < config_.tags.size(); ++k) {
    hf_idle_[k] = modulators_[k].harvest_fraction(false);
    // Reflecting alternates absorb/reflect roughly half the time, so
    // the harvester sees the mean of the two fractions (the exact
    // expression the per-slot energy sweep historically evaluated).
    hf_act_[k] = 0.5 * (modulators_[k].harvest_fraction(false) +
                        modulators_[k].harvest_fraction(true));
  }

  // Static-channel cache (see the header): the per-trial builder run
  // once with StaticFading and coherence block 0 — with shadowing
  // disabled amplitude_gain ignores the block, so these are the tables
  // any trial would build.
  if (config_.fading == "static" &&
      config_.pathloss.shadowing_sigma_db == 0.0) {
    auto st = std::make_shared<StaticChannel>();
    channel::StaticFading fading;
    Rng no_draws;  // StaticFading consumes no randomness
    st->tables = build_channel(fading, no_draws, 0, st->arena);
    static_channel_ = std::move(st);
  }
}

NetworkSimulator::ChannelTables NetworkSimulator::build_channel(
    channel::FadingProcess& fading, Rng& rng, std::uint64_t block,
    SynthArena& arena) const {
  const std::size_t n_tags = config_.tags.size();
  const std::size_t n_gw = gateway_device_.size();
  const auto fade_draw = [&]() {
    fading.next_block(rng);
    return fading.gain();
  };
  ChannelTables ch;

  // Per-link complex gains: shadowing redraws reciprocally per coherence
  // block inside the scene; small-scale fading draws come in fixed link
  // order — gateways first, then per tag the ambient->tag gain followed
  // by that tag's gain to every gateway (a single-gateway config
  // reproduces the historical draw sequence exactly).
  const double amp_tx = std::sqrt(config_.tx_power_w);
  auto h_sr = arena.alloc<cf32>(n_gw);
  for (std::size_t g = 0; g < n_gw; ++g) {
    h_sr[g] = fade_draw() *
              static_cast<float>(amp_tx * scene_.amplitude_gain(
                                              ambient_device_,
                                              gateway_device_[g], block));
  }
  auto h_st = arena.alloc<cf32>(n_tags);  // ambient -> tag (w/ power)
  auto h_tr = arena.alloc<cf32>(n_tags * n_gw);
  for (std::size_t k = 0; k < n_tags; ++k) {
    h_st[k] = fade_draw() *
              static_cast<float>(amp_tx * scene_.amplitude_gain(
                                              ambient_device_,
                                              tag_device_[k], block));
    for (std::size_t g = 0; g < n_gw; ++g) {
      h_tr[k * n_gw + g] =
          fade_draw() * static_cast<float>(scene_.amplitude_gain(
                            tag_device_[k], gateway_device_[g], block));
    }
  }
  ch.h_sr = h_sr;
  ch.h_tr = h_tr;

  // Tag-tag hop links (relaying): gains drawn in (child, candidate)
  // order right after the gateway links, so enabling relaying extends
  // the draw sequence instead of reordering it. Each entry is the
  // envelope swing the parent tag sees of the child's reflection riding
  // on the parent's own ambient carrier.
  if (config_.relay.enabled && relay_topo_.num_links() > 0) {
    auto delta_tt = arena.alloc<float>(relay_topo_.num_links());
    for (const std::uint32_t k : relay_topo_.relay_children()) {
      const auto cands = relay_topo_.candidates(k);
      const std::size_t off = relay_topo_.link_offset(k);
      const auto& gamma = modulators_[k].states();
      for (std::size_t ci = 0; ci < cands.size(); ++ci) {
        const cf32 h_tp =
            fade_draw() * static_cast<float>(scene_.amplitude_gain(
                              tag_device_[k], tag_device_[cands[ci]], block));
        delta_tt[off + ci] = static_cast<float>(envelope_swing(
            h_st[cands[ci]], h_tp * gamma.gamma_reflect * h_st[k],
            h_tp * gamma.gamma_absorb * h_st[k]));
      }
    }
    ch.delta_tt = delta_tt;
  }

  // Serving gateway per tag (kBestGateway): strongest tag->gateway link
  // of this block, fading and shadowing included; ties to the lowest
  // index. A single gateway always serves.
  auto serving = arena.alloc<std::size_t>(n_tags);
  for (std::size_t k = 0; k < n_tags; ++k) {
    serving[k] = strongest_link(std::span<const cf32>(h_tr).subspan(
                                    k * n_gw, n_gw),
                                0, [](std::size_t) { return true; });
  }
  ch.serving = serving;

  // Shared per-link reflection couplings, exactly as the synthesizer
  // folds them: every consumer — the analytic swing table, the per-slot
  // batched synthesis and the escalation path — reads these instead of
  // recomputing the product per (slot, tag, gateway).
  auto coup_on = arena.alloc<cf32>(n_tags * n_gw);
  auto coup_off = arena.alloc<cf32>(n_tags * n_gw);
  for (std::size_t k = 0; k < n_tags; ++k) {
    const auto& gamma = modulators_[k].states();
    for (std::size_t g = 0; g < n_gw; ++g) {
      coup_on[k * n_gw + g] =
          h_tr[k * n_gw + g] * gamma.gamma_reflect * h_st[k];
      coup_off[k * n_gw + g] =
          h_tr[k * n_gw + g] * gamma.gamma_absorb * h_st[k];
    }
  }
  ch.coup_on = coup_on;
  ch.coup_off = coup_off;

  // Per-slot harvest increments of each tag in its two activity states,
  // so the energy path is table adds instead of per-(tag, slot)
  // harvester evaluations.
  const double dt = slot_seconds();
  auto h_idle = arena.alloc<double>(n_tags);
  auto h_act = arena.alloc<double>(n_tags);
  for (std::size_t k = 0; k < n_tags; ++k) {
    const double p_inc = static_cast<double>(std::norm(h_st[k]));
    h_idle[k] = harvester_.harvest(p_inc * hf_idle_[k], dt);
    h_act[k] = harvester_.harvest(p_inc * hf_act_[k], dt);
  }
  ch.h_idle = h_idle;
  ch.h_act = h_act;

  // Analytic fast path: envelope swing of every (tag, gateway) link —
  // exact for the block-static channel — in SoA layout (`delta` feeds
  // the classifier, `half` is the in-range-masked half-swing the
  // interference fold adds).
  if (config_.fleet.classifier_runs()) {
    auto delta = arena.alloc<float>(n_tags * n_gw);
    auto half = arena.alloc<float>(n_tags * n_gw);
    for (std::size_t i = 0; i < n_tags * n_gw; ++i) {
      const std::size_t g = i % n_gw;
      delta[i] =
          static_cast<float>(envelope_swing(h_sr[g], coup_on[i], coup_off[i]));
      half[i] = in_range_[i] ? 0.5f * delta[i] : 0.0f;
    }
    ch.delta = delta;
    ch.half = half;
  }
  return ch;
}

double NetworkSimulator::slot_seconds() const {
  return static_cast<double>(slot_samples_) /
         config_.modem.data.rates.sample_rate_hz;
}

std::size_t NetworkSimulator::nearest_gateway(std::size_t k) const {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < gateway_device_.size(); ++g) {
    const double dist = channel::distance_m(
        scene_.device(tag_device_.at(k)).position,
        scene_.device(gateway_device_[g]).position);
    if (dist < best_dist) {
      best_dist = dist;
      best = g;
    }
  }
  return best;
}

GatewayFailover::GatewayFailover(const NetworkSimConfig& config,
                                 std::uint64_t trial_index,
                                 std::span<const std::size_t> serving,
                                 std::span<const cf32> h_tr)
    : any_gateway_(config.combining == GatewayCombining::kAnyGateway),
      n_gw_(h_tr.size() / serving.size()),
      config_(&config),
      h_tr_(h_tr),
      serving_(serving.begin(), serving.end()) {
  on_ = config.failover_streak_frames > 0 && n_gw_ > 1 && !any_gateway_;
  if (!on_) return;
  constexpr std::uint64_t kFailoverSalt = 0xfa110feedULL;
  rng_ = Rng::substream(config.seed ^ kFailoverSalt, trial_index);
  streak_.assign(serving.size(), 0);
  streak_start_.assign(serving.size(), 0);
  switches_.assign(serving.size(), 0);
  blacklist_until_.assign(serving.size() * n_gw_, 0);
}

void GatewayFailover::note(std::size_t k, bool delivered,
                           std::uint64_t start_slot, std::uint64_t learn_slot,
                           NetworkCounters& res) {
  if (!on_) return;
  if (delivered) {
    streak_[k] = 0;
    switches_[k] = 0;
    return;
  }
  if (streak_[k] == 0) streak_start_[k] = start_slot;
  if (++streak_[k] < config_->failover_streak_frames) return;
  const std::size_t old_g = serving_[k];
  const std::size_t holdoff = mac::failover_holdoff_slots(
      rng_, config_->failover_holdoff_slots, switches_[k],
      config_->failover_max_exponent);
  blacklist_until_[k * n_gw_ + old_g] = learn_slot + 1 + holdoff;
  const std::size_t best = strongest_link(
      h_tr_.subspan(k * n_gw_, n_gw_), old_g, [&](std::size_t g) {
        return blacklist_until_[k * n_gw_ + g] <= learn_slot;
      });
  if (best != old_g) {
    serving_[k] = best;
    ++res.failovers;
    res.time_to_failover_slots.add(
        static_cast<double>(learn_slot - streak_start_[k] + 1));
    ++switches_[k];
  }
  streak_[k] = 0;
}

NetworkTrialResult NetworkSimulator::run_trial(
    std::uint64_t trial_index) const {
  // One warm arena per thread: disjoint trials may run concurrently on
  // one simulator, and after warm-up no trial touches the heap for
  // synthesis scratch.
  thread_local SynthArena arena;
  return run_trial_impl<true>(trial_index, arena, nullptr);
}

NetworkTrialResult NetworkSimulator::run_trial(std::uint64_t trial_index,
                                               SynthArena& arena,
                                               TrialStageTimes* stages) const {
  return run_trial_impl<true>(trial_index, arena, stages);
}

NetworkTrialResult NetworkSimulator::run_trial_reference(
    std::uint64_t trial_index) const {
  thread_local SynthArena arena;
  return run_trial_impl<false>(trial_index, arena, nullptr);
}

/// One trial: its channel realisation and per-tag state, the named
/// parts — energy tracker, gateway failover, relay fabric, gateway-slot
/// synthesis, frame classifier, hybrid escalator — and every frame
/// transition, each written once. The `if constexpr (ActiveSet)` forks
/// here only pick the storage the engine's scans need. Escalation,
/// relay, fault and abort paths are [[gnu::noinline]]: cold code inlined
/// into the analytic slot loop costs fleet-analytic-10k slots/s.
template <bool ActiveSet>
struct NetworkSimulator::Trial {
  static constexpr std::uint32_t kNilTag = 0xffffffffu;

  const NetworkSimulator& sim;
  const std::uint64_t trial_index;
  SynthArena& arena;
  TrialStageTimes* const stages;  // null = untimed
  const NetworkSimConfig& cfg = sim.config_;
  const std::size_t n_tags = cfg.tags.size();
  const std::size_t n_gw = sim.gateway_device_.size();
  const std::size_t slots = cfg.slots_per_trial;
  const std::size_t slot_samples = sim.slot_samples_;
  const std::size_t total = slots * slot_samples;
  const std::size_t frame_slots = sim.frame_slots_;
  // Decode windows reach two bits past the burst (see TrialGeometry).
  const TrialGeometry geo{slots, slot_samples, frame_slots,
                          sim.burst_samples_,
                          2 * cfg.modem.data.rates.samples_per_bit()};
  // Fidelity policy (sim/fleet.hpp). All modes consume the trial RNG in
  // the identical order, so only the verdict mechanism differs.
  const bool waveform_all = cfg.fleet.fidelity == FidelityMode::kWaveform;
  const bool hybrid = cfg.fleet.fidelity == FidelityMode::kHybrid;
  const bool analytic_on = cfg.fleet.classifier_runs();
  const bool fd = sim.policy_->aborts_on_notify();  // notify aborts
  // Fault realisation (empty when injection is off), drawn from a salted
  // side substream; fault-free trials never enter a fault code path.
  const FaultPlan fplan = sim.injector_.plan(trial_index);
  const bool has_faults = fplan.any();

  NetworkTrialResult res;
  // Everything stochastic about this trial is keyed by (seed,
  // trial_index) — the purity contract the parallel runner needs. The
  // draw order is the carrier seed, the channel, the AWGN forks, then
  // the opening waits.
  Rng rng = Rng::substream(cfg.seed, trial_index);
  const std::uint64_t carrier_seed = rng();
  // Coherence block = trial index; a static channel reads the
  // construction cache (StaticFading consumes no draws).
  const ChannelTables ch =
      sim.static_channel_
          ? sim.static_channel_->tables
          : sim.build_channel(*channel::make_fading(cfg.fading, rng), rng,
                              trial_index, arena);
  const bool relay_on = cfg.relay.enabled && sim.relay_topo_.num_links() > 0;
  GatewayFailover failover{cfg, trial_index, ch.serving, ch.h_tr};
  RelayFabric relay = relay_on
                          ? RelayFabric(sim.relay_topo_, cfg.relay, frame_slots)
                          : RelayFabric();
  // Per-tag runtime state (constructed with the opening waits below),
  // the current frames' payloads, n_tags x payload_bytes, and the
  // kWaveform-only modulated antenna states.
  std::span<TagRt> rt = arena.alloc<TagRt>(n_tags);
  std::span<std::uint8_t> payloads =
      arena.alloc<std::uint8_t>(n_tags * cfg.payload_bytes);
  std::vector<std::vector<std::uint8_t>> wave_states;
  EnergyTracker energy{cfg, ch.h_idle, ch.h_act, sim.slot_seconds(),
                       res.tags, arena};
  // Forks the per-gateway AWGN streams in every mode; only the sample
  // modes build the carrier (kAnalytic never touches samples).
  GatewaySlotSynth synth{
      geo,
      waveform_all || hybrid
          ? channel::make_ambient_source(cfg.carrier, carrier_seed)
          : nullptr,
      ch.h_sr, ch.coup_on, ch.coup_off, cfg.noise_power_w(), rng, sim.tx_,
      fplan, arena};
  FrameClassifier classifier{sim.resolver_, ch.delta, n_gw, frame_slots,
                             fplan, arena};
  std::optional<HybridEscalator> esc;  // kHybrid only

  // kWaveform receive chains: the RC envelope state carried across
  // slots and a full-trial envelope history per gateway.
  std::span<dsp::EnvelopeDetector> envelopes{};
  std::span<float> env_buf{};
  std::span<cf32> rx_slot{};

  // Analytic interference over the channel's swing tables: the active
  // engine folds a running per-(tag, gateway) max while the frame is on
  // air, the reference keeps per-(gateway, slot) sum rows and rescans
  // the frame window (max is exact and order-independent, hence
  // bit-identical).
  std::span<float> i_max{}, i_sum{};

  // Slot-engine bookkeeping. `active` holds the on-air tags ascending;
  // the active engine keeps pending waits as wake events in per-slot
  // intrusive lists — headA backoff expiries, headD verdict-wait
  // expiries; a tag holds one counter at a time, so one `next` array
  // links both.
  std::vector<std::size_t> active;
  std::size_t n_waiting = 0;  // tags in WaitVerdict
  std::uint64_t idle_wait_slots = 0;
  std::span<std::uint32_t> headA{}, headD{}, bucket_next{}, fired{};

  double verdict_acc = 0.0;  // resolve time incl. escalation (wall s)
  double esc_acc = 0.0;      // escalation share of verdict_acc

  Trial(const NetworkSimulator& s, std::uint64_t trial, SynthArena& a,
        TrialStageTimes* st)
      : sim(s), trial_index(trial), arena(a), stages(st) {
    res.tags.resize(n_tags);
    res.gateway_decodes.resize(n_gw);
    res.slots = slots;
    if (cfg.fleet.record_frames) start_digests(res.envelope_digest, n_gw);
    if (waveform_all) {
      // kWaveform materialises the whole trial's carrier up front; kHybrid
      // streams the prefix its escalated windows reach (the source is
      // sequential, so the prefix is the same either way).
      synth.ensure_carrier(total);
      static_assert(std::is_trivially_destructible_v<dsp::EnvelopeDetector>);
      envelopes = arena.alloc<dsp::EnvelopeDetector>(n_gw);
      for (std::size_t g = 0; g < n_gw; ++g) {
        std::construct_at(&envelopes[g], sim.synth_.make_envelope());
      }
      // Not zeroed: synthesize_slot writes every sample of every row
      // before a decode window or the digest reads it.
      env_buf = arena.alloc<float>(n_gw * total);
      rx_slot = arena.alloc<cf32>(slot_samples);
    }
    if (analytic_on) {
      if constexpr (ActiveSet) {
        i_max = arena.alloc<float>(n_tags * n_gw);  // rows zeroed per frame
      } else {
        i_sum = arena.alloc_zeroed<float>(n_gw * slots);
      }
    }
    if (hybrid) {
      esc.emplace(geo, n_tags, sim.in_range_, synth, sim.synth_, sim.rx_,
                  cfg.payload_bytes, res.envelope_digest, arena);
    }

    // MAC setup: the policy hands out the trial-opening waits;
    // contention policies draw from the trial Rng in the identical
    // order the pre-extraction loop did, the scheduled policy computes
    // cell distances without touching it.
    active.reserve(n_tags);
    if (waveform_all) wave_states.resize(n_tags);
    for (std::size_t k = 0; k < n_tags; ++k) {
      TagRt& tag = *std::construct_at(&rt[k]);
      tag.counter = sim.policy_->initial_wait(k, tag.mac, rng);
    }
    if constexpr (ActiveSet) {
      headA = arena.alloc<std::uint32_t>(slots);
      headD = arena.alloc<std::uint32_t>(slots);
      std::fill(headA.begin(), headA.end(), kNilTag);
      std::fill(headD.begin(), headD.end(), kNilTag);
      bucket_next = arena.alloc<std::uint32_t>(n_tags);
      fired = arena.alloc<std::uint32_t>(n_tags);
      // An initial counter c is examined from slot 0 with the
      // `counter == 0 || --counter == 0` convention: c <= 1 fires at
      // slot 0, otherwise at slot c - 1.
      for (std::size_t k = 0; k < n_tags; ++k) {
        const std::size_t c = rt[k].counter;
        schedule(headA, k, c <= 1 ? 0 : static_cast<std::uint64_t>(c) - 1);
      }
    }
  }

  // --- Wake scheduling ---------------------------------------------------

  /// Files tag k under `fire_slot` in a wake list; a wait whose expiry
  /// lands past the trial is not scheduled (the countdown never reaches
  /// zero in-trial either).
  void schedule(std::span<std::uint32_t> heads, std::size_t k,
                std::uint64_t fire_slot) {
    if (fire_slot >= slots) return;
    bucket_next[k] = heads[fire_slot];
    heads[fire_slot] = static_cast<std::uint32_t>(k);
  }

  /// Collects and sorts the tags filed under `slot`: ascending order
  /// reproduces the countdown scan's ascending-k visits — and therefore
  /// its RNG draw order — exactly.
  std::span<const std::uint32_t> fire(std::span<std::uint32_t> heads,
                                      std::uint64_t slot) {
    std::size_t n = 0;
    for (std::uint32_t t = heads[slot]; t != kNilTag; t = bucket_next[t]) {
      fired[n++] = t;
    }
    heads[slot] = kNilTag;
    std::sort(fired.begin(), fired.begin() + n);
    return fired.first(n);
  }

  /// Tag k's counter c was assigned while processing `slot`: the
  /// countdown first examines it at slot + 1, so the active engine files
  /// it under slot + max(c, 1).
  void arm(std::span<std::uint32_t> heads, std::size_t k, std::uint64_t slot) {
    if constexpr (ActiveSet) {
      schedule(heads, k, slot + std::max<std::uint64_t>(rt[k].counter, 1));
    }
  }

  void redraw_wait(std::size_t k, std::uint64_t slot) {
    rt[k].counter = sim.policy_->next_wait(k, slot, rt[k].mac, rng);
    arm(headA, k, slot);
  }

  // --- Frame transitions -------------------------------------------------

  /// Phase A: tag k's backoff expired at `slot`. A frame that could not
  /// fully resolve inside the trial is not started (the tag parks past
  /// the horizon); a gated tag that cannot afford the frame counts an
  /// outage and backs off again; otherwise the frame starts.
  void wake(std::size_t k, std::uint64_t slot) {
    if (slot + frame_slots + 2 > slots) {
      rt[k].counter = slots;
      return;
    }
    energy.catch_up(k, slot);  // gating reads storage: bring it current
    if (cfg.energy_gating && energy.level_j(k) < sim.frame_cost_j_) {
      ++res.tags[k].energy_outages;
      redraw_wait(k, slot);
      return;
    }
    start_frame(k, slot);
    active.insert(std::lower_bound(active.begin(), active.end(), k), k);
    if constexpr (ActiveSet) {
      if (analytic_on) std::fill_n(i_max.begin() + k * n_gw, n_gw, 0.0f);
    }
  }

  /// Frame start: the same bookkeeping (and Rng draw sequence) in both
  /// engines. A queued forward outranks fresh traffic and draws no
  /// payload: the scheduled MAC never touches the trial Rng either, so
  /// the draw sequence is a pure function of the queue evolution.
  void start_frame(std::size_t k, std::uint64_t slot) {
    TagRt& tag = rt[k];
    const std::span<std::uint8_t> bytes = payload(k);
    tag.st = TagRt::St::kTx;
    tag.progress = 0;
    tag.start_slot = static_cast<std::uint32_t>(slot);
    tag.overlapped = false;
    tag.forwarding = false;
    if (relay_on) {
      if (auto f = relay.pop(k, res)) {
        tag.forwarding = true;
        tag.fwd_originator = f->originator;
        tag.fwd_hops = f->hops;
        assert(f->payload.size() == bytes.size());
        std::copy(f->payload.begin(), f->payload.end(), bytes.begin());
      }
    }
    if (!tag.forwarding) {
      ++res.tags[k].frames_attempted;
      for (auto& byte : bytes) {
        byte = static_cast<std::uint8_t>(rng.uniform_int(256));
      }
    }
    // Antenna states are only modulated where samples are needed:
    // per-slot synthesis (kWaveform) now, escalated windows (kHybrid)
    // lazily from the frame log, never in kAnalytic.
    if (waveform_all) {
      wave_states[k] =
          synth.frame_states(static_cast<std::uint32_t>(k), slot, bytes);
    } else if (hybrid) {
      esc->log_frame(k, slot, bytes);
    }
  }

  /// Tag k's current frame payload.
  std::span<std::uint8_t> payload(std::size_t k) const {
    return payloads.subspan(k * cfg.payload_bytes, cfg.payload_bytes);
  }

  /// Phase C for on-air tag k: progress, overlap, aborts, frame end.
  /// Returns whether the tag is still on air after this slot.
  bool advance(std::size_t k, std::uint64_t slot, bool collision_now) {
    TagRt& tag = rt[k];
    ++tag.progress;
    if (collision_now && !tag.overlapped) {
      tag.overlapped = true;
      tag.overlap_start = static_cast<std::uint32_t>(slot);
    }
    if (energy.take_brownout(k)) {
      // Storage emptied under the switch drive: the frame dies on air.
      abort_frame(k, slot, Loss::kBrownout);
      return false;
    }
    if (notified(k, slot)) {
      abort_frame(k, slot, Loss::kNotified);
      return false;
    }
    if (tag.progress < frame_slots) return true;
    // Frame fully on air. The policy decides the drain: one slot for the
    // final block verdict (notify / scheduled), the ACK timeout for the
    // timeout MAC.
    tag.st = TagRt::St::kWaitVerdict;
    tag.counter = sim.policy_->verdict_wait_slots();
    tag.wait_entered_now = true;
    ++n_waiting;
    arm(headD, k, slot);
    return false;
  }

  /// Whether a collision notification has reached tag k by `slot`:
  /// latency counts from the overlap's start, not the frame's. Under
  /// faults only a gateway alive when the overlap began can notify, so
  /// an outage leaves the tag burning the collided frame until a slower
  /// healthy gateway's notice arrives (what failover responds to).
  bool notified(std::size_t k, std::uint64_t slot) const {
    const TagRt& tag = rt[k];
    if (!fd || !tag.overlapped) return false;
    const std::uint64_t waited = slot - tag.overlap_start + 1;
    if (!has_faults) return waited >= sim.notify_slots_[k];
    for (std::size_t g = 0; g < n_gw; ++g) {
      if (waited >= sim.notify_pg_[k * n_gw + g] &&
          fplan.gateway_alive(g, tag.overlap_start)) {
        return true;
      }
    }
    return false;
  }

  /// Kills tag k's frame on air at `slot` and returns it to backoff.
  [[gnu::noinline]] void abort_frame(std::size_t k, std::uint64_t slot,
                                     Loss how) {
    fail_frame(k, slot, how);
    if (has_faults) tally_faults(k, /*delivered=*/false);
    if (how == Loss::kNotified) sim.policy_->on_notify_abort(k, rt[k].mac);
    rt[k].st = TagRt::St::kBackoff;
    redraw_wait(k, slot);
  }

  /// The fault-exposure tally of tag k's frame (tally_fault_exposure).
  void tally_faults(std::size_t k, bool delivered) {
    tally_fault_exposure(fplan, failover, n_gw, k, rt[k].start_slot,
                         rt[k].start_slot + frame_slots, delivered, res);
  }

  /// Phase D: tag k's verdict wait expired at `slot`.
  void finish_wait(std::size_t k, std::uint64_t slot) {
    resolve_frame(k, slot, /*update_mac=*/true);
    rt[k].st = TagRt::St::kBackoff;
    --n_waiting;
    redraw_wait(k, slot);
  }

  /// The one tally of a lost frame. A forward's loss is a fabric drop
  /// (the relay's own per-tag counters stay untouched). Otherwise an
  /// overlapped frame is a collision, timed from its first overlapped
  /// slot to `learn_slot` unless it browned out; a clean one the PHY
  /// still lost is a sync failure.
  void fail_frame(std::size_t k, std::uint64_t learn_slot, Loss how) {
    const TagRt& tag = rt[k];
    if (relay_on && tag.forwarding) {
      relay.drop(tag.fwd_originator, learn_slot, res);
      return;
    }
    if (how != Loss::kVerdict) ++res.tags[k].frames_aborted;
    if (tag.overlapped) {
      ++res.tags[k].frames_collided;
      ++res.collisions;
      if (how != Loss::kBrownout) {
        res.detect_latency_slots.add(
            static_cast<double>(learn_slot - tag.overlap_start + 1));
      }
    } else if (how == Loss::kVerdict) {
      ++res.sync_failures;
    }
  }

  /// Credits tag k's delivered frame (a forward to its originator).
  void deliver_frame(std::size_t k) {
    const TagRt& tag = rt[k];
    const bool fwd = relay_on && tag.forwarding;
    const std::size_t owner = fwd ? tag.fwd_originator : k;
    ++res.tags[owner].frames_delivered;
    res.tags[owner].payload_bits_delivered += cfg.payload_bytes * 8;
    if (fwd) {
      ++res.relayed_delivered;
      res.relay_hops.add(static_cast<double>(tag.fwd_hops + 1));
      relay.delivered(tag.fwd_originator);
    }
    res.useful_slots += frame_slots;
  }

  /// Trial end. Attempts still waiting on a verdict have fully
  /// synthesized frames (starts are parked otherwise): they resolve for
  /// the stats without MAC consequences. Frames still sitting in
  /// forwarding queues never reached a gateway: fabric drops.
  NetworkTrialResult finish(Clock::time_point t_loop) {
    if (n_waiting > 0) {
      for (std::size_t k = 0; k < n_tags; ++k) {
        if (rt[k].st == TagRt::St::kWaitVerdict) {
          resolve_frame(k, slots - 1, /*update_mac=*/false);
        }
      }
    }
    for (std::size_t k = 0; k < n_tags; ++k) energy.settle(k, slots);
    res.relay_drops += relay.backlog();
    res.gateway_slots_synthesized = synth.gateway_slots();
    if (waveform_all && cfg.fleet.record_frames) {
      fold_histories(res.envelope_digest, env_buf, total);
    }
    res.wasted_slots = std::max(res.busy_slots, res.useful_slots) -
                       res.useful_slots + idle_wait_slots;
    if (stages) {
      // Pure measurement: the verdict/escalation shares were accumulated
      // at their dispatch sites; the slot-loop share is the remainder.
      stages->slot_loop_s += seconds_since(t_loop) - verdict_acc;
      stages->verdict_s += verdict_acc - esc_acc;
      stages->escalate_s += esc_acc;
    }
    return std::move(res);
  }

  // --- Slot synthesis and interference -----------------------------------

  /// kWaveform Phase B: each gateway runs the fused kernel over every
  /// on-air tag's mask block for this slot (the zero-padded modulated
  /// frames make each a plain pointer view), then its RC envelope state.
  [[gnu::noinline]] void synthesize_slot(std::uint64_t slot) {
    const std::size_t base = static_cast<std::size_t>(slot) * slot_samples;
    for (std::size_t g = 0; g < n_gw; ++g) {
      for (std::size_t e = 0; e < active.size(); ++e) {
        const std::size_t k = active[e];
        synth.stage(e, k, g,
                    wave_states[k].data() +
                        static_cast<std::size_t>(slot - rt[k].start_slot) *
                            slot_samples);
      }
      synth.synthesize(g, slot, active.size(), rx_slot);
      envelopes[g].process(rx_slot,
                           env_buf.subspan(g * total + base, slot_samples));
    }
  }

  /// This slot's sum of in-range on-air half-swings at gateway g. Under
  /// faults it mirrors the synthesis transform: the swings scale with
  /// the carrier sag and the gateway attenuation, and burst-interferer
  /// envelopes arrive over the air (so they pass the attenuation too).
  float slot_interference(std::size_t g, std::uint64_t slot) const {
    float sum = 0.0f;
    for (const std::size_t k : active) {
      if (sim.in_range_[k * n_gw + g]) sum += ch.half[k * n_gw + g];
    }
    if (has_faults) {
      sum = sum * fplan.signal_scale(g, slot) +
            fplan.interferer_env(g, slot) * fplan.gateway_atten(g, slot);
    }
    return sum;
  }

  /// Phase B interference bookkeeping. The active engine maxes the
  /// slot's sums into every on-air tag's running window maximum — a
  /// frame is on air over exactly [start, start + frame) slots, so the
  /// maxima cover the window the reference rescans. The reference
  /// writes sum rows, every slot under faults (an interferer raises the
  /// sum even with no tag on air).
  void fold_interference(std::uint64_t slot) {
    if constexpr (ActiveSet) {
      if (active.empty()) return;
      for (std::size_t g = 0; g < n_gw; ++g) {
        const float sum = slot_interference(g, slot);
        for (const std::size_t k : active) {
          float& m = i_max[k * n_gw + g];
          if (sum > m) m = sum;
        }
      }
    } else {
      if (active.empty() && !has_faults) return;
      for (std::size_t g = 0; g < n_gw; ++g) {
        i_sum[g * slots + slot] = slot_interference(g, slot);
      }
    }
  }

  /// Worst-case concurrent interference a frame of tag k saw at gateway
  /// g: the max over its on-air slots of the interference sum, minus the
  /// tag's own contribution. Under faults the own share uses the
  /// *minimum* window scale — subtracting the least the tag could have
  /// contributed keeps the residual an over-estimate, the safe side for
  /// the one-sided classifier.
  double worst_interference(std::size_t k, std::size_t g) const {
    const std::uint64_t lo = rt[k].start_slot;
    float worst = 0.0f;
    if constexpr (ActiveSet) {
      worst = i_max[k * n_gw + g];
    } else {
      for (std::uint64_t s = lo; s < lo + frame_slots; ++s) {
        worst = std::max(worst, i_sum[g * slots + s]);
      }
    }
    double own = sim.in_range_[k * n_gw + g]
                     ? 0.5 * static_cast<double>(ch.delta[k * n_gw + g])
                     : 0.0;
    if (has_faults) own *= fplan.min_signal_scale(g, lo, lo + frame_slots);
    return std::max(0.0, static_cast<double>(worst) - own);
  }

  // --- Verdict resolver --------------------------------------------------

  /// Resolves tag k's completed frame, learned by the transmitter at
  /// `learn_slot`: a relay child's hop through the fabric, anything else
  /// at the gateways. Also the stage-timing boundary for verdicts
  /// (escalation time is carved out inside escalate).
  void resolve_frame(std::size_t k, std::uint64_t learn_slot,
                     bool update_mac) {
    const auto t0 = stages ? Clock::now() : Clock::time_point{};
    if (relay.routes(k)) {
      resolve_hop(k, learn_slot, update_mac);
    } else {
      resolve_verdict(k, learn_slot, update_mac);
    }
    if (stages) verdict_acc += seconds_since(t0);
  }

  /// A relay child's frame is judged at its parent tag by the analytic
  /// envelope-swing margin of the hop link, in every fidelity mode —
  /// no sample-level receiver exists at a tag.
  [[gnu::noinline]] void resolve_hop(std::size_t k, std::uint64_t learn_slot,
                                     bool update_mac) {
    TagRt& tag = rt[k];
    const double margin =
        sim.resolver_.margin_db(ch.delta_tt[relay.link(k)], 0.0);
    const std::span<const std::uint8_t> bytes = payload(k);
    QueuedFrame frame{tag.forwarding ? tag.fwd_originator
                                     : static_cast<std::uint32_t>(k),
                      tag.forwarding ? tag.fwd_hops + 1 : 1,
                      {bytes.begin(), bytes.end()}};
    const bool delivered = relay.resolve_hop(
        k, !tag.overlapped, margin, std::move(frame), learn_slot, res);
    if (update_mac) sim.policy_->on_outcome(k, delivered, tag.mac);
    if (!delivered) fail_frame(k, learn_slot, Loss::kVerdict);
  }

  /// Resolves tag k's frame at the gateways and applies the combining
  /// policy to stats and MAC state. The classifier runs in the fleet
  /// modes (and beside kWaveform when frames are recorded); then
  /// kWaveform decodes every gateway's envelope history, kAnalytic takes
  /// the band's verdict or its point estimate, and kHybrid escalates
  /// contested frames back to synthesis.
  void resolve_verdict(std::size_t k, std::uint64_t learn_slot,
                       bool update_mac) {
    TagRt& tag = rt[k];
    const bool fwd = relay_on && tag.forwarding;
    const FrameClass fc =
        analytic_on ? classifier.classify(
                          k, tag.start_slot, fwd, failover,
                          [&](std::size_t g) { return worst_interference(k, g); })
                    : FrameClass{};
    bool delivered = false;
    bool escalated = false;
    if (waveform_all) {
      delivered = decode_waveform(k);
    } else {
      switch (fc.combined) {
        case LinkVerdict::kClearDeliver:
          delivered = true;
          for (std::size_t g = 0; g < n_gw; ++g) {
            if (classifier.verdicts()[g] == LinkVerdict::kClearDeliver) {
              ++res.gateway_decodes[g];
            }
          }
          break;
        case LinkVerdict::kClearFail:
          break;
        case LinkVerdict::kContested:
          if (hybrid) {
            delivered = escalate(k);
            escalated = true;
          } else if (!fc.own_stuck) {
            // Point estimate at the band centre; a jammed switch put no
            // modulation on the air at all, and a drifted burst must
            // still fit the decode window's tail.
            delivered = fc.best_margin >= 0.0 &&
                        fc.own_shift <= geo.tail_samples;
            if (delivered) ++res.gateway_decodes[fc.best_g];
          }
          break;
      }
      ++(escalated ? res.frames_escalated : res.frames_resolved_analytic);
      if (sim.culled_[k]) ++res.frames_culled;
    }

    if (cfg.fleet.record_frames) {
      res.frames.push_back({static_cast<std::uint32_t>(k), tag.start_slot,
                            tag.overlapped, fc.combined, fc.best_margin,
                            delivered, escalated});
    }
    if (has_faults) tally_faults(k, delivered);
    if (update_mac) {
      if (!fwd) failover.note(k, delivered, tag.start_slot, learn_slot, res);
      sim.policy_->on_outcome(k, delivered, tag.mac);
    }
    if (delivered) {
      deliver_frame(k);
    } else {
      fail_frame(k, learn_slot, Loss::kVerdict);
    }
  }

  /// The per-gateway decode check: counts a decode of tag k's frame at
  /// gateway g and returns whether it delivers the frame under the
  /// combining rule (any gateway, or the serving one).
  bool decoded_at(std::size_t k, std::size_t g, const core::FdRxResult& r) {
    const bool ok = r.status != Status::kSyncNotFound &&
                    r.blocks.blocks_failed == 0 &&
                    std::ranges::equal(r.blocks.payload, payload(k));
    if (ok) ++res.gateway_decodes[g];
    return ok && failover.listens(k, g);
  }

  /// kWaveform: decodes tag k's window from every gateway's history.
  [[gnu::noinline]] bool decode_waveform(std::size_t k) {
    const TrialGeometry::Window w = geo.decode_window(rt[k].start_slot);
    bool delivered = false;
    for (std::size_t g = 0; g < n_gw; ++g) {
      const auto window = std::span<const float>(env_buf).subspan(
          g * total + w.lo, w.hi - w.lo);
      delivered |= decoded_at(
          k, g, sim.rx_.demodulate(window, {}, cfg.payload_bytes));
    }
    return delivered;
  }

  /// kHybrid: tag k's contested frame through the escalator.
  [[gnu::noinline]] bool escalate(std::size_t k) {
    const auto esc_t0 = stages ? Clock::now() : Clock::time_point{};
    const bool delivered = esc->escalate(
        rt[k].start_slot, classifier.verdicts(), classifier.margins(),
        [&](std::size_t g, const core::FdRxResult& r) {
          return decoded_at(k, g, r);
        });
    if (stages) esc_acc += seconds_since(esc_t0);
    return delivered;
  }
};

template <bool ActiveSet>
NetworkTrialResult NetworkSimulator::run_trial_impl(
    std::uint64_t trial_index, SynthArena& arena,
    TrialStageTimes* stages) const {
  const auto t_entry = stages ? Clock::now() : Clock::time_point{};
  arena.reset();
  Trial<ActiveSet> t(*this, trial_index, arena, stages);
  const std::size_t n_tags = t.n_tags;
  const std::size_t slots = t.slots;
  const std::span<TagRt> rt = t.rt;
  std::vector<std::size_t>& active = t.active;
  const auto t_loop = stages ? Clock::now() : Clock::time_point{};
  if (stages) {
    stages->setup_s += std::chrono::duration<double>(t_loop - t_entry).count();
  }

  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    // --- Phase A: backoff expiries; frame starts (energy-gated) -------
    if constexpr (ActiveSet) {
      for (const std::uint32_t k : t.fire(t.headA, slot)) t.wake(k, slot);
    } else {
      for (std::size_t k = 0; k < n_tags; ++k) {
        TagRt& tag = rt[k];
        tag.wait_entered_now = false;
        if (tag.st != TagRt::St::kBackoff) continue;
        if (tag.counter == 0 || --tag.counter == 0) t.wake(k, slot);
      }
    }

    // --- Phase B: channel synthesis + energy accounting ---------------
    // The active engine keeps `active` incrementally (sorted inserts in
    // Phase A, compaction in Phase C) and counts WaitVerdict residents;
    // the reference rebuilds both by scanning every tag.
    bool any_waiting = t.n_waiting > 0;
    if constexpr (!ActiveSet) {
      active.clear();
      any_waiting = false;
      for (std::size_t k = 0; k < n_tags; ++k) {
        if (rt[k].st == TagRt::St::kTx) active.push_back(k);
        if (rt[k].st == TagRt::St::kWaitVerdict) any_waiting = true;
      }
    }
    if (!active.empty()) {
      ++t.res.busy_slots;
    } else if (any_waiting) {
      ++t.idle_wait_slots;  // dead air while timers / verdict drains run
    }
    // The fleet modes skip per-slot synthesis: the analytic path tracks
    // interference sums instead, and kHybrid re-synthesizes only the
    // windows its contested frames demand.
    if (t.waveform_all) t.synthesize_slot(slot);
    if (t.analytic_on) t.fold_interference(slot);
    if (t.hybrid) t.esc->index_slot(slot, t.active);
    if constexpr (ActiveSet) {
      for (const std::size_t k : active) t.energy.step(k, slot, true);
    } else {
      for (std::size_t k = 0; k < n_tags; ++k) {
        t.energy.step(k, slot, rt[k].st == TagRt::St::kTx);
      }
    }

    // --- Phase C: transmission progress, overlap, aborts, frame end ---
    const bool collision_now = active.size() >= 2;
    std::size_t keep = 0;  // compacts in place, keeping the order
    for (const std::size_t k : active) {
      if (t.advance(k, slot, collision_now)) active[keep++] = k;
    }
    active.resize(keep);

    // --- Phase D: verdict waits resolve -------------------------------
    if constexpr (ActiveSet) {
      for (const std::uint32_t k : t.fire(t.headD, slot)) {
        t.finish_wait(k, slot);
      }
    } else {
      for (std::size_t k = 0; k < n_tags; ++k) {
        TagRt& tag = rt[k];
        if (tag.st != TagRt::St::kWaitVerdict || tag.wait_entered_now) {
          continue;
        }
        if (tag.counter == 0 || --tag.counter == 0) t.finish_wait(k, slot);
      }
    }
  }
  return t.finish(t_loop);
}

NetworkSimSummary NetworkSimulator::run(std::size_t n) const {
  NetworkSimSummary summary;
  for (std::size_t t = 0; t < n; ++t) summary.add(run_trial(t));
  return summary;
}

}  // namespace fdb::sim
