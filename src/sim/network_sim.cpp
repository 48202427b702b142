#include "sim/network_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "channel/ambient_source.hpp"
#include "channel/fading.hpp"
#include "channel/impairments.hpp"
#include "dsp/envelope.hpp"
#include "sim/link_budget.hpp"

namespace fdb::sim {
namespace {

// NetworkTrialResult::envelope_digest, FNV-1a over the float bit
// patterns, one 32-bit word per step. The helpers run only with
// FleetConfig::record_frames. They stay cold and out of line so the
// slot engine gains only a guarded call per site: its speed on the
// analytic workloads is sensitive to its code layout, and the same
// digest written inline cost fleet-analytic-10k about 15% slots/s.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

[[gnu::cold, gnu::noinline]] void start_digests(
    std::vector<std::uint64_t>& digests, std::size_t n_gw) {
  digests.assign(n_gw, kFnvOffset);
}

[[gnu::cold, gnu::noinline]] void fold_digest(std::uint64_t& h,
                                              std::span<const float> x) {
  for (const float v : x) {
    h = (h ^ std::bit_cast<std::uint32_t>(v)) * kFnvPrime;
  }
}

/// Folds each gateway's full-trial envelope history (row g of
/// `histories`, `total` samples each) into its digest.
[[gnu::cold, gnu::noinline]] void fold_histories(
    std::vector<std::uint64_t>& digests, std::span<const float> histories,
    std::size_t total) {
  for (std::size_t g = 0; g < digests.size(); ++g) {
    fold_digest(digests[g], histories.subspan(g * total, total));
  }
}

/// Runtime state of one tag inside a trial. The slot-domain machine
/// mirrors mac/collision.cpp, but verdicts come from the PHY decode of
/// the synthesized gateway streams instead of the abstract collided
/// flag, and starts are gated by the energy store.
struct TagRt {
  enum class St { kBackoff, kTx, kWaitVerdict };
  St st = St::kBackoff;
  std::size_t counter = 0;   // slots remaining in backoff / verdict wait
  std::size_t progress = 0;  // on-air slots of the current frame
  mac::TagMacState mac;      // policy state (failure class / BEB exponent)
  bool wait_entered_now = false;  // skip the tick the slot we enter wait
  bool brownout_now = false;      // energy ran out during this slot

  // Current frame attempt.
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> states;  // per-sample antenna states
  std::uint64_t start_slot = 0;
  bool overlapped = false;
  std::uint64_t overlap_start = 0;
  std::uint32_t frame_id = 0;  // index into the hybrid-mode frame log

  // Relaying: set when the current frame is a forward of another tag's
  // traffic rather than fresh local data.
  bool forwarding = false;
  std::uint32_t fwd_originator = 0;
  std::uint32_t fwd_hops = 0;  // hops the forward has already taken

  energy::Storage storage;
  energy::EnergyLedger ledger;

  TagRt(const energy::StorageParams& sp, const energy::PowerProfile& pp)
      : storage(sp), ledger(pp) {}
};

/// One started frame in the hybrid-mode log. The analytic fast path
/// never modulates antenna states; an escalated window regenerates them
/// on demand from the logged payload (tx_.modulate is deterministic)
/// and memoizes, so repeat escalations touching the same interferer
/// frame pay the modulation once.
struct FrameLog {
  std::uint32_t tag = 0;
  std::uint64_t start_slot = 0;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> states;  // empty until first escalation
};

/// One frame sitting in a relay's forwarding queue, waiting for the
/// relay's next owned slotframe cell.
struct QueuedFrame {
  std::uint32_t originator = 0;  // tag whose fresh frame this carries
  std::uint32_t hops = 0;        // hops taken to reach this queue
  std::vector<std::uint8_t> payload;
};

}  // namespace

double NetworkSimConfig::noise_power_w() const {
  if (noise_power_override_w >= 0.0) return noise_power_override_w;
  return channel::thermal_noise_power(modem.data.rates.sample_rate_hz,
                                      noise_figure_db);
}

void NetworkSimConfig::validate() const {
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
  // OnePole::from_cutoff only asserts a positive cutoff, and Release
  // builds drop the assert: 0 gives a dead envelope that fails every
  // frame silently, a negative or NaN multiplier a meaningless pole.
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
  if (!(notify_slots_per_m >= 0.0)) {
    throw std::invalid_argument(
        "NetworkSimConfig: notify_slots_per_m must be non-negative, got " +
        std::to_string(notify_slots_per_m));
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
  std::uint64_t n = 0;
  for (const auto& t : tags) n += t.frames_attempted;
  return n;
}

std::uint64_t NetworkSimSummary::frames_delivered() const {
  std::uint64_t n = 0;
  for (const auto& t : tags) n += t.frames_delivered;
  return n;
}

std::uint64_t NetworkSimSummary::bits_delivered() const {
  std::uint64_t n = 0;
  for (const auto& t : tags) n += t.payload_bits_delivered;
  return n;
}

std::uint64_t NetworkSimSummary::energy_outages() const {
  std::uint64_t n = 0;
  for (const auto& t : tags) n += t.energy_outages;
  return n;
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
  assert(config_.modem.consistent());

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

  // Fleet engine: margin classifier (only built when a mode uses it —
  // kWaveform without frame recording may carry an unchecked target
  // BER) and the spatial-culling index. Each gateway queries its
  // interference disk out of the tag-position grid; the union defines
  // the per-(tag, gateway) in-range mask and the culled set.
  const bool classifier_used =
      config_.fleet.fidelity != FidelityMode::kWaveform ||
      config_.fleet.record_frames;
  if (classifier_used) {
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
    // The fold replays the exact add sequence the per-slot sweep
    // performs, so crediting it in one += at trial end is bit-identical.
    st->idle_sum.resize(config_.tags.size());
    for (std::size_t k = 0; k < config_.tags.size(); ++k) {
      double acc = 0.0;
      for (std::size_t s = 0; s < config_.slots_per_trial; ++s) {
        acc += st->tables.h_idle[k];
      }
      st->idle_sum[k] = acc;
    }
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
    std::size_t best = 0;
    float best_mag = std::abs(h_tr[k * n_gw]);
    for (std::size_t g = 1; g < n_gw; ++g) {
      const float mag = std::abs(h_tr[k * n_gw + g]);
      if (mag > best_mag) {
        best_mag = mag;
        best = g;
      }
    }
    serving[k] = best;
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
  if (config_.fleet.fidelity != FidelityMode::kWaveform ||
      config_.fleet.record_frames) {
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

NetworkTrialResult NetworkSimulator::run_trial_reference(
    std::uint64_t trial_index, SynthArena& arena,
    TrialStageTimes* stages) const {
  return run_trial_impl<false>(trial_index, arena, stages);
}

template <bool ActiveSet>
NetworkTrialResult NetworkSimulator::run_trial_impl(
    std::uint64_t trial_index, SynthArena& arena,
    TrialStageTimes* stages) const {
  using Clock = std::chrono::steady_clock;
  const bool timed = stages != nullptr;
  const auto t_entry = timed ? Clock::now() : Clock::time_point{};
  double verdict_acc = 0.0;  // resolve time incl. escalation (wall s)
  double esc_acc = 0.0;      // escalation share of verdict_acc

  arena.reset();
  const std::size_t n_tags = config_.tags.size();
  const std::size_t n_gw = gateway_device_.size();
  const std::size_t slots = config_.slots_per_trial;
  const std::size_t total = slots * slot_samples_;
  const double dt = slot_seconds();

  NetworkTrialResult res;
  res.tags.resize(n_tags);
  res.gateway_decodes.resize(n_gw);
  res.slots = slots;
  if (config_.fleet.record_frames) start_digests(res.envelope_digest, n_gw);

  // Fault realisation of this trial (empty when injection is disabled).
  // The plan draws from a salted side substream, so the main trial
  // randomness below is untouched by it; every fault code path in this
  // function is guarded by `has_faults`, keeping fault-free trials
  // bit-identical to the pre-fault engine.
  const FaultPlan fplan = injector_.plan(trial_index);
  const bool has_faults = fplan.any();

  // Fidelity policy (sim/fleet.hpp). All modes consume the trial RNG in
  // the identical order — source seed, fade draws, per-gateway noise
  // forks, backoff/payload draws — so the MAC evolution and channel
  // realisation of a trial are mode-independent and only the verdict
  // mechanism differs.
  const FleetConfig& fleet = config_.fleet;
  const bool waveform_all = fleet.fidelity == FidelityMode::kWaveform;
  const bool hybrid = fleet.fidelity == FidelityMode::kHybrid;
  const bool analytic_on = !waveform_all || fleet.record_frames;

  // Everything stochastic about this trial lives on the stack, keyed by
  // (seed, trial_index) — the purity contract the parallel runner needs.
  Rng rng = Rng::substream(config_.seed, trial_index);
  const auto source = channel::make_ambient_source(config_.carrier, rng());

  // Channel realisation of this trial: coherence block = trial index,
  // fading drawn from the trial generator right after the source seed.
  // With a static channel every table is trial-invariant and the trial
  // reads the construction cache instead — zero RNG draws skipped, since
  // StaticFading consumes none, so the rest of the trial's draw sequence
  // is untouched.
  const bool relay_on = config_.relay.enabled && relay_topo_.num_links() > 0;
  const ChannelTables ch =
      static_channel_
          ? static_channel_->tables
          : build_channel(*channel::make_fading(config_.fading, rng), rng,
                          trial_index, arena);

  // Dead-gateway failover (opt-in, kBestGateway): serving_now is the
  // *current* serving gateway — re-selected when a failure streak hits
  // the threshold — while serving stays the link-quality choice. The
  // failover machine draws its jitter from its own side substream in
  // deterministic (slot, tag) order, so enabling it never disturbs the
  // main trial draws.
  const bool failover_on = config_.failover_streak_frames > 0 && n_gw > 1 &&
                           config_.combining == GatewayCombining::kBestGateway;
  auto serving_now = arena.alloc<std::size_t>(n_tags);
  for (std::size_t k = 0; k < n_tags; ++k) serving_now[k] = ch.serving[k];
  constexpr std::uint64_t kFailoverSalt = 0xfa110feedULL;
  Rng failover_rng = Rng::substream(config_.seed ^ kFailoverSalt, trial_index);
  std::vector<std::size_t> fail_streak;
  std::vector<std::uint64_t> streak_start;
  std::vector<std::size_t> switch_count;
  std::vector<std::uint64_t> blacklist_until;
  if (failover_on) {
    fail_streak.assign(n_tags, 0);
    streak_start.assign(n_tags, 0);
    switch_count.assign(n_tags, 0);
    blacklist_until.assign(n_tags * n_gw, 0);
  }

  // Per-trial relaying state: each child's current parent (an index
  // into its candidate list), per-link ETX counters, forwarding queues,
  // and the end-to-end failure streaks that drive re-parenting. Heap
  // vectors, not arena carves — queued payloads grow data-dependently.
  std::vector<std::vector<QueuedFrame>> relay_queue;
  std::vector<std::uint32_t> parent_idx;
  std::vector<std::uint64_t> etx_attempts;
  std::vector<std::uint64_t> etx_success;
  std::vector<std::size_t> relay_fail_streak;
  std::vector<std::uint64_t> relay_streak_start;
  if (relay_on) {
    relay_queue.resize(n_tags);
    parent_idx.assign(n_tags, 0);
    etx_attempts.assign(relay_topo_.num_links(), 0);
    etx_success.assign(relay_topo_.num_links(), 0);
    relay_fail_streak.assign(n_tags, 0);
    relay_streak_start.assign(n_tags, 0);
  }

  // Ambient carrier realisation for the whole trial, so any decode
  // window is a pure history lookup. The analytic-only mode never
  // touches samples; kHybrid reads it for escalated windows. Neither
  // path consumes the trial RNG here (the source owns its seed), so
  // skipping generation keeps modes aligned.
  // kWaveform materialises it all upfront; kHybrid streams it lazily up
  // to the highest sample any escalated window has needed so far (the
  // source is sequential, so the prefix is identical either way), which
  // keeps trials with little contention from paying for carrier
  // synthesis at all.
  // A constant carrier (zero-drift CW, every network scenario) is the
  // same in every slot: one slot-long buffer is filled once and every
  // slot reads it at offset 0, so nothing is generated per sample.
  const std::optional<cf32> constant_carrier = source->constant();
  std::span<cf32> ambient{};
  std::size_t ambient_filled = 0;
  if (constant_carrier) {
    if (waveform_all || hybrid) {
      ambient = arena.alloc<cf32>(slot_samples_);
      std::fill(ambient.begin(), ambient.end(), *constant_carrier);
    }
    ambient_filled = total;
  } else if (waveform_all || hybrid) {
    ambient = arena.alloc<cf32>(total);
    if (waveform_all) {
      source->generate(ambient);
      ambient_filled = total;
    }
  }
  const auto ensure_ambient = [&](std::size_t hi_sample) {
    if (hi_sample > ambient_filled) {
      source->generate(ambient.subspan(ambient_filled,
                                       hi_sample - ambient_filled));
      ambient_filled = hi_sample;
    }
  };
  // The carrier under the slot starting at trial sample `base`.
  const auto slot_carrier = [&](std::size_t base) {
    return std::span<const cf32>(ambient).subspan(constant_carrier ? 0 : base,
                                                  slot_samples_);
  };

  // Per-gateway receive chains: AWGN (one fork per gateway, in index
  // order — forked in every mode to keep downstream MAC draws aligned),
  // RC envelope state carried across slots, and a full-trial envelope
  // history each. Trivially-destructible objects are
  // placement-constructed into arena scratch. In kHybrid the AWGN forks
  // are consumed by escalated windows instead of per-slot synthesis.
  auto noise = arena.alloc<channel::AwgnChannel>(n_gw);
  static_assert(std::is_trivially_destructible_v<channel::AwgnChannel>);
  static_assert(std::is_trivially_destructible_v<dsp::EnvelopeDetector>);
  const double noise_power = config_.noise_power_w();
  for (std::size_t g = 0; g < n_gw; ++g) {
    std::construct_at(&noise[g], noise_power, rng.fork());
  }
  std::span<dsp::EnvelopeDetector> envelopes{};
  std::span<float> env_buf{};
  std::span<cf32> rx_slot{};
  if (waveform_all) {
    envelopes = arena.alloc<dsp::EnvelopeDetector>(n_gw);
    for (std::size_t g = 0; g < n_gw; ++g) {
      std::construct_at(&envelopes[g], synth_.make_envelope());
    }
    env_buf = arena.alloc_zeroed<float>(n_gw * total);
    rx_slot = arena.alloc<cf32>(n_gw * slot_samples_);
  }

  // Cross-entity slot-synthesis scratch (kWaveform slots and kHybrid
  // escalations both run the fused per-gateway kernel): the per-slot
  // entity mask pointers, the compacted coupling pair of each entity at
  // the gateway being synthesized, and the coefficient accumulator.
  // Preallocated per trial so the arena's capacity stays warm-stable.
  std::span<const std::uint8_t*> mask_ptrs{};
  std::span<cf32> slot_on{};
  std::span<cf32> slot_off{};
  std::span<cf32> coeff_scratch{};
  if (waveform_all || hybrid) {
    mask_ptrs = arena.alloc<const std::uint8_t*>(n_tags);
    slot_on = arena.alloc<cf32>(n_tags);
    slot_off = arena.alloc<cf32>(n_tags);
    coeff_scratch = arena.alloc<cf32>(slot_samples_);
  }

  // Analytic fast path: interference bookkeeping over the channel's
  // swing tables. The reference engine keeps the historical
  // per-(gateway, slot) interference-sum rows; the active engine
  // instead folds a running per-(tag, gateway) segment
  // max while the frame is on air, so resolving a frame stops
  // rescanning its whole slot window (max is exact and
  // order-independent, hence bit-identical).
  std::span<float> i_sum{};
  std::span<float> i_max{};
  if (analytic_on) {
    if constexpr (ActiveSet) {
      i_max = arena.alloc<float>(n_tags * n_gw);  // rows zeroed per frame
    } else {
      i_sum = arena.alloc_zeroed<float>(n_gw * slots);
    }
  }

  // Hybrid frame log: who was on air when, so an escalated window can
  // re-synthesize exactly the slots it needs. Amortised std::vectors,
  // deliberately not arena carves — escalation demand is data-dependent
  // and mid-trial, which would defeat the arena's capacity-stability
  // contract.
  std::vector<FrameLog> frame_log;
  std::vector<std::uint32_t> slot_frames;
  std::vector<std::uint32_t> slot_frames_off;
  // Escalation slot cache: the noisy synthesized receive history per
  // (gateway, slot), built lazily the first time any escalated window
  // touches the slot and shared by every later escalation — contested
  // frames overlap heavily in dense scenes, and without the cache each
  // one would re-synthesize the same busy slots (and draw fresh noise
  // for them, unlike the waveform path where overlapping frames see one
  // noise realisation). A slot is final once built: every frame that
  // can overlap it is already in the log when the first escalation
  // reaches it, because escalations run at verdict time, after the
  // escalating frame's window has fully elapsed.
  //
  // Storage is chunk-lazy: instead of carving n_gw x total samples up
  // front (which dominated the arena footprint of escalation-free 10k
  // trials), each (gateway, run-of-kEscChunkSlots-slots) chunk is
  // carved from the arena the first time an escalation touches it. A
  // decode window may straddle chunks, so escalations gather their
  // window into the contiguous `esc_win` scratch before the envelope
  // stage — a memcpy of identical sample values, hence bit-identical
  // verdicts. Escalation demand is deterministic per trial, so the
  // arena's high-water capacity is replay-stable (pinned by
  // tests/sim/synthesis_test.cpp).
  constexpr std::size_t kEscChunkSlots = 4;
  const std::size_t esc_chunks_per_gw =
      (slots + kEscChunkSlots - 1) / kEscChunkSlots;
  std::span<cf32*> esc_chunks{};
  std::span<std::uint8_t> esc_built{};
  std::span<cf32> esc_win{};
  std::span<float> esc_env{};
  if (hybrid) {
    frame_log.reserve(n_tags);
    slot_frames_off.assign(slots + 1, 0);
    esc_chunks = arena.alloc<cf32*>(n_gw * esc_chunks_per_gw);
    std::fill(esc_chunks.begin(), esc_chunks.end(), nullptr);
    esc_built = arena.alloc_zeroed<std::uint8_t>(n_gw * slots);
    // A decode window spans at most frame_slots_ + 1 + ceil(tail/slot)
    // slots (one warm-up slot before the burst, the sync tail after).
    const std::size_t tail = 2 * config_.modem.data.rates.samples_per_bit();
    const std::size_t win_slots =
        frame_slots_ + 1 + (tail + slot_samples_ - 1) / slot_samples_;
    esc_win = arena.alloc<cf32>(win_slots * slot_samples_);
    esc_env = arena.alloc<float>(win_slots * slot_samples_);
  }
  const auto esc_slot_ptr = [&](std::size_t g, std::size_t s) -> cf32* {
    cf32*& chunk = esc_chunks[g * esc_chunks_per_gw + s / kEscChunkSlots];
    if (chunk == nullptr) {
      chunk = arena.alloc<cf32>(kEscChunkSlots * slot_samples_).data();
    }
    return chunk + (s % kEscChunkSlots) * slot_samples_;
  };
  std::vector<std::size_t> esc_order;
  // Escalated-demod memo: colliding frames that started in the same
  // slot share the identical decode window at a gateway (the window
  // bounds derive from start_slot alone and the cached samples never
  // change once built), so the receiver output is the same — only the
  // per-tag payload comparison differs. First escalation at a
  // (gateway, start_slot) runs the demodulator and stores the result;
  // cluster peers reuse it bit-for-bit.
  struct EscDemod {
    std::uint32_t g;
    std::uint64_t start;
    core::FdRxResult r;
  };
  std::vector<EscDemod> esc_demod;
  std::vector<LinkVerdict> gw_verdict(n_gw, LinkVerdict::kClearFail);
  std::vector<double> gw_margin(
      n_gw, -std::numeric_limits<double>::infinity());

  // Decode windows reach a couple of chips past the burst (RC group
  // delay shifts sync late by a fraction of a chip), never a full slot:
  // keeping the tail short stops a back-to-back successor frame's
  // preamble from entering this frame's sync search.
  const auto& rates = config_.modem.data.rates;
  const std::size_t tail_samples = 2 * rates.samples_per_bit();

  // MAC setup: the policy hands out the trial-opening waits and every
  // later one; contention policies draw from the trial Rng in the
  // identical order the pre-extraction loop did, the scheduled policy
  // computes cell distances without touching it.
  std::vector<TagRt> rt;
  rt.reserve(n_tags);
  for (std::size_t k = 0; k < n_tags; ++k) {
    rt.emplace_back(config_.storage, config_.power);
    rt[k].counter = policy_->initial_wait(k, rt[k].mac, rng);
  }

  // Wake-slot buckets (active engine): a pending MAC counter becomes
  // one scheduled wake event in a per-slot intrusive list — headA holds
  // backoff expiries, headD verdict-wait expiries, and every tag sits
  // in at most one list (it holds exactly one counter at a time), so
  // one shared `next` array links both. Fired lists are collected and
  // sorted ascending before processing, which reproduces the reference
  // engine's ascending-k scan order — and therefore its RNG draw order
  // — exactly. Counters whose expiry lands past the trial are simply
  // not scheduled (the reference's countdown never reaches zero
  // in-trial either).
  constexpr std::uint32_t kNilTag = 0xffffffffu;
  std::span<std::uint32_t> headA{}, headD{}, bucket_next{}, fired{};
  std::span<std::uint32_t> e_next{};  // first slot w/ unapplied energy
  if constexpr (ActiveSet) {
    headA = arena.alloc<std::uint32_t>(slots);
    headD = arena.alloc<std::uint32_t>(slots);
    std::fill(headA.begin(), headA.end(), kNilTag);
    std::fill(headD.begin(), headD.end(), kNilTag);
    bucket_next = arena.alloc<std::uint32_t>(n_tags);
    fired = arena.alloc<std::uint32_t>(n_tags);
    e_next = arena.alloc<std::uint32_t>(n_tags);
    std::fill(e_next.begin(), e_next.end(), 0u);
  }
  const auto schedule = [&](std::span<std::uint32_t> heads, std::size_t k,
                            std::uint64_t fire_slot) {
    if (fire_slot >= slots) return;
    bucket_next[k] = heads[fire_slot];
    heads[fire_slot] = static_cast<std::uint32_t>(k);
  };
  if constexpr (ActiveSet) {
    for (std::size_t k = 0; k < n_tags; ++k) {
      // An initial counter c is examined from slot 0 with the
      // `counter == 0 || --counter == 0` convention: c <= 1 fires at
      // slot 0, otherwise at slot c - 1.
      const std::size_t c = rt[k].counter;
      schedule(headA, k, c <= 1 ? 0 : static_cast<std::uint64_t>(c) - 1);
    }
  }

  const auto redraw_wait = [&](std::size_t k, std::uint64_t slot) {
    rt[k].counter = policy_->next_wait(k, slot, rt[k].mac, rng);
    if constexpr (ActiveSet) {
      // A wait assigned while processing slot s is first examined at
      // s + 1, so it fires at s + max(c, 1).
      schedule(headA, k,
               slot + std::max<std::uint64_t>(rt[k].counter, 1));
    }
  };

  // Energy bookkeeping. One slot of the recurrence, split by activity
  // state — the reference engine applies one of these to every tag
  // every slot; the active engine applies the active step to on-air
  // tags only and fast-forwards idle spans (ff_idle replays the exact
  // same per-slot sequence, so storage clamps, leak ticks, ledger adds
  // and draw failures land bit-identically; e_next[k] is the first slot
  // whose recurrence has not been applied yet).
  const auto idle_step = [&](std::size_t k) {
    res.tags[k].harvested_j += ch.h_idle[k];
    if (!config_.energy_gating) return;
    TagRt& tag = rt[k];
    tag.storage.charge(ch.h_idle[k]);
    tag.storage.tick(dt);
    tag.ledger.spend(energy::TagState::kListening, dt);
    // A failed draw while merely listening drains the store but is not
    // an outage event — only gated starts and mid-frame brownouts
    // count, per the NetworkTagStats contract.
    tag.storage.draw(config_.power.power(energy::TagState::kListening) * dt);
  };
  const auto active_step = [&](std::size_t k) {
    res.tags[k].harvested_j += ch.h_act[k];
    if (!config_.energy_gating) return;
    TagRt& tag = rt[k];
    tag.storage.charge(ch.h_act[k]);
    tag.storage.tick(dt);
    tag.ledger.spend(energy::TagState::kBackscattering, dt);
    if (!tag.storage.draw(
            config_.power.power(energy::TagState::kBackscattering) * dt)) {
      ++res.tags[k].energy_outages;
      tag.brownout_now = true;
    }
  };
  const auto ff_idle = [&](std::size_t k, std::uint64_t upto) {
    if constexpr (ActiveSet) {
      for (std::uint64_t s = e_next[k]; s < upto; ++s) idle_step(k);
      e_next[k] = static_cast<std::uint32_t>(upto);
    }
  };

  const bool fd = policy_->aborts_on_notify();
  std::uint64_t idle_wait_slots = 0;
  std::size_t n_waiting = 0;  // tags in WaitVerdict (active engine)
  std::vector<std::size_t> active;
  active.reserve(n_tags);

  // Worst-case concurrent interference a frame of tag k saw at gateway
  // g: the max over its on-air slots of the in-range active half-swing
  // sum, minus the tag's own contribution. Under faults i_sum already
  // carries the per-slot fault scaling plus attenuated interferer
  // envelopes; the own-share subtraction then uses the *minimum* window
  // scale — subtracting the least the tag could have contributed keeps
  // the residual an over-estimate, which is the safe side for the
  // one-sided classifier.
  const auto worst_interference = [&](std::size_t k, std::size_t g) {
    const TagRt& tag = rt[k];
    float worst = 0.0f;
    if constexpr (ActiveSet) {
      // The per-busy-slot segment max folded while the frame was on
      // air: a frame is active over exactly [start, start + frame)
      // slots, so the running max covers the identical window the
      // reference scan does (max is exact — same bits, no rescan).
      worst = i_max[k * n_gw + g];
    } else {
      const float* row = &i_sum[g * slots];
      for (std::uint64_t s = tag.start_slot;
           s < tag.start_slot + frame_slots_; ++s) {
        worst = std::max(worst, row[s]);
      }
    }
    double own = in_range_[k * n_gw + g]
                     ? 0.5 * static_cast<double>(ch.delta[k * n_gw + g])
                     : 0.0;
    if (has_faults) {
      own *= fplan.min_signal_scale(g, tag.start_slot,
                                    tag.start_slot + frame_slots_);
    }
    return std::max(0.0, static_cast<double>(worst) - own);
  };

  // Rewrites a frame's zero-padded antenna states for the transmitting
  // tag's own hardware fault: a stuck switch pins every sample of the
  // fault-covered slots to the jammed position; oscillator drift shifts
  // the whole burst by the skew accumulated since fault onset (the
  // receiver's sync search absorbs the shift until the burst overruns
  // its decode window). Shared by kWaveform modulation and the lazy
  // escalation-log modulation so both fidelity paths synthesize the
  // identical faulted waveform.
  const auto apply_tag_fault_states = [&](std::uint32_t k,
                                          std::uint64_t start_slot,
                                          std::vector<std::uint8_t>& states) {
    const TagFault* f = fplan.tag_fault(k);
    if (f == nullptr) return;
    if (f->stuck) {
      const std::int64_t lo =
          std::max<std::int64_t>(f->start_slot,
                                 static_cast<std::int64_t>(start_slot));
      const std::int64_t hi = std::min<std::int64_t>(
          f->end_slot, static_cast<std::int64_t>(start_slot + frame_slots_));
      if (lo >= hi) return;
      const std::size_t a =
          static_cast<std::size_t>(lo - static_cast<std::int64_t>(start_slot)) *
          slot_samples_;
      const std::size_t b =
          static_cast<std::size_t>(hi - static_cast<std::int64_t>(start_slot)) *
          slot_samples_;
      std::fill(states.begin() + static_cast<std::ptrdiff_t>(a),
                states.begin() + static_cast<std::ptrdiff_t>(b),
                f->stuck_state);
      return;
    }
    const std::size_t shift = fplan.drift_shift_samples(
        k, static_cast<std::int64_t>(start_slot));
    if (shift == 0) return;
    if (shift >= states.size()) {
      std::fill(states.begin(), states.end(), std::uint8_t{0});
      return;
    }
    states.insert(states.begin(), shift, std::uint8_t{0});
    states.resize(frame_slots_ * slot_samples_);
  };

  // In-place fault transform of one synthesized gateway-slot, applied
  // between the fused slot kernel and the AWGN stage: the carrier sag
  // scales every ambient-derived component (leakage and backscatter are
  // both linear in the carrier, so post-scaling the clean sum is exact),
  // burst-interferer tones arrive over the air, and the gateway
  // attenuation then scales everything reaching the faulted front end —
  // receiver noise stays unscaled.
  const auto apply_slot_faults = [&](std::size_t g, std::size_t slot,
                                     std::span<cf32> samples) {
    const float cs = fplan.carrier_scale(slot);
    if (cs != 1.0f) {
      for (auto& v : samples) v *= cs;
    }
    fplan.add_interferers(g, slot, samples);
    const float a = fplan.gateway_atten(g, slot);
    if (a != 1.0f) {
      for (auto& v : samples) v *= a;
    }
  };

  // Resilience attribution of one resolved or aborted frame: exposure
  // is judged over the frame's on-air window at the gateways the
  // combining policy listens to. Failed-and-exposed frames tally into
  // every fault class whose window touched them (exposure, not causal
  // attribution — see NetworkTrialResult).
  const auto classify_fault_loss = [&](std::size_t k, bool delivered) {
    const TagRt& tag = rt[k];
    const std::size_t lo = tag.start_slot;
    const std::size_t hi = tag.start_slot + frame_slots_;
    const bool sag = fplan.window_has_sag(lo, hi);
    bool outage = false;
    bool interf = false;
    for (std::size_t g = 0; g < n_gw; ++g) {
      const bool relevant = config_.combining == GatewayCombining::kAnyGateway ||
                            g == serving_now[k];
      if (!relevant) continue;
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
  };

  // Failover bookkeeping after a frame outcome: a delivery clears the
  // streak; a failure extends it, and hitting the threshold blacklists
  // the serving gateway for a jittered capped-exponential holdoff and
  // re-selects the best non-blacklisted link.
  const auto note_frame_outcome = [&](std::size_t k, bool delivered,
                                      std::uint64_t learn_slot) {
    if (!failover_on) return;
    TagRt& tag = rt[k];
    if (delivered) {
      fail_streak[k] = 0;
      switch_count[k] = 0;
      return;
    }
    if (fail_streak[k] == 0) streak_start[k] = tag.start_slot;
    if (++fail_streak[k] < config_.failover_streak_frames) return;
    const std::size_t old_g = serving_now[k];
    const std::size_t holdoff = mac::failover_holdoff_slots(
        failover_rng, config_.failover_holdoff_slots, switch_count[k],
        config_.failover_max_exponent);
    blacklist_until[k * n_gw + old_g] = learn_slot + 1 + holdoff;
    std::size_t best = old_g;
    float best_mag = -1.0f;
    for (std::size_t g = 0; g < n_gw; ++g) {
      if (blacklist_until[k * n_gw + g] > learn_slot) continue;
      const float mag = std::abs(ch.h_tr[k * n_gw + g]);
      if (mag > best_mag) {
        best_mag = mag;
        best = g;
      }
    }
    if (best != old_g) {
      serving_now[k] = best;
      ++res.failovers;
      res.time_to_failover_slots.add(
          static_cast<double>(learn_slot - streak_start[k] + 1));
      ++switch_count[k];
    }
    fail_streak[k] = 0;
  };

  // End-to-end relay feedback: every loss of an originator's frame
  // past its own transmission — a failed hop, a full or dying relay
  // upstream, a forward lost at the gateway — extends its streak (the
  // implicit missing end-to-end ACK a real mesh would observe).
  // Hitting the threshold re-parents onto the smoothed-ETX-best
  // candidate; the switch lands in the same failover stats the gateway
  // machine feeds, which is how a gateway outage shows up as relay
  // rerouting.
  // `charge_link` marks losses the child's own hop bookkeeping has not
  // already counted (anything past its transmission): they land as a
  // failed attempt on the child's *current* link, so a dead upstream
  // degrades the link's smoothed ETX even while the first hop itself
  // keeps succeeding — otherwise re-parenting could never route around
  // a gateway outage two hops away.
  const auto charge_relay_failure = [&](std::uint32_t o,
                                        std::uint64_t learn_slot,
                                        bool charge_link) {
    if (charge_link) ++etx_attempts[relay_topo_.link_offset(o) + parent_idx[o]];
    if (relay_fail_streak[o] == 0) relay_streak_start[o] = learn_slot;
    if (++relay_fail_streak[o] < config_.relay.reparent_fail_streak) return;
    const auto cands = relay_topo_.candidates(o);
    const std::size_t off = relay_topo_.link_offset(o);
    std::size_t best = parent_idx[o];
    double best_etx = std::numeric_limits<double>::infinity();
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      const double etx = static_cast<double>(etx_attempts[off + ci] + 1) /
                         static_cast<double>(etx_success[off + ci] + 1);
      if (etx < best_etx) {
        best_etx = etx;
        best = ci;
      }
    }
    if (best != parent_idx[o]) {
      parent_idx[o] = static_cast<std::uint32_t>(best);
      ++res.failovers;
      res.time_to_failover_slots.add(
          static_cast<double>(learn_slot - relay_streak_start[o] + 1));
    }
    relay_fail_streak[o] = 0;
  };

  // Resolves a relay child's completed frame against its current parent
  // link: the hop delivers iff the frame stayed clean on air and the
  // tag-tag envelope swing clears the analytic margin floor — one rule
  // in every fidelity mode, since no sample-level receiver exists at a
  // tag. A delivered hop lands the frame in the parent's forwarding
  // queue; the parent re-reflects it in its own slotframe cell.
  const double hop_noise_sigma = std::sqrt(config_.noise_power_w() / 2.0);
  const auto resolve_hop = [&](std::size_t k, std::uint64_t learn_slot,
                               bool update_mac) {
    TagRt& tag = rt[k];
    const std::size_t off = relay_topo_.link_offset(k);
    const std::size_t ci = parent_idx[k];
    const std::uint32_t parent = relay_topo_.candidates(k)[ci];
    ++etx_attempts[off + ci];
    const double margin = analytic_margin_db(
        ch.delta_tt[off + ci], 0.0, hop_noise_sigma, rates.samples_per_chip,
        fleet.analytic_target_ber);
    const bool success =
        !tag.overlapped && margin >= config_.relay.min_margin_db;
    if (update_mac) policy_->on_outcome(k, success, tag.mac);
    const std::uint32_t originator =
        tag.forwarding ? tag.fwd_originator : static_cast<std::uint32_t>(k);
    if (success) {
      ++etx_success[off + ci];
      if (relay_queue[parent].size() < config_.relay.queue_capacity) {
        relay_queue[parent].push_back(
            {originator, tag.forwarding ? tag.fwd_hops + 1 : 1, tag.payload});
        ++res.relay_rx_frames;
        res.useful_slots += frame_slots_;
      } else {
        ++res.relay_drops;
        charge_relay_failure(originator, learn_slot, /*charge_link=*/true);
      }
      return;
    }
    if (tag.forwarding) {
      ++res.relay_drops;
      charge_relay_failure(originator, learn_slot, /*charge_link=*/true);
      return;
    }
    if (tag.overlapped) {
      ++res.tags[k].frames_collided;
      ++res.collisions;
      res.detect_latency_slots.add(
          static_cast<double>(learn_slot - tag.overlap_start + 1));
    } else {
      ++res.sync_failures;
    }
    // The failed hop was already recorded on the link above.
    charge_relay_failure(originator, learn_slot, /*charge_link=*/false);
  };

  // Escalated resolution of one contested frame (kHybrid): re-run the
  // real sample-level chain, but only over this frame's decode window,
  // only at the contested gateways, and only folding in-range logged
  // frames. One warm-up slot ahead of the window settles the fresh RC
  // envelope state (the RC time constant is a fraction of a chip).
  const auto escalate_frame = [&](std::size_t k) {
    const auto esc_t0 = timed ? Clock::now() : Clock::time_point{};
    const TagRt& tag = rt[k];
    const std::size_t lo =
        static_cast<std::size_t>(tag.start_slot) * slot_samples_;
    const std::size_t hi = std::min(total, lo + burst_samples_ + tail_samples);
    const std::uint64_t w0_slot = tag.start_slot > 0 ? tag.start_slot - 1 : 0;
    const std::size_t hi_slot =
        std::min(slots, (hi + slot_samples_ - 1) / slot_samples_);
    const std::size_t w0 = static_cast<std::size_t>(w0_slot) * slot_samples_;
    const std::size_t win_samples = hi_slot * slot_samples_ - w0;
    assert(win_samples <= esc_win.size());
    ensure_ambient(hi_slot * slot_samples_);

    // Contested gateways are tried best-margin-first and the loop exits
    // on the first decode: under any-gateway combining one decode
    // already settles delivery, so the remaining (weaker) gateways'
    // windows never need synthesizing. Delivery verdicts are identical
    // to the exhaustive sweep; only the per-gateway decode tallies stop
    // accruing once the frame is resolved.
    esc_order.clear();
    for (std::size_t g = 0; g < n_gw; ++g) {
      if (gw_verdict[g] == LinkVerdict::kContested) esc_order.push_back(g);
    }
    std::sort(esc_order.begin(), esc_order.end(),
              [&](std::size_t a, std::size_t b) {
                return gw_margin[a] != gw_margin[b]
                           ? gw_margin[a] > gw_margin[b]
                           : a < b;
              });

    bool any_decoded = false;
    bool serving_decoded = false;
    for (const std::size_t g : esc_order) {
      const core::FdRxResult* rp = nullptr;
      for (const EscDemod& e : esc_demod) {
        if (e.g == g && e.start == tag.start_slot) {
          // A cluster peer already demodulated this exact window: every
          // slot of it is built (the memo is stored only after a full
          // build), so skipping the rebuild consumes no RNG and changes
          // no accounting.
          rp = &e.r;
          break;
        }
      }
      if (rp == nullptr) {
        for (std::size_t s = w0_slot; s < hi_slot; ++s) {
          cf32* const slot_p = esc_slot_ptr(g, s);
          if (!esc_built[g * slots + s]) {
            esc_built[g * slots + s] = 1;
            ++res.gateway_slots_synthesized;
            const auto carrier = slot_carrier(s * slot_samples_);
            const auto out = std::span<cf32>(slot_p, slot_samples_);
            // Gather the in-range on-air entities of this slot (mask
            // views into the zero-padded modulated frames plus their
            // coupling pair at this gateway), then run the fused slot
            // kernel once.
            std::size_t n_ent = 0;
            for (std::uint32_t idx = slot_frames_off[s];
                 idx < slot_frames_off[s + 1]; ++idx) {
              FrameLog& fl = frame_log[slot_frames[idx]];
              if (!in_range_[fl.tag * n_gw + g]) continue;
              if (fl.states.empty()) {
                fl.states = tx_.modulate(fl.payload);
                // Zero-pad to whole slots: state 0 is absorb, which is
                // exactly the "frame ended mid-slot" semantics.
                fl.states.resize(frame_slots_ * slot_samples_, 0);
                if (has_faults) {
                  apply_tag_fault_states(fl.tag, fl.start_slot, fl.states);
                }
              }
              mask_ptrs[n_ent] =
                  fl.states.data() +
                  static_cast<std::size_t>(s - fl.start_slot) *
                      slot_samples_;
              slot_on[n_ent] = ch.coup_on[fl.tag * n_gw + g];
              slot_off[n_ent] = ch.coup_off[fl.tag * n_gw + g];
              ++n_ent;
            }
            WaveformSynthesizer::synthesize_slot_gateway(
                carrier, ch.h_sr[g],
                std::span<const std::uint8_t* const>(mask_ptrs.data(),
                                                     n_ent),
                std::span<const cf32>(slot_on.data(), n_ent),
                std::span<const cf32>(slot_off.data(), n_ent),
                coeff_scratch, out);
            if (has_faults) apply_slot_faults(g, s, out);
            noise[g].process(out, out);
          }
          // The decode window may straddle chunk boundaries: gather it
          // into contiguous scratch (identical sample values — the
          // envelope/demod stages see exactly the bits the monolithic
          // cache produced).
          std::memcpy(esc_win.data() + (s - w0_slot) * slot_samples_,
                      slot_p, slot_samples_ * sizeof(cf32));
        }
        dsp::EnvelopeDetector env = synth_.make_envelope();
        const auto env_out = esc_env.subspan(0, win_samples);
        env.process(std::span<const cf32>(esc_win.data(), win_samples),
                    env_out);
        if (fleet.record_frames) fold_digest(res.envelope_digest[g], env_out);
        esc_demod.push_back(
            {static_cast<std::uint32_t>(g), tag.start_slot,
             rx_.demodulate(
                 std::span<const float>(env_out).subspan(lo - w0, hi - lo),
                 {}, config_.payload_bytes)});
        rp = &esc_demod.back().r;
      }
      const core::FdRxResult& r = *rp;
      const bool decoded = r.status != Status::kSyncNotFound &&
                           r.blocks.blocks_failed == 0 &&
                           r.blocks.payload == tag.payload;
      if (decoded) {
        ++res.gateway_decodes[g];
        any_decoded = true;
        if (g == serving_now[k]) serving_decoded = true;
        if (config_.combining == GatewayCombining::kAnyGateway ||
            g == serving_now[k]) {
          break;
        }
      }
    }
    if (timed) {
      esc_acc +=
          std::chrono::duration<double>(Clock::now() - esc_t0).count();
    }
    return config_.combining == GatewayCombining::kAnyGateway
               ? any_decoded
               : serving_decoded;
  };

  // Resolves tag k's completed frame and applies the combining policy
  // to stats + MAC state. kWaveform decodes every gateway's envelope
  // history; the fleet modes classify analytically and (kHybrid)
  // escalate contested frames back to synthesis. `learn_slot` is when
  // the transmitter hears the outcome (for the latency metric).
  const auto resolve_verdict = [&](std::size_t k, std::uint64_t learn_slot,
                                   bool update_mac) {
    TagRt& tag = rt[k];
    const bool fwd = relay_on && tag.forwarding;
    bool delivered = false;
    bool escalated = false;
    LinkVerdict combined = LinkVerdict::kContested;
    double best_margin = -std::numeric_limits<double>::infinity();

    // The transmitting tag's own hardware fault this frame, if any:
    // stuck frames and drift-shifted frames force kContested in every
    // classifying mode (only synthesis — which rewrites the faulted
    // states — can judge a corrupted burst; forcing the band keeps the
    // clear-verdict agreement contract intact under faults).
    bool own_stuck = false;
    std::size_t own_shift = 0;
    if (has_faults) {
      own_stuck = fplan.stuck_in_window(
          static_cast<std::uint32_t>(k),
          static_cast<std::int64_t>(tag.start_slot),
          static_cast<std::int64_t>(tag.start_slot + frame_slots_));
      own_shift = fplan.drift_shift_samples(
          static_cast<std::uint32_t>(k),
          static_cast<std::int64_t>(tag.start_slot));
    }
    const bool own_fault = own_stuck || own_shift > 0;

    if (analytic_on) {
      // Per-gateway one-sided-safe verdicts over the gateway set the
      // combining policy listens to (kBestGateway: serving only).
      bool any_deliver = false;
      bool any_contested = false;
      std::size_t best_g = serving_now[k];
      for (std::size_t g = 0; g < n_gw; ++g) {
        const bool relevant =
            config_.combining == GatewayCombining::kAnyGateway ||
            g == serving_now[k];
        if (!relevant) {
          gw_verdict[g] = LinkVerdict::kClearFail;
          gw_margin[g] = -std::numeric_limits<double>::infinity();
          continue;
        }
        const double d = ch.delta[k * n_gw + g];
        const double interf = worst_interference(k, g);
        double margin;
        if (has_faults) {
          // The fault schedule scales the frame's envelope swing slot
          // by slot; the split-band classifier charges the pessimistic
          // arm the window minimum and grants the optimistic arm the
          // window maximum — the same one-sided-safe bracketing the
          // margin band already provides for interference.
          const double scale_min = fplan.min_signal_scale(
              g, tag.start_slot, tag.start_slot + frame_slots_);
          const double scale_max = fplan.max_signal_scale(
              g, tag.start_slot, tag.start_slot + frame_slots_);
          gw_verdict[g] = resolver_.classify(d * scale_min, d * scale_max,
                                             interf);
          margin = resolver_.margin_db(d * scale_min, interf);
          if (own_fault) gw_verdict[g] = LinkVerdict::kContested;
        } else {
          gw_verdict[g] = resolver_.classify(d, interf);
          margin = resolver_.margin_db(d, interf);
        }
        if (fwd && gw_verdict[g] == LinkVerdict::kClearDeliver) {
          // Relayed delivery is never claimed from the margin band
          // alone (one-sided-safe): force the contested band so kHybrid
          // escalates to synthesis and kAnalytic point-estimates.
          gw_verdict[g] = LinkVerdict::kContested;
        }
        gw_margin[g] = margin;
        if (margin > best_margin) {
          best_margin = margin;
          best_g = g;
        }
        any_deliver |= gw_verdict[g] == LinkVerdict::kClearDeliver;
        any_contested |= gw_verdict[g] == LinkVerdict::kContested;
      }
      combined = any_deliver      ? LinkVerdict::kClearDeliver
                 : any_contested  ? LinkVerdict::kContested
                                  : LinkVerdict::kClearFail;

      if (!waveform_all) {
        switch (combined) {
          case LinkVerdict::kClearDeliver:
            delivered = true;
            for (std::size_t g = 0; g < n_gw; ++g) {
              if (gw_verdict[g] == LinkVerdict::kClearDeliver) {
                ++res.gateway_decodes[g];
              }
            }
            break;
          case LinkVerdict::kClearFail:
            break;
          case LinkVerdict::kContested:
            if (hybrid) {
              delivered = escalate_frame(k);
              escalated = true;
            } else if (own_stuck) {
              // Pure analytic mode, jammed switch: no modulation ever
              // reached the air during the fault window — fail.
              delivered = false;
            } else if (own_shift > 0) {
              // Drifted burst: delivered iff the margin holds AND the
              // accumulated skew still fits the decode window's tail.
              delivered = best_margin >= 0.0 && own_shift <= tail_samples;
              if (delivered) ++res.gateway_decodes[best_g];
            } else {
              // Point estimate at the band centre.
              delivered = best_margin >= 0.0;
              if (delivered) ++res.gateway_decodes[best_g];
            }
            break;
        }
        if (escalated) {
          ++res.frames_escalated;
        } else {
          ++res.frames_resolved_analytic;
        }
        if (culled_[k]) ++res.frames_culled;
      }
    }

    if (waveform_all) {
      const std::size_t lo =
          static_cast<std::size_t>(tag.start_slot) * slot_samples_;
      const std::size_t hi =
          std::min(total, lo + burst_samples_ + tail_samples);
      bool any_decoded = false;
      bool serving_decoded = false;
      for (std::size_t g = 0; g < n_gw; ++g) {
        const auto history =
            std::span<const float>(env_buf).subspan(g * total, total);
        const core::FdRxResult r = rx_.demodulate(
            history.subspan(lo, hi - lo), {}, config_.payload_bytes);
        const bool decoded = r.status != Status::kSyncNotFound &&
                             r.blocks.blocks_failed == 0 &&
                             r.blocks.payload == tag.payload;
        if (decoded) {
          ++res.gateway_decodes[g];
          any_decoded = true;
          if (g == serving_now[k]) serving_decoded = true;
        }
      }
      delivered = config_.combining == GatewayCombining::kAnyGateway
                      ? any_decoded
                      : serving_decoded;
    }

    if (fleet.record_frames) {
      res.frames.push_back({static_cast<std::uint32_t>(k), tag.start_slot,
                            tag.overlapped, combined, best_margin, delivered,
                            escalated});
    }
    if (has_faults) classify_fault_loss(k, delivered);
    if (update_mac) {
      if (!fwd) note_frame_outcome(k, delivered, learn_slot);
      policy_->on_outcome(k, delivered, tag.mac);
    }
    if (fwd) {
      // A forward's outcome belongs to the originator; the relay's own
      // per-tag counters stay untouched (delivered + collided <=
      // attempted must keep holding per tag).
      if (delivered) {
        ++res.tags[tag.fwd_originator].frames_delivered;
        res.tags[tag.fwd_originator].payload_bits_delivered +=
            config_.payload_bytes * 8;
        ++res.relayed_delivered;
        res.relay_hops.add(static_cast<double>(tag.fwd_hops + 1));
        res.useful_slots += frame_slots_;
        relay_fail_streak[tag.fwd_originator] = 0;
      } else {
        ++res.relay_drops;
        charge_relay_failure(tag.fwd_originator, learn_slot,
                             /*charge_link=*/true);
      }
    } else if (delivered) {
      ++res.tags[k].frames_delivered;
      res.tags[k].payload_bits_delivered += config_.payload_bytes * 8;
      res.useful_slots += frame_slots_;
    } else {
      if (tag.overlapped) {
        ++res.tags[k].frames_collided;
        ++res.collisions;
        res.detect_latency_slots.add(
            static_cast<double>(learn_slot - tag.overlap_start + 1));
      } else {
        ++res.sync_failures;
      }
    }
  };

  // Verdict dispatch shared by Phase D and the trial-end drain; also
  // the stage-timing boundary for verdict resolution (escalation time
  // is carved out separately inside escalate_frame).
  const auto resolve_frame = [&](std::size_t k, std::uint64_t learn_slot,
                                 bool update_mac) {
    const auto t0 = timed ? Clock::now() : Clock::time_point{};
    if (relay_on && relay_topo_.reachable(k) && relay_topo_.level(k) >= 1) {
      resolve_hop(k, learn_slot, update_mac);
    } else {
      resolve_verdict(k, learn_slot, update_mac);
    }
    if (timed) {
      verdict_acc +=
          std::chrono::duration<double>(Clock::now() - t0).count();
    }
  };

  // Frame start: identical bookkeeping (and Rng draw sequence) in both
  // engines — only *when* it runs differs (bucket fire vs countdown).
  const auto start_frame = [&](std::size_t k, std::uint64_t slot) {
    TagRt& tag = rt[k];
    tag.st = TagRt::St::kTx;
    tag.progress = 0;
    tag.start_slot = slot;
    tag.overlapped = false;
    tag.forwarding = relay_on && !relay_queue[k].empty();
    if (tag.forwarding) {
      // Forwarding outranks fresh traffic — the queued frame is
      // older. No payload draw: the scheduled MAC never touches the
      // trial Rng either, so the draw sequence is a pure function
      // of the queue evolution (mode-dependent only where gateway
      // verdicts are; relaying's cross-fidelity contract is
      // statistical, not draw-exact).
      QueuedFrame f = std::move(relay_queue[k].front());
      relay_queue[k].erase(relay_queue[k].begin());
      tag.fwd_originator = f.originator;
      tag.fwd_hops = f.hops;
      tag.payload = std::move(f.payload);
      ++res.relay_tx_frames;
    } else {
      ++res.tags[k].frames_attempted;
      tag.payload.resize(config_.payload_bytes);
      for (auto& byte : tag.payload) {
        byte = static_cast<std::uint8_t>(rng.uniform_int(256));
      }
    }
    // Antenna states are only modulated where samples are needed:
    // per-slot synthesis (kWaveform) now, escalated windows
    // (kHybrid) lazily from the frame log, never in kAnalytic.
    if (waveform_all) {
      tag.states = tx_.modulate(tag.payload);
      // Zero-pad to whole slots (0 = absorb): every slot of the
      // frame is then a plain pointer view for the slot kernel.
      tag.states.resize(frame_slots_ * slot_samples_, 0);
      if (has_faults) {
        apply_tag_fault_states(static_cast<std::uint32_t>(k), slot,
                               tag.states);
      }
    } else if (hybrid) {
      tag.frame_id = static_cast<std::uint32_t>(frame_log.size());
      frame_log.push_back({static_cast<std::uint32_t>(k), slot,
                           tag.payload, {}});
    }
  };

  const auto t_loop = timed ? Clock::now() : Clock::time_point{};
  if (timed) {
    stages->setup_s +=
        std::chrono::duration<double>(t_loop - t_entry).count();
  }

  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    // --- Phase A: backoff expiries; frame starts (energy-gated) -------
    if constexpr (ActiveSet) {
      std::size_t n_fired = 0;
      for (std::uint32_t t = headA[slot]; t != kNilTag; t = bucket_next[t]) {
        fired[n_fired++] = t;
      }
      headA[slot] = kNilTag;
      std::sort(fired.begin(), fired.begin() + n_fired);
      for (std::size_t i = 0; i < n_fired; ++i) {
        const std::size_t k = fired[i];
        TagRt& tag = rt[k];
        // Frames that cannot fully resolve inside the trial are not
        // started: the tag parks (it is simply never rescheduled).
        if (slot + frame_slots_ + 2 > slots) {
          tag.counter = slots;
          continue;
        }
        ff_idle(k, slot);  // gating reads storage: bring it current
        if (config_.energy_gating &&
            tag.storage.level_j() < frame_cost_j_) {
          ++res.tags[k].energy_outages;
          redraw_wait(k, slot);
          continue;
        }
        start_frame(k, slot);
        active.insert(std::lower_bound(active.begin(), active.end(), k),
                      k);
        if (analytic_on) {
          // Fresh frame: reset this tag's per-gateway window maxima.
          std::fill_n(i_max.begin() + k * n_gw, n_gw, 0.0f);
        }
      }
    } else {
      for (std::size_t k = 0; k < n_tags; ++k) {
        TagRt& tag = rt[k];
        tag.wait_entered_now = false;
        tag.brownout_now = false;
        if (tag.st != TagRt::St::kBackoff) continue;
        if (tag.counter == 0 || --tag.counter == 0) {
          // Frames that cannot fully resolve inside the trial are not
          // started: park the tag so every attempt has a verdict.
          if (slot + frame_slots_ + 2 > slots) {
            tag.counter = slots;  // runs off the end of the trial
            continue;
          }
          if (config_.energy_gating &&
              tag.storage.level_j() < frame_cost_j_) {
            ++res.tags[k].energy_outages;
            redraw_wait(k, slot);
            continue;
          }
          start_frame(k, slot);
        }
      }
    }

    // --- Phase B: channel synthesis + energy accounting ---------------
    if constexpr (ActiveSet) {
      // `active` is maintained incrementally (sorted inserts in Phase
      // A, compaction in Phase C) and `n_waiting` counts WaitVerdict
      // residents — no per-slot O(n_tags) scan.
      if (!active.empty()) {
        ++res.busy_slots;
      } else if (n_waiting > 0) {
        ++idle_wait_slots;
      }
    } else {
      active.clear();
      bool any_waiting = false;
      for (std::size_t k = 0; k < n_tags; ++k) {
        if (rt[k].st == TagRt::St::kTx) active.push_back(k);
        if (rt[k].st == TagRt::St::kWaitVerdict) any_waiting = true;
      }
      if (!active.empty()) {
        ++res.busy_slots;
      } else if (any_waiting) {
        ++idle_wait_slots;  // dead air while timers / verdict drains run
      }
    }

    // Slot synthesis is one pass across entities, not per link: stage 1
    // resolves every active tag's per-sample mask block for this slot
    // once (shared by all gateways — the zero-padded modulated frames
    // make each block a plain pointer view); stage 2 runs the fused
    // per-gateway kernel, which sums the selected coupling coefficients
    // (h_tag->gw * Gamma(state) * h_ambient->tag, from the per-trial
    // tables) and multiplies the carrier in once, then the gateway's
    // AWGN fork and RC envelope state. The fleet modes skip this
    // entirely: the analytic path below tracks the interference sums
    // instead, and kHybrid re-synthesizes only the windows its
    // contested frames demand.
    if (waveform_all) {
      const std::size_t base = static_cast<std::size_t>(slot) * slot_samples_;
      const auto carrier = slot_carrier(base);
      for (std::size_t e = 0; e < active.size(); ++e) {
        const TagRt& tag = rt[active[e]];
        mask_ptrs[e] =
            tag.states.data() +
            static_cast<std::size_t>(slot - tag.start_slot) * slot_samples_;
      }
      for (std::size_t g = 0; g < n_gw; ++g) {
        for (std::size_t e = 0; e < active.size(); ++e) {
          slot_on[e] = ch.coup_on[active[e] * n_gw + g];
          slot_off[e] = ch.coup_off[active[e] * n_gw + g];
        }
        const auto gw_slot = rx_slot.subspan(g * slot_samples_, slot_samples_);
        WaveformSynthesizer::synthesize_slot_gateway(
            carrier, ch.h_sr[g],
            std::span<const std::uint8_t* const>(mask_ptrs.data(),
                                                 active.size()),
            std::span<const cf32>(slot_on.data(), active.size()),
            std::span<const cf32>(slot_off.data(), active.size()),
            coeff_scratch, gw_slot);
        if (has_faults) apply_slot_faults(g, slot, gw_slot);
        noise[g].process(gw_slot, gw_slot);
        envelopes[g].process(
            gw_slot, env_buf.subspan(g * total + base, slot_samples_));
      }
      res.gateway_slots_synthesized += n_gw;
    }
    if (analytic_on) {
      // Under faults the interference sum mirrors the synthesis
      // transform exactly: active tags' half-swings scale with the
      // carrier sag and the gateway attenuation, and burst-interferer
      // envelopes arrive over the air (so they too pass the gateway's
      // attenuation).
      if constexpr (ActiveSet) {
        // Segment-max: fold this slot's per-gateway sum once (the
        // identical ascending-active fold the reference stores in
        // i_sum) and max it into every active tag's running window
        // maximum — `worst_interference` then reads the max directly
        // instead of rescanning the frame window per (frame, gateway).
        // Only slots with a tag on air matter: a resolved frame was
        // active on every slot of its window, so its maxima cover
        // exactly the slots the reference scan would.
        if (!active.empty()) {
          for (std::size_t g = 0; g < n_gw; ++g) {
            float sum = 0.0f;
            for (const std::size_t k : active) {
              if (in_range_[k * n_gw + g]) sum += ch.half[k * n_gw + g];
            }
            if (has_faults) {
              sum = sum * fplan.signal_scale(g, slot) +
                    fplan.interferer_env(g, slot) *
                        fplan.gateway_atten(g, slot);
            }
            for (const std::size_t k : active) {
              float& m = i_max[k * n_gw + g];
              if (sum > m) m = sum;
            }
          }
        }
      } else if (!active.empty() || has_faults) {
        // Written every slot under faults, since an interferer raises
        // the sum even with no tag on air.
        for (std::size_t g = 0; g < n_gw; ++g) {
          float sum = 0.0f;
          for (const std::size_t k : active) {
            if (in_range_[k * n_gw + g]) sum += ch.half[k * n_gw + g];
          }
          if (has_faults) {
            sum = sum * fplan.signal_scale(g, slot) +
                  fplan.interferer_env(g, slot) *
                      fplan.gateway_atten(g, slot);
          }
          i_sum[g * slots + slot] = sum;
        }
      }
    }
    if (hybrid) {
      for (const std::size_t k : active) {
        if constexpr (ActiveSet) {
          // Fully-culled tags are in range of no gateway: escalation
          // skips them per-gateway anyway, so dropping them from the
          // slot index changes no synthesized sample.
          if (culled_[k]) continue;
        }
        slot_frames.push_back(rt[k].frame_id);
      }
      slot_frames_off[slot + 1] =
          static_cast<std::uint32_t>(slot_frames.size());
    }

    if constexpr (ActiveSet) {
      for (const std::size_t k : active) {
        active_step(k);
        e_next[k] = static_cast<std::uint32_t>(slot + 1);
      }
    } else {
      for (std::size_t k = 0; k < n_tags; ++k) {
        if (rt[k].st == TagRt::St::kTx) {
          active_step(k);
        } else {
          idle_step(k);
        }
      }
    }

    // --- Phase C: transmission progress, overlap, aborts, frame end ---
    // The active engine compacts `active` in place: a tag that aborts
    // or completes is dropped, everything else keeps its (ascending)
    // position.
    const bool collision_now = active.size() >= 2;
    [[maybe_unused]] std::size_t keep = 0;
    const std::size_t n_active = active.size();
    for (std::size_t ai = 0; ai < n_active; ++ai) {
      const std::size_t k = active[ai];
      TagRt& tag = rt[k];
      ++tag.progress;
      if (collision_now && !tag.overlapped) {
        tag.overlapped = true;
        tag.overlap_start = slot;
      }
      const bool brownout = tag.brownout_now;
      if constexpr (ActiveSet) tag.brownout_now = false;
      if (brownout) {
        // Storage emptied under the switch drive: the frame dies on air.
        if (relay_on && tag.forwarding) {
          ++res.relay_drops;
          charge_relay_failure(tag.fwd_originator, slot,
                               /*charge_link=*/true);
        } else {
          ++res.tags[k].frames_aborted;
          if (tag.overlapped) {
            ++res.tags[k].frames_collided;
            ++res.collisions;
          }
        }
        if (has_faults) classify_fault_loss(k, /*delivered=*/false);
        tag.st = TagRt::St::kBackoff;
        redraw_wait(k, slot);
        continue;
      }
      bool notified = false;
      if (fd && tag.overlapped) {
        if (!has_faults) {
          notified = slot - tag.overlap_start + 1 >= notify_slots_[k];
        } else {
          // A gateway can only notify if it was alive to *detect* the
          // overlap: an outage at the detection moment silences it, and
          // the tag keeps burning the collided frame until a healthy
          // gateway's (possibly slower) notification arrives — or the
          // frame runs its full length. This is the failure mode the
          // dead-gateway failover machine responds to.
          for (std::size_t g = 0; g < n_gw; ++g) {
            if (slot - tag.overlap_start + 1 < notify_pg_[k * n_gw + g]) {
              continue;
            }
            if (!fplan.gateway_alive(g, tag.overlap_start)) continue;
            notified = true;
            break;
          }
        }
      }
      if (notified) {
        // The earliest gateway's collision notification arrived
        // (notify latency block-times after the overlap began, not
        // after the frame started — mid-frame collision victims wait
        // the full notification latency too): abort now.
        if (relay_on && tag.forwarding) {
          ++res.relay_drops;
          charge_relay_failure(tag.fwd_originator, slot,
                               /*charge_link=*/true);
        } else {
          ++res.tags[k].frames_aborted;
          ++res.tags[k].frames_collided;
          ++res.collisions;
          res.detect_latency_slots.add(
              static_cast<double>(slot - tag.overlap_start + 1));
        }
        if (has_faults) classify_fault_loss(k, /*delivered=*/false);
        policy_->on_notify_abort(k, tag.mac);
        tag.st = TagRt::St::kBackoff;
        redraw_wait(k, slot);
        continue;
      }
      if (tag.progress >= frame_slots_) {
        // Frame fully on air. The policy decides the drain: one slot
        // for the final block verdict (notify / scheduled), the ACK
        // timeout for the timeout MAC.
        tag.st = TagRt::St::kWaitVerdict;
        tag.counter = policy_->verdict_wait_slots();
        if constexpr (ActiveSet) {
          // A wait-verdict counter c entered at slot s is skipped at s
          // (wait_entered_now) and first examined at s + 1: it fires at
          // s + max(c, 1).
          schedule(headD, k,
                   slot + std::max<std::uint64_t>(tag.counter, 1));
          ++n_waiting;
        } else {
          tag.wait_entered_now = true;
        }
        continue;
      }
      if constexpr (ActiveSet) active[keep++] = k;
    }
    if constexpr (ActiveSet) {
      active.resize(keep);
    }

    // --- Phase D: verdict waits resolve against synthesized history ---
    if constexpr (ActiveSet) {
      std::size_t n_fired = 0;
      for (std::uint32_t t = headD[slot]; t != kNilTag; t = bucket_next[t]) {
        fired[n_fired++] = t;
      }
      headD[slot] = kNilTag;
      std::sort(fired.begin(), fired.begin() + n_fired);
      for (std::size_t i = 0; i < n_fired; ++i) {
        const std::size_t k = fired[i];
        resolve_frame(k, slot, /*update_mac=*/true);
        rt[k].st = TagRt::St::kBackoff;
        --n_waiting;
        redraw_wait(k, slot);
      }
    } else {
      for (std::size_t k = 0; k < n_tags; ++k) {
        TagRt& tag = rt[k];
        if (tag.st != TagRt::St::kWaitVerdict || tag.wait_entered_now) {
          continue;
        }
        if (tag.counter == 0 || --tag.counter == 0) {
          resolve_frame(k, slot, /*update_mac=*/true);
          tag.st = TagRt::St::kBackoff;
          redraw_wait(k, slot);
        }
      }
    }
  }

  // Attempts still waiting on a verdict at trial end have fully
  // synthesized frames (starts are parked otherwise): resolve them for
  // the stats without MAC consequences. The active engine also settles
  // each tag's outstanding idle-energy span here; a tag that never woke
  // under a static channel takes the precomputed whole-trial harvest
  // fold (the identical sequential sum starting from the same 0.0) in
  // one add.
  for (std::size_t k = 0; k < n_tags; ++k) {
    if (rt[k].st == TagRt::St::kWaitVerdict) {
      resolve_frame(k, slots - 1, /*update_mac=*/false);
    }
    rt[k].st = TagRt::St::kBackoff;
    if constexpr (ActiveSet) {
      if (static_channel_ && !config_.energy_gating && e_next[k] == 0) {
        res.tags[k].harvested_j += static_channel_->idle_sum[k];
      } else {
        ff_idle(k, slots);
      }
    }
    res.tags[k].spent_j = rt[k].ledger.total_energy_j();
  }
  if (relay_on) {
    // Frames still sitting in forwarding queues never reached a
    // gateway: fabric drops (no streak charge — the per-trial relay
    // state dies here anyway).
    for (const auto& q : relay_queue) res.relay_drops += q.size();
  }

  if (waveform_all && fleet.record_frames) {
    fold_histories(res.envelope_digest, env_buf, total);
  }

  res.wasted_slots = (res.busy_slots > res.useful_slots
                          ? res.busy_slots - res.useful_slots
                          : 0) +
                     idle_wait_slots;
  if (timed) {
    // Pure measurement: the verdict/escalation shares were accumulated
    // at their dispatch sites; the slot-loop share is the remainder.
    const double loop_s =
        std::chrono::duration<double>(Clock::now() - t_loop).count();
    stages->slot_loop_s += loop_s - verdict_acc;
    stages->verdict_s += verdict_acc - esc_acc;
    stages->escalate_s += esc_acc;
  }
  return res;
}

NetworkSimSummary NetworkSimulator::run(std::size_t n) const {
  NetworkSimSummary summary;
  for (std::size_t t = 0; t < n; ++t) summary.add(run_trial(t));
  return summary;
}

}  // namespace fdb::sim
